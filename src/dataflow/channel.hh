/**
 * @file
 * Channels: on-chip SLTF links between streaming primitives.
 *
 * A Channel carries Tokens from one producer to one consumer in FIFO
 * order (the vRDA network guarantees exactly-once, in-order delivery).
 * Channels default to unbounded (functional semantics). A capacity is
 * fixed at construction (the Channel constructor or
 * Engine::channel(name, capacity)) to model a finite input buffer.
 * Pushing onto a full bounded channel throws: primitives must guard
 * with canPush(), and a missing guard is a machine-model violation,
 * not silent growth.
 *
 * Channels created through Engine::channel() carry back-references to
 * their producer and consumer Process (filled in when the process is
 * registered) and notify the engine's worklist scheduler on readiness
 * transitions: empty -> non-empty wakes the consumer, full -> non-full
 * wakes the producer. Primitives only ever examine channel heads,
 * emptiness, and free capacity, so these two edges are exactly the
 * events that can turn a blocked process runnable.
 *
 * The FIFO is a singly linked list of fixed 256-byte segments (a next
 * pointer and 31 tokens). push(), pop() and front() are inline cursor
 * moves within the tail and head segments; only crossing a segment
 * boundary, the overflow/underflow throws and the engine notifications
 * leave the header. Segments come from a SegmentPool, a LIFO free list
 * that an Engine shares among all its channels (a channel built outside
 * an engine names the pool it borrows from). The head hands a segment
 * back as soon as it leaves it, and a channel that drains rewinds onto
 * the one segment it still holds, so an engine's segment count is the
 * high-water mark of the segments in use at once across all its
 * channels, not the sum of every channel's own peak.
 *
 * The per-push ValueWatch (the concrete side of the absint soundness
 * oracle) is off unless watchValues(true) turns it on; the token and
 * barrier counts are always kept.
 *
 * A Channel is not synchronised: both endpoints run on the thread that
 * drives its Engine (see the file comment in engine.hh).
 *
 * A Bundle is a set of channels that move one thread's live values
 * together: primitives that reorder threads (merges, filters) operate on
 * whole bundles so live values never separate from their thread.
 */

#ifndef REVET_DATAFLOW_CHANNEL_HH
#define REVET_DATAFLOW_CHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "sltf/token.hh"

namespace revet
{
namespace dataflow
{

using sltf::Token;
using sltf::TokenStream;
using sltf::Word;

class Engine;
class Process;

/** One FIFO storage unit: a next pointer and kTokens token slots. */
struct ChannelSegment
{
    static constexpr size_t kTokens = 31;

    ChannelSegment *next = nullptr;
    // Raw slots: a Token has no default state, so push() constructs
    // each one in place.
    union
    {
        Token tokens[kTokens];
    };

    ChannelSegment() {}
};

static_assert(sizeof(void *) != 8 || sizeof(ChannelSegment) == 256,
              "a channel segment is 256 bytes on 64-bit hosts");

/**
 * LIFO free list of channel segments. Segments are allocated only when
 * the list is empty and freed only when the pool dies, so segments()
 * is the high-water mark of the segments lent out at once. Every
 * segment must be given back before the pool is destroyed.
 */
class SegmentPool
{
  public:
    SegmentPool() = default;
    SegmentPool(const SegmentPool &) = delete;
    SegmentPool &operator=(const SegmentPool &) = delete;
    ~SegmentPool();

    ChannelSegment *take();
    void give(ChannelSegment *seg);

    /** Segments this pool holds, free or lent out. */
    size_t segments() const { return segments_; }

  private:
    ChannelSegment *free_ = nullptr;
    size_t segments_ = 0;
};

/** One on-chip link: a FIFO of SLTF tokens with optional capacity. */
class Channel
{
  public:
    static constexpr size_t unbounded =
        std::numeric_limits<size_t>::max();

    /** A channel drawing its segments from @p pool, which must outlive
     * it (Engine::channel). */
    Channel(std::string name, size_t capacity, SegmentPool &pool)
        : push_limit_(capacity), capacity_(capacity), pool_(&pool),
          name_(std::move(name))
    {}

    ~Channel();
    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    const std::string &name() const { return name_; }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }

    bool canPush() const { return size_ < capacity_; }

    /**
     * Append @p tok. @throws std::runtime_error when the channel is
     * already at capacity — the caller forgot a canPush() guard.
     */
    void
    push(const Token &tok)
    {
        // push_limit_ is 0 while the value watch is on, so the watch
        // rides the overflow check's cold branch.
        if (size_ >= push_limit_)
            pushChecked(tok);
        else
            append(tok);
    }

    /** Push every token of @p stream (unbounded use only). */
    void
    pushAll(const TokenStream &stream)
    {
        for (const Token &tok : stream)
            push(tok);
    }

    /** Head token. Undefined on an empty channel. */
    const Token &front() const { return *head_; }

    /**
     * Remove and return the head token.
     * @throws std::runtime_error on an empty channel.
     */
    Token
    pop()
    {
        if (size_ == 0)
            throwUnderflow();
        const Token tok = *head_++;
        // Drained: head and tail share the last segment; rewind onto it.
        if (--size_ == 0)
            head_ = tail_ = tail_end_ - ChannelSegment::kTokens;
        else if (head_ == head_end_)
            dropHeadSegment();
        if (size_ + 1 == capacity_ && engine_)
            notifySpaceAvailable();
        return tok;
    }

    /** Lifetime token count, for stats and link-bandwidth analysis. */
    uint64_t totalPushed() const { return total_pushed_; }
    /** Lifetime barrier-token count. */
    uint64_t barriersPushed() const { return barriers_pushed_; }

    /** Observed data-word summary over the channel's lifetime: the
     * concrete-execution side of the abstract-interpretation soundness
     * oracle (graph/absint.hh). Recorded only while watchValues() is
     * on; with it on from the first push, dataPushed + barriersPushed
     * equals totalPushed(). Extremes are meaningless until the first
     * data token (dataPushed == 0). */
    struct ValueWatch
    {
        uint64_t dataPushed = 0;
        uint64_t barriersPushed = 0;
        Word first = 0;
        bool allEqual = true;
        int32_t smin = std::numeric_limits<int32_t>::max();
        int32_t smax = std::numeric_limits<int32_t>::min();
        Word umin = std::numeric_limits<Word>::max();
        Word umax = 0;
    };

    /** Turn the ValueWatch on or off for subsequent pushes (off at
     * construction; resetForReuse keeps the setting). */
    void
    watchValues(bool on)
    {
        watching_ = on;
        push_limit_ = on ? 0 : capacity_;
    }

    const ValueWatch &watch() const { return watch_; }

    /** Return the channel to its just-constructed state — FIFO, the
     * lifetime counts, and the value watch all cleared; one segment
     * kept — so an execution context can serve a fresh request over
     * the same wiring (graph::ExecutionContext). */
    void resetForReuse();

    /** The process that pushes into this channel (may be null). */
    Process *producer() const { return producer_; }
    /** The process that pops from this channel (may be null). */
    Process *consumer() const { return consumer_; }

    /** Scheduler wiring — called by Engine at registration time. */
    void bindEngine(Engine *engine) { engine_ = engine; }
    void setProducer(Process *p) { producer_ = p; }
    void setConsumer(Process *p) { consumer_ = p; }

  private:
    void
    append(const Token &tok)
    {
        if (tail_ == tail_end_)
            growTail();
        ::new (static_cast<void *>(tail_++)) Token(tok);
        ++total_pushed_;
        barriers_pushed_ += tok.isBarrier();
        if (size_++ == 0 && engine_)
            notifyTokenAvailable();
    }

    // Cold paths, out of line in channel.cc.
    void pushChecked(const Token &tok);
    [[noreturn]] void throwUnderflow() const;
    void growTail();
    void dropHeadSegment();
    void notifyTokenAvailable();
    void notifySpaceAvailable();

    Token *head_ = nullptr;     ///< next token to pop
    Token *head_end_ = nullptr; ///< end of the head segment's slots
    Token *tail_ = nullptr;     ///< next free slot
    Token *tail_end_ = nullptr; ///< end of the tail segment's slots
    size_t size_ = 0;
    /** capacity_, or 0 while the value watch is on. */
    size_t push_limit_;
    size_t capacity_;
    uint64_t total_pushed_ = 0;
    uint64_t barriers_pushed_ = 0;
    Engine *engine_ = nullptr;
    ChannelSegment *head_seg_ = nullptr;
    ChannelSegment *tail_seg_ = nullptr;
    SegmentPool *pool_;
    Process *producer_ = nullptr;
    Process *consumer_ = nullptr;
    bool watching_ = false;
    ValueWatch watch_;
    std::string name_;
};

/** A group of channels carrying one thread's live values in lockstep. */
using Bundle = std::vector<Channel *>;

/** True when every channel of @p bundle has a token available. */
bool allHaveToken(const Bundle &bundle);

/** True when every channel of @p bundle can accept a token. */
bool allCanPush(const Bundle &bundle);

/**
 * Classify the aligned heads of @p bundle: returns the barrier level if
 * every head is a barrier (asserting they agree), 0 if every head is
 * data.
 *
 * @throws std::runtime_error if heads are misaligned (mix of data and
 * barriers, or differing barrier levels) — a machine-model invariant
 * violation.
 */
int bundleHeadKind(const Bundle &bundle);

/** Push the same barrier onto every channel of @p bundle. */
void pushBarrier(const Bundle &bundle, int level);

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_CHANNEL_HH
