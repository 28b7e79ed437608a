/**
 * @file
 * Channels: on-chip SLTF links between streaming primitives.
 *
 * A Channel carries Tokens from one producer to one consumer in FIFO
 * order (the vRDA network guarantees exactly-once, in-order delivery).
 * Channels default to unbounded (functional semantics); the cycle
 * simulator bounds them to model finite input buffers. Pushing onto a
 * full bounded channel throws: primitives must guard with canPush(),
 * and a missing guard is a machine-model violation, not silent growth.
 *
 * Channels created through Engine::channel() carry back-references to
 * their producer and consumer Process (filled in when the process is
 * registered) and notify the engine's worklist scheduler on readiness
 * transitions: empty -> non-empty wakes the consumer, full -> non-full
 * wakes the producer. Primitives only ever examine channel heads,
 * emptiness, and free capacity, so these two edges are exactly the
 * events that can turn a blocked process runnable.
 *
 * A Channel is not synchronised: both endpoints run on the thread that
 * drives its Engine (see the file comment in engine.hh). The FIFO is a
 * std::deque rather than a ring buffer because the functional semantics
 * need unbounded channels.
 *
 * A Bundle is a set of channels that move one thread's live values
 * together: primitives that reorder threads (merges, filters) operate on
 * whole bundles so live values never separate from their thread.
 */

#ifndef REVET_DATAFLOW_CHANNEL_HH
#define REVET_DATAFLOW_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <limits>
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

/** One on-chip link: a FIFO of SLTF tokens with optional capacity. */
class Channel
{
  public:
    static constexpr size_t unbounded =
        std::numeric_limits<size_t>::max();

    explicit Channel(std::string name = "", size_t capacity = unbounded)
        : name_(std::move(name)), capacity_(capacity)
    {}

    const std::string &name() const { return name_; }

    bool empty() const { return fifo_.empty(); }
    size_t size() const { return fifo_.size(); }
    size_t capacity() const { return capacity_; }
    void setCapacity(size_t capacity) { capacity_ = capacity; }

    bool canPush() const { return fifo_.size() < capacity_; }

    /**
     * Append @p tok. @throws std::runtime_error when the channel is
     * already at capacity — the caller forgot a canPush() guard.
     */
    void push(const Token &tok);

    /** Push every token of @p stream (unbounded use only). */
    void
    pushAll(const TokenStream &stream)
    {
        for (const Token &tok : stream)
            push(tok);
    }

    /** Head token. Undefined on an empty channel. */
    const Token &front() const { return fifo_.front(); }

    /**
     * Remove and return the head token.
     * @throws std::runtime_error on an empty channel.
     */
    Token pop();

    /** Lifetime token count, for stats and link-bandwidth analysis. */
    uint64_t totalPushed() const { return total_pushed_; }

    /** Observed data-word summary over the channel's lifetime: the
     * concrete-execution side of the abstract-interpretation soundness
     * oracle (graph/absint.hh). Extremes are meaningless until the
     * first data token (dataPushed() == 0). */
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

    const ValueWatch &watch() const { return watch_; }

    /** Drain the remaining contents into a TokenStream (post-run). */
    TokenStream drain();

    /** Return the channel to its just-constructed state — FIFO, the
     * lifetime token count, and the value watch all cleared — so an
     * execution context can serve a fresh request over the same wiring
     * (graph::ExecutionContext). */
    void
    resetForReuse()
    {
        fifo_.clear();
        total_pushed_ = 0;
        watch_ = ValueWatch{};
    }

    /** The process that pushes into this channel (may be null). */
    Process *producer() const { return producer_; }
    /** The process that pops from this channel (may be null). */
    Process *consumer() const { return consumer_; }

    /** Scheduler wiring — called by Engine at registration time. */
    void bindEngine(Engine *engine) { engine_ = engine; }
    void setProducer(Process *p) { producer_ = p; }
    void setConsumer(Process *p) { consumer_ = p; }

  private:
    std::string name_;
    size_t capacity_;
    std::deque<Token> fifo_;
    uint64_t total_pushed_ = 0;
    ValueWatch watch_;
    Engine *engine_ = nullptr;
    Process *producer_ = nullptr;
    Process *consumer_ = nullptr;
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
