/**
 * @file
 * Functional execution engine for streaming-primitive graphs.
 *
 * The Engine owns channels and processes and runs them to quiescence —
 * the fixed point where no primitive can make progress. With unbounded
 * channels this computes the denotational (Kahn-network) semantics of
 * the graph; the result is independent of scheduling order because
 * every primitive is a deterministic stream transformer.
 *
 * The one scheduler is readiness-driven: channels notify the engine on
 * empty->non-empty (wakes the consumer) and full->non-full (wakes the
 * producer) transitions, and only primitives on the ready deque are
 * stepped; an in-queue bitmap deduplicates wakeups. Primitives only
 * examine channel heads, emptiness, and free capacity, so these
 * transitions cover every way a blocked primitive can become runnable.
 * Quiescence is still *certified* by a full verification rescan once
 * the deque empties — a missed wakeup can therefore cost time (counted
 * in SchedStats::missedWakeups, asserted zero in tests) but never
 * change the computed fixed point.
 *
 * Schedule independence is checked in the tests, not by a second
 * scheduler here: tests/dataflow/shuffled_schedule.hh drives the same
 * processes under seeded random orders and bursts, and every app and
 * language fixture must reproduce the interpreter's DRAM and the
 * pinned link traffic under each of them (translation validation in
 * the WaveCert spirit).
 *
 * An Engine is single-threaded: one run() executes every process on the
 * calling thread, and nothing in the engine, its channels or its
 * processes is synchronised. Concurrency lives one level up, across
 * requests: serve::serveBatch runs independent execution contexts, each
 * owning its own engine, on separate worker threads.
 */

#ifndef REVET_DATAFLOW_ENGINE_HH
#define REVET_DATAFLOW_ENGINE_HH

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataflow/channel.hh"

namespace revet
{
namespace dataflow
{

/**
 * Base class for everything an Engine schedules: one streaming
 * primitive (in practice, one bytecode instruction — graph/bytecode.hh)
 * consuming and producing explicit-barrier SLTF streams over Channels.
 *
 * stepOnce() performs a bounded quantum of work and never consumes an
 * input token unless the resulting outputs can be pushed, so the same
 * process runs over unbounded and bounded channels alike.
 *
 * Every process declares its input and output channels (declareIo) at
 * construction. The Engine uses the declaration to wire channel
 * back-references for the worklist scheduler, and the base class uses
 * it for generic stall diagnostics: a blocked process can say which
 * inputs it is starved on and which outputs are full.
 *
 * The Engine runs every process of a graph on one thread, so neither
 * process state nor channel access needs synchronisation: within one
 * stepOnce() a channel changes only through the process's own pushes
 * and pops. A token that arrives after a process blocked is next
 * step's work: its push notification re-queues the consumer.
 */
class Process
{
  public:
    explicit Process(std::string name) : name_(std::move(name)) {}
    virtual ~Process() = default;

    /**
     * Perform one quantum of work.
     * @return true if any token moved (progress was made).
     */
    virtual bool stepOnce() = 0;

    /** Return every per-run member to its just-constructed state, so
     * the same wiring can serve a fresh run (Engine::reset). */
    virtual void reset() = 0;

    /**
     * Run up to @p burst quanta; returns the number completed. A return
     * value less than @p burst means the process blocked (its next
     * stepOnce() would make no progress until a channel event wakes it).
     */
    int
    runQuanta(int burst)
    {
        int done = 0;
        try {
            while (done < burst && stepOnce())
                ++done;
        } catch (const std::runtime_error &err) {
            throw std::runtime_error("[" + name_ + "] " + err.what());
        }
        return done;
    }

    const std::string &name() const { return name_; }

    /** Channels this process pops from, as declared at construction. */
    const std::vector<Channel *> &inputs() const { return io_ins_; }
    /** Channels this process pushes to, as declared at construction. */
    const std::vector<Channel *> &outputs() const { return io_outs_; }

    /**
     * True when this process is quiescent by design: nothing pending
     * on its inputs and no buffered internal state. A non-idle process
     * that cannot step is stalled and shows up in Engine::stallReport().
     * The default checks declared inputs only; processes with internal
     * state override.
     */
    virtual bool idle() const;

    /**
     * One-line diagnosis of why this process cannot currently step.
     * The default derives it from the declared channels (starved inputs,
     * full outputs); stateful processes append their mode.
     */
    virtual std::string stallReason() const;

  protected:
    /** Record the channel sets this process reads and writes. */
    void
    declareIo(std::vector<Channel *> ins, std::vector<Channel *> outs)
    {
        io_ins_ = std::move(ins);
        io_outs_ = std::move(outs);
    }

    /** Channel-derived stall description, for overrides to extend. */
    std::string ioStallDetail() const;

  private:
    friend class Engine;

    std::string name_;
    std::vector<Channel *> io_ins_;
    std::vector<Channel *> io_outs_;
    /** Index into the owning engine's worklist in-queue bitmap. */
    size_t sched_id_ = static_cast<size_t>(-1);
};

/** Observability counters for one Engine::run invocation. */
struct SchedStats
{
    /** Scheduler rounds: ready-deque generations that moved at least
     * one token. */
    uint64_t rounds = 0;
    /** Process step() invocations. */
    uint64_t steps = 0;
    /** step() invocations that moved nothing (wasted scans). */
    uint64_t idleSteps = 0;
    /** Total stepOnce() quanta that made progress. */
    uint64_t quanta = 0;
    /** Ready-deque insertions triggered by channel transitions
     * (full-burst self-requeues are not counted). */
    uint64_t wakeups = 0;
    /** Full verification rescans used to certify quiescence. */
    uint64_t verifyPasses = 0;
    /** Verification rescans that found progress: a notification gap,
     * always 0 unless a channel bypasses the engine's wiring. The
     * rescan certifies the fixed point either way. */
    uint64_t missedWakeups = 0;
    /** rounds x processes (the step() calls a scheduler that scans
     * every process each round would make) minus the calls actually
     * made: the idle scans the ready deque avoided. */
    uint64_t stepsSkipped = 0;
};

class Engine
{
  public:
    /** Default safety cap on working rounds, shared by every caller
     * (graph::execute, graph::ExecutionContext::run) so all entry
     * points diagnose livelock at the same threshold. */
    static constexpr uint64_t defaultMaxRounds = 1u << 26;

    Engine() = default;

    // Channels hold a back-pointer to their engine; moving would
    // dangle it.
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Create a channel owned by this engine, drawing its segments
     * from the engine's pool. */
    Channel *
    channel(std::string name = "", size_t capacity = Channel::unbounded)
    {
        channels_.push_back(
            std::make_unique<Channel>(std::move(name), capacity, pool_));
        channels_.back()->bindEngine(this);
        return channels_.back().get();
    }

    /** Construct and register a process. */
    template <typename P, typename... Args>
    P *
    make(Args &&...args)
    {
        auto proc = std::make_unique<P>(std::forward<Args>(args)...);
        P *raw = proc.get();
        procs_.push_back(std::move(proc));
        registerProcess(raw);
        return raw;
    }

    /**
     * Run to quiescence.
     *
     * @param max_rounds safety cap on *working* scheduler rounds (rounds
     *        that still move tokens). Exceeding it throws: the network
     *        is either genuinely livelocked (see the stall reasons in
     *        the message) or max_rounds is undersized for the workload.
     *        The final no-progress certification pass is not counted.
     * @return number of working rounds taken.
     */
    uint64_t run(uint64_t max_rounds = defaultMaxRounds);

    /** Return every channel and process to its just-constructed
     * state (FIFOs and lifetime counts cleared, per-run process state
     * re-armed), so the same wiring serves a fresh run. Setup-only: no
     * run in flight. */
    void reset();

    /** Counters from the most recent run(). */
    const SchedStats &schedStats() const { return sched_; }

    /**
     * Stalled channels *and* blocked processes (livelock diagnostics).
     * A process is reported when it is non-idle — pending input tokens
     * or buffered internal state — with a one-line reason, so internal
     * blockage (e.g. a merge waiting on a bundle peer) is visible even
     * when every channel is empty.
     */
    std::string stallReport() const;

    /** True if no non-sink channel holds tokens. */
    bool drained() const;

    const std::vector<std::unique_ptr<Channel>> &
    channels() const
    {
        return channels_;
    }

    /** The segment pool every channel of this engine shares. */
    const SegmentPool &segmentPool() const { return pool_; }

    /** Channel notification: @p ch went empty -> non-empty. */
    void
    onTokenAvailable(Channel *ch)
    {
        if (enqueue(ch->consumer()))
            ++sched_.wakeups;
    }

    /** Channel notification: @p ch went full -> non-full. */
    void
    onSpaceAvailable(Channel *ch)
    {
        if (enqueue(ch->producer()))
            ++sched_.wakeups;
    }

  private:
    void registerProcess(Process *proc);
    /** Put @p proc on the ready deque unless it is already queued (or
     * no run is active). Returns true if it was inserted;
     * only channel-event insertions count as SchedStats::wakeups. */
    bool enqueue(Process *proc);
    [[noreturn]] void throwLivelock(uint64_t max_rounds) const;

    /** Work quanta a process may run per scheduling decision. */
    static constexpr int kBurst = 4096;

    // Declared before the channels, which hand their segments back to
    // it when they are destroyed.
    SegmentPool pool_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<Process>> procs_;

    // Scheduler state (valid while run() is active).
    std::deque<Process *> ready_;
    std::vector<bool> in_queue_;
    bool scheduling_ = false;
    SchedStats sched_;
};

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_ENGINE_HH
