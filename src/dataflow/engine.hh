/**
 * @file
 * Functional execution engine for streaming-primitive graphs.
 *
 * The Engine owns channels and processes and runs them to quiescence —
 * the fixed point where no primitive can make progress. With unbounded
 * channels this computes the denotational (Kahn-network) semantics of
 * the graph; the result is independent of scheduling order because
 * every primitive is a deterministic stream transformer. That freedom
 * is what allows two interchangeable scheduling policies:
 *
 *  - Policy::roundRobin — the original model: every round scans every
 *    primitive, stopping at the first full no-progress pass. Simple,
 *    but O(processes) per round even when one pipeline stage is active.
 *
 *  - Policy::worklist (default) — readiness-driven: channels notify the
 *    engine on empty->non-empty (wakes the consumer) and full->non-full
 *    (wakes the producer) transitions, and only primitives on the ready
 *    deque are stepped; an in-queue bitmap deduplicates wakeups.
 *    Primitives only examine channel heads, emptiness, and free
 *    capacity, so these transitions cover every way a blocked primitive
 *    can become runnable. Quiescence is still *certified* by a full
 *    verification rescan once the deque empties — a missed wakeup can
 *    therefore cost time (counted in SchedStats::missedWakeups, asserted
 *    zero in tests) but never change the computed fixed point.
 *
 * Both policies produce bit-identical channel traffic and DRAM effects;
 * tests/dataflow/test_scheduler.cc certifies this against the AST
 * interpreter on every app fixture (translation validation in the
 * WaveCert spirit).
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
#include <string>
#include <vector>

#include "dataflow/channel.hh"
#include "dataflow/primitives.hh"

namespace revet
{
namespace dataflow
{

/** Observability counters for one Engine::run invocation. */
struct SchedStats
{
    /** Scheduler rounds: full passes (roundRobin) or ready-deque
     * generations (worklist) that moved at least one token. */
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
    /** step() calls the round-robin model would have made for the same
     * number of rounds minus the calls actually made (worklist only). */
    uint64_t stepsSkipped = 0;
};

class Engine
{
  public:
    /** Scheduling policy for run(); see the file comment. */
    enum class Policy { roundRobin, worklist };

    /** Default safety cap on working rounds, shared by every caller
     * (graph::execute, CompiledProgram::execute) so all entry points
     * diagnose livelock at the same threshold. */
    static constexpr uint64_t defaultMaxRounds = 1u << 26;

    explicit Engine(Policy policy = Policy::worklist) : policy_(policy) {}

    // Channels hold a back-pointer to their engine; moving would
    // dangle it.
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    Policy policy() const { return policy_; }
    void setPolicy(Policy policy) { policy_ = policy; }

    /** Work quanta a primitive may run per scheduling decision. */
    void setBurst(int burst) { burst_ = burst < 1 ? 1 : burst; }

    /** Create a channel owned by this engine. */
    Channel *
    channel(std::string name = "", size_t capacity = Channel::unbounded)
    {
        channels_.push_back(
            std::make_unique<Channel>(std::move(name), capacity));
        channels_.back()->bindEngine(this);
        return channels_.back().get();
    }

    /** Construct and register a primitive. */
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
     * Run to quiescence under the current policy.
     *
     * @param max_rounds safety cap on *working* scheduler rounds (rounds
     *        that still move tokens). Exceeding it throws: the network
     *        is either genuinely livelocked (see the stall reasons in
     *        the message) or max_rounds is undersized for the workload.
     *        The final no-progress certification pass is not counted.
     * @return number of working rounds taken.
     */
    uint64_t run(uint64_t max_rounds = defaultMaxRounds);

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
     * no worklist run is active). Returns true if it was inserted;
     * only channel-event insertions count as SchedStats::wakeups. */
    bool enqueue(Process *proc);
    uint64_t runRoundRobin(uint64_t max_rounds);
    uint64_t runWorklist(uint64_t max_rounds);
    [[noreturn]] void throwLivelock(uint64_t max_rounds) const;

    Policy policy_;
    int burst_ = 4096;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<Process>> procs_;

    // Worklist scheduler state (valid while runWorklist is active).
    std::deque<Process *> ready_;
    std::vector<bool> in_queue_;
    bool scheduling_ = false;
    SchedStats sched_;
};

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_ENGINE_HH
