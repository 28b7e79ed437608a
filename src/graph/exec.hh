/**
 * @file
 * What one dataflow execution reports.
 *
 * ExecStats is the result of graph::execute and
 * graph::ExecutionContext::run (graph/bytecode.hh): scheduler counters,
 * memory traffic, park-slot occupancy, per-link traffic and channel
 * memory. Tests hold a run's DRAM output bit-identical to the AST
 * interpreter's; the per-link token counts feed the link-bandwidth
 * analysis and the cycle model.
 */

#ifndef REVET_GRAPH_EXEC_HH
#define REVET_GRAPH_EXEC_HH

#include <cstdint>
#include <vector>

namespace revet
{
namespace graph
{

struct ExecStats
{
    /** Working scheduler rounds (dataflow::Engine ready-deque
     * generations that moved at least one token; the final
     * certification pass is excluded). */
    uint64_t engineRounds = 0;
    /** Scheduler observability (see dataflow::SchedStats). */
    uint64_t schedWakeups = 0;
    uint64_t schedSteps = 0;
    uint64_t schedIdleSteps = 0;
    uint64_t schedStepsSkipped = 0;
    uint64_t schedVerifyPasses = 0;
    /** stepOnce() quanta that made progress. Fixed for a given graph
     * and input under any schedule (tests/graph/test_bytecode.cc pins
     * it per app, under the engine and under shuffled schedules), so
     * bench/exec_dispatch.cc reports dispatch cost per quantum. */
    uint64_t schedQuanta = 0;
    uint64_t dramReadElems = 0;
    uint64_t dramWriteElems = 0;
    uint64_t dramReadBytes = 0;
    uint64_t dramWriteBytes = 0;
    uint64_t sramAccesses = 0;
    uint64_t sramAllocs = 0;
    /** sramAllocs satisfied from a reused execution context's SRAM
     * arena (no host allocation: a previous request on the same
     * context grew the slot). Always 0 on a context's first run, so
     * on every one-shot graph::execute. */
    uint64_t sramArenaReused = 0;
    /** Elements that round-tripped through a replicate park/restore
     * pair (each element costs one SRAM write and one read, also
     * counted in sramAccesses). */
    uint64_t sramParkedElems = 0;
    /** High-water mark of simultaneously occupied park slots across
     * every park/restore pair: how big the park buffers actually had
     * to be. Ordinal-keyed parks of threads that die inside a region
     * (exit/return) are never restored; their slots are reclaimed when
     * the key stream closes the batch they entered in, so dead threads
     * can raise the peak only within their own batch. */
    uint64_t sramParkedPeak = 0;
    /** Park slots still occupied when the network drained. The keyed
     * restore's batch-close reclamation frees dead threads' slots, so
     * this is 0 for every well-formed program (the regression suite
     * pins it); nonzero means a park/restore pair leaked. */
    uint64_t sramParkedEnd = 0;
    /** Size of the executed graph (reports the optimizer's win when
     * compared against an unoptimized compile of the same program). */
    uint64_t graphNodes = 0;
    uint64_t graphLinks = 0;
    bool drained = false;
    /** Tokens that crossed each link (indexed by link id; data and
     * barriers both count — this is link traffic volume). */
    std::vector<uint64_t> linkTokens;
    /** Barrier tokens per link. Per-link value watermarks
     * (dataflow::Channel::ValueWatch) are not reported here: a run
     * leaves them off, and only the test harness that checks them
     * against the abstract interpreter turns them on
     * (tests/dataflow/shuffled_schedule.hh). */
    std::vector<uint64_t> linkBarriers;
    /** Channel segments (dataflow::SegmentPool) the context's engine
     * holds after the run: the high-water mark of the segments its
     * channels had in use at once, over every run the context served.
     * Each segment is 256 bytes. */
    uint64_t channelSegments = 0;
};

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_EXEC_HH
