/**
 * @file
 * Shared machine-state plumbing for the two dataflow executors.
 *
 * The step-object executor (exec.cc) and the bytecode executor
 * (bytecode.cc) are two independent implementations of the same
 * abstract machine — the differential test suite holds them DRAM- and
 * link-traffic-bit-identical — but the *memory* side of that machine
 * (DRAM image, SRAM heap, park-slot accounting, stats) must be one
 * definition: a drift in, say, rmw normalization would be a semantic
 * fork, not an executor variant. This header is that single
 * definition; it is internal to src/graph and not part of the public
 * executor API.
 */

#ifndef REVET_GRAPH_EXEC_DETAIL_HH
#define REVET_GRAPH_EXEC_DETAIL_HH

#include <stdexcept>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/dfg.hh"
#include "graph/exec.hh"
#include "lang/dram_image.hh"

namespace revet
{
namespace graph
{
namespace detail
{

/** Shared mutable memory state: DRAM image + dynamically allocated SRAM
 * buffers (the MU allocator pool, unbounded in functional mode).
 * Shared by every block process of one engine, which runs them all on
 * one thread, so access needs no synchronisation.
 *
 * The DRAM image and stats block are *per-request* state referenced
 * through rebindable pointers: a reusable execution context
 * (graph::ExecutionContext) keeps one MachineMemory for its lifetime
 * and points it at each request's image/stats via rebind() +
 * beginRun(). One-shot executors bind at construction and never
 * rebind. */
struct MachineMemory
{
    MachineMemory() = default;

    MachineMemory(lang::DramImage &dram_ref, ExecStats &stats_ref)
        : dram(&dram_ref), stats(&stats_ref)
    {}

    lang::DramImage *dram = nullptr;
    std::vector<std::vector<uint32_t>> heap;
    ExecStats *stats = nullptr;
    /** Park slots currently occupied across all park/restore pairs;
     * the high-water mark lands in ExecStats::sramParkedPeak and the
     * post-run residue in ExecStats::sramParkedEnd. */
    uint64_t parkedNow = 0;
    /** SRAM handles live this run; handles are assigned densely from 0
     * each run, so this (not heap.size()) is the dangling bound when
     * the arena below outlives a request. */
    uint32_t liveAllocs = 0;
    /** Keep the allocator arena across runs (GraphToggles::
     * hoistAllocators landing in the executor): alloc() re-zeroes and
     * reuses the buffer a previous request left in the slot instead of
     * growing the heap. Off: beginRun() drops the arena, every run
     * allocates from scratch. */
    bool hoistArena = false;

    /** Point this memory at the next request's image/stats and clear
     * all per-run state. Setup-only (no run in flight). */
    void
    rebind(lang::DramImage &dram_ref, ExecStats &stats_ref)
    {
        dram = &dram_ref;
        stats = &stats_ref;
    }

    /** Reset per-run state; call before every run (the one-shot
     * executors rely on the constructor state instead). */
    void
    beginRun()
    {
        if (!hoistArena)
            heap.clear();
        liveAllocs = 0;
        parkedNow = 0;
    }

    uint32_t
    alloc(int64_t size)
    {
        if (liveAllocs < heap.size()) {
            heap[liveAllocs].assign(static_cast<size_t>(size), 0u);
            ++stats->sramArenaReused;
        } else {
            heap.emplace_back(static_cast<size_t>(size), 0u);
        }
        ++stats->sramAllocs;
        return liveAllocs++;
    }

    void
    parkSlot()
    {
        ++parkedNow;
        if (parkedNow > stats->sramParkedPeak)
            stats->sramParkedPeak = parkedNow;
    }

    void
    releaseSlot()
    {
        --parkedNow;
    }

    std::vector<uint32_t> *
    buffer(uint32_t handle)
    {
        if (handle >= liveAllocs)
            throw std::runtime_error("dangling SRAM handle in dataflow");
        return &heap[handle];
    }
};

/**
 * Evaluate one block op over @p regs. Pure ALU ops go through
 * graph::evalPureOp; memory ops (SRAM heap, DRAM image, rmw) update
 * @p mem and its stats. Defined in exec.cc; the
 * bytecode interpreter dispatches its flattened op table through the
 * same function so the two executors cannot drift on memory-op
 * semantics.
 */
Word evalOp(const BlockOp &op, std::vector<Word> &regs,
            MachineMemory &mem);

/**
 * Post-run bookkeeping shared by both executors: copy the engine's
 * scheduler counters into @p stats, throw the stall report if the
 * network failed to drain, and harvest per-link traffic/value watches
 * (the engine's first @p num_links channels are the graph links, in
 * link-id order). Defined in exec.cc.
 */
void collectRunStats(dataflow::Engine &engine, size_t num_links,
                     ExecStats &stats);

} // namespace detail
} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_EXEC_DETAIL_HH
