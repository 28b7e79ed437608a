/**
 * @file
 * Machine state shared by the processes of one bytecode run.
 *
 * Every bytecode instruction of a run reads and writes one
 * MachineMemory: the DRAM image, the SRAM heap, park-slot accounting,
 * the stats block and main's arguments. It is internal to src/graph
 * and not part of the public executor API; graph::instantiate() takes
 * one so tests can run single instructions on hand-built streams.
 */

#ifndef REVET_GRAPH_EXEC_DETAIL_HH
#define REVET_GRAPH_EXEC_DETAIL_HH

#include <stdexcept>
#include <vector>

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
 * Shared by every process of one engine, which runs them all on one
 * thread, so access needs no synchronisation.
 *
 * The DRAM image, stats block and arguments are *per-request* state
 * referenced through rebindable pointers: an execution context
 * (graph::ExecutionContext) keeps one MachineMemory for its lifetime
 * and points it at each request's image/stats/args via rebind() +
 * beginRun(). */
struct MachineMemory
{
    lang::DramImage *dram = nullptr;
    std::vector<std::vector<uint32_t>> heap;
    ExecStats *stats = nullptr;
    /** main's arguments; a source instruction emits its slot. */
    const std::vector<int32_t> *args = nullptr;
    /** Park slots currently occupied across all park/restore pairs;
     * the high-water mark lands in ExecStats::sramParkedPeak and the
     * post-run residue in ExecStats::sramParkedEnd. */
    uint64_t parkedNow = 0;
    /** SRAM handles live this run; handles are assigned densely from 0
     * each run, so this (not heap.size()) is the dangling bound: the
     * heap is an arena that outlives the request, and alloc()
     * re-zeroes and reuses the buffer a previous request left in a
     * slot instead of growing it. */
    uint32_t liveAllocs = 0;

    /** Point this memory at the next request's image/stats/args.
     * Setup-only (no run in flight). */
    void
    rebind(lang::DramImage &dram_ref, ExecStats &stats_ref,
           const std::vector<int32_t> &args_ref)
    {
        dram = &dram_ref;
        stats = &stats_ref;
        args = &args_ref;
    }

    /** Reset per-run state; call before every run. The arena stays. */
    void
    beginRun()
    {
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

} // namespace detail
} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_EXEC_DETAIL_HH
