/**
 * @file
 * Batch serving harness over the compile-once/run-many split.
 *
 * One immutable CompiledArtifact (revet.hh) is shared by every worker;
 * each serving worker instantiates one graph::ExecutionContext on its
 * first request and resets and reuses it for the rest of the batch
 * instead of rebuilding it — the engine, channels, per-instruction
 * state and the SRAM arena survive from request to request. A request
 * that throws mid-run poisons its context; the worker drops it and
 * builds a fresh one for its next request. serveBatch() drives M
 * requests through W worker threads and reports per-request latency
 * split into queue wait and execution time plus batch-level
 * percentiles, so bench/serve_throughput.cc can hold the serving path
 * to within 1.25x of a bare ExecutionContext::run.
 *
 * Each request runs on one serving worker thread, on that context's
 * single-threaded engine; concurrency exists only across requests,
 * never inside one.
 *
 * Correctness contract: serving is bit-identical to the one-shot path.
 * Every request's final DRAM image, link token counts, and link
 * barrier counts match a graph::execute of the same (source, args)
 * under any schedule and any worker count — Kahn-network
 * determinism end to end. tests/core/test_serve.cc enforces this
 * against a serial one-shot run on a fresh context.
 */

#ifndef REVET_CORE_SERVE_HH
#define REVET_CORE_SERVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/revet.hh"

namespace revet
{
namespace serve
{

/** Batch serving knobs. */
struct ServeOptions
{
    /** Serving worker threads (clamped to [1, batch size]); each
     * holds at most one execution context at a time. */
    int workers = 4;
    /** Keep each request's final DRAM image in its result (the
     * correctness suite reads them back; throughput benches turn this
     * off to keep memory flat). */
    bool keepDram = true;
};

/** One request: main() arguments plus a hook that fills the request's
 * DRAM image (inputs) before execution. */
struct Request
{
    std::vector<int32_t> args;
    /** Called on the freshly constructed image before the run; may be
     * null for programs without DRAM inputs. Must be thread-compatible:
     * it runs on a serving worker, concurrently with other requests'
     * prepare hooks. */
    std::function<void(lang::DramImage &)> prepare;
};

/** Per-request outcome and latency accounting. */
struct RequestResult
{
    bool ok = false;
    std::string error; ///< what() of a failed request (ok == false)
    graph::ExecStats stats;
    double queueMs = 0; ///< batch submit -> worker pickup
    double execMs = 0;  ///< pickup -> completion (image + run)
    int worker = -1;    ///< serving worker index that ran it
    /** Final DRAM image (ServeOptions::keepDram; absent on failure). */
    std::optional<lang::DramImage> dram;
};

/** Execution-context accounting of one batch, summed over workers. */
struct ContextStats
{
    uint64_t created = 0;   ///< contexts built
    uint64_t reused = 0;    ///< requests run on an already-built context
    uint64_t discarded = 0; ///< poisoned contexts dropped after a throw
};

/** Whole-batch outcome. Latency percentiles are over queueMs + execMs
 * of every request, failed ones included (a throwing request still
 * occupied its worker). */
struct BatchReport
{
    std::vector<RequestResult> results; ///< in request order
    size_t succeeded = 0;
    size_t failed = 0;
    double wallMs = 0;
    double reqPerSec = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    ContextStats pool;
};

/**
 * Serve @p requests over @p artifact with ServeOptions::workers
 * threads. All requests are considered submitted at call time (queueMs
 * measures head-of-line wait under the worker limit). Request failures are
 * reported per-result, never thrown: one poisoned request must not
 * take down the batch.
 */
BatchReport serveBatch(std::shared_ptr<const CompiledArtifact> artifact,
                       const std::vector<Request> &requests,
                       const ServeOptions &opts = {});

} // namespace serve
} // namespace revet

#endif // REVET_CORE_SERVE_HH
