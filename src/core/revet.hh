/**
 * @file
 * Public entry point for the Revet compiler and runtimes.
 *
 * The compile-once/run-many split (serving layer):
 *
 *  - CompiledArtifact — everything one compilation produces, immutable
 *    and shareable across threads: both HIRs, the optimized DFG, the
 *    flat bytecode, and the optimizer/resource/analysis reports. Built
 *    directly (build()) or through the process-wide ArtifactCache,
 *    which keys artifacts by (source text, canonical CompileOptions
 *    serialization).
 *
 *  - graph::ExecutionContext — the mutable half (channel FIFOs,
 *    per-instruction state, SRAM arena), instantiated from an artifact
 *    via makeContext() and reset-and-reused between requests.
 *    core/serve.hh gives each serving worker one context over a shared
 *    artifact for concurrent batch serving.
 *
 * One compile path (CompiledArtifact::build, or ArtifactCache::get for
 * the keyed one) and one run path (ExecutionContext::run, or the
 * one-shot graph::execute over a fresh context).
 *
 * Typical single-user flow:
 * @code
 *   auto art = revet::CompiledArtifact::build(source);
 *   revet::lang::DramImage dram(art->hir());
 *   dram.fill("input", data);
 *   revet::graph::execute(art->bytecode(), dram, {n}); // compiled dataflow
 *   auto out = dram.read<int32_t>("out");
 * @endcode
 *
 * Serving flow:
 * @code
 *   auto art = revet::ArtifactCache::global().get(source);
 *   auto ctx = art->makeContext();
 *   for (auto &req : requests) {
 *       revet::lang::DramImage dram(art->hir());
 *       ctx->run(dram, req.args);       // reset-and-reuse, no rebuild
 *   }
 * @endcode
 */

#ifndef REVET_CORE_REVET_HH
#define REVET_CORE_REVET_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/analyze.hh"
#include "graph/bytecode.hh"
#include "graph/dfg.hh"
#include "graph/exec.hh"
#include "graph/lower.hh"
#include "graph/optimize.hh"
#include "graph/options.hh"
#include "graph/resources.hh"
#include "interp/interp.hh"
#include "lang/ast.hh"
#include "lang/dram_image.hh"
#include "passes/passes.hh"

namespace revet
{

/** All compilation knobs in one place (used by the Fig. 12 ablation). */
struct CompileOptions
{
    passes::PassOptions passes;      ///< HIR pass pipeline
    graph::GraphPassOptions graphOpt; ///< DFG optimizer (Fig. 8 right half)
    /** Graph-level resource toggles — the single canonical copy,
     * plumbed into graph::ResourceOptions by build() and the
     * evaluation harness. Resource-model only: they never reach the
     * executor. */
    graph::GraphToggles graph;
};

/**
 * Canonical serialization of @p opts: every knob of every sub-struct,
 * rendered in one fixed order (doubles in hexfloat, so the round trip
 * is exact). Two CompileOptions values serialize equally iff they
 * compile identically, which is what makes the string usable as the
 * options half of an artifact cache key — and keeps it honest: a new
 * knob that is not added here silently aliases cache entries, so the
 * cache test pins the serialization against independent option edits.
 */
std::string canonicalOptions(const CompileOptions &opts);

/**
 * One compilation, frozen: the immutable half of the serving split.
 *
 * Every member is written once by build() and never mutated after, so
 * a single artifact may back any number of concurrent execution
 * contexts without synchronization. Always handled through
 * shared_ptr<const CompiledArtifact> (build() returns one): contexts
 * and caches share ownership, and an artifact evicted from the cache
 * stays alive for the requests still running on it.
 */
class CompiledArtifact
{
  public:
    /**
     * Parse, analyze, run the pass pipeline, lower to dataflow,
     * optimize, flatten to bytecode, and run the resource/static
     * analyses. Uncached — see ArtifactCache for the keyed path.
     * @throws lang::CompileError on invalid programs.
     */
    static std::shared_ptr<const CompiledArtifact>
    build(const std::string &source, const CompileOptions &opts = {});

    /** The source text this artifact was compiled from. */
    const std::string &source() const { return source_; }

    /** canonicalOptions() of the options compiled under: the options
     * half of the cache key. */
    const std::string &cacheKey() const { return cache_key_; }

    /** The post-pipeline HIR (for DramImage construction and debug). */
    const lang::Program &hir() const { return hir_; }

    /** The lowered (and, unless disabled, optimized) dataflow graph,
     * with link widths annotated by the resource analysis. */
    const graph::Dfg &dfg() const { return dfg_; }

    /** The dfg() compiled once into flat bytecode. */
    const graph::BytecodeProgram &bytecode() const { return bytecode_; }

    /** What the DFG optimizer did (node/link deltas, per-pass counts). */
    const graph::GraphOptReport &optReport() const { return opt_report_; }

    /** Table IV resource footprint against the options' machine config
     * (default replicate factor; the evaluation harness re-analyzes
     * with per-app overrides). */
    const graph::ResourceReport &resources() const { return resources_; }

    /** Static analysis bundle: rate balance, deadlock lint, value
     * lints. */
    const graph::AnalyzeReport &analysis() const { return analysis_; }

    /**
     * Instantiate the mutable half: a fresh reusable execution context
     * over this artifact's bytecode. The artifact must outlive the
     * context — callers holding the artifact through shared_ptr (the
     * only way build() hands one out) get this for free by keeping
     * their reference.
     */
    std::unique_ptr<graph::ExecutionContext> makeContext() const;

    /** Run on the reference AST interpreter (golden model). */
    interp::RunStats interpret(lang::DramImage &dram,
                               const std::vector<int32_t> &args) const;

  private:
    CompiledArtifact() = default;

    std::string source_;
    std::string cache_key_;
    lang::Program ref_; ///< pre-pipeline HIR, for interpret()
    lang::Program hir_;
    graph::Dfg dfg_;
    graph::BytecodeProgram bytecode_;
    graph::GraphOptReport opt_report_;
    graph::ResourceReport resources_;
    graph::AnalyzeReport analysis_;
};

/**
 * Process-wide artifact cache: get() returns the one shared artifact
 * for a (source, options) pair, compiling on first request.
 *
 * Entries are keyed by the one string source + '\0' +
 * canonicalOptions(opts), so equal keys mean equal compilations and a
 * hash collision costs the map a string compare, never a wrong
 * program. Misses compile *under the cache lock*: concurrent first
 * requests for the same program deduplicate into one compile (the
 * losers block and then hit), which is the behavior a serving frontend
 * wants — the alternative, compiling outside the lock, burns a
 * compile per racer. Entries live until clear(); eviction is not
 * needed at the scale of a test/bench process, and shared_ptr keeps
 * in-flight artifacts alive across clear() regardless.
 */
class ArtifactCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;   ///< get() calls that had to compile
        uint64_t compiles = 0; ///< actual CompiledArtifact::build runs
        size_t entries = 0;    ///< artifacts currently cached
    };

    /** The process-wide instance (apps::runApp and serving share it). */
    static ArtifactCache &global();

    /** The artifact for (@p source, @p opts), compiling it on miss.
     * @throws lang::CompileError on invalid programs (nothing is
     * cached for a failed compile). */
    std::shared_ptr<const CompiledArtifact>
    get(const std::string &source, const CompileOptions &opts = {});

    Stats stats() const;

    /** Drop every entry and zero the counters (test isolation). */
    void clear();

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string,
                       std::shared_ptr<const CompiledArtifact>>
        entries_;
    Stats stats_;
};

} // namespace revet

#endif // REVET_CORE_REVET_HH
