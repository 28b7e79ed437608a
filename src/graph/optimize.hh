/**
 * @file
 * DFG-level optimization framework (the graph half of Figure 8).
 *
 * lower.cc emits graphs straightforwardly — passthrough blocks at every
 * control boundary, chained 2-way fanouts, sinks on every dead link —
 * and this layer cleans them up with a pipeline of semantics-preserving
 * rewrites. Every pass must leave the graph Dfg::verify()-clean, and
 * the equivalence suites require bit-identical DRAM output against the
 * unoptimized graph and the AST interpreter (WaveCert-style validation
 * by reference execution).
 *
 * The fixed pipeline, in order (GraphPass::name() in front):
 *  - const-fold: in-block constant folding, algebraic identities,
 *    copy/alias forwarding, and dead-op elimination;
 *  - cross-block-const-prop: graph-level constant/copy propagation on
 *    the abstract-interpretation facts of graph/absint.hh — constants
 *    cross block boundaries as local cnst ops, always-keep filters
 *    and single-live-arm merges are spliced away, pass-through output
 *    lanes are rerouted onto the producing fanout, and provably
 *    unreachable memory effects are stripped (under the dropEffects
 *    validation permission) so dead-node elimination can collapse
 *    the statically-dead arm;
 *  - copy-prop: eliminate single-input mov-only (wiring) blocks — a
 *    pure splice or a fanout, never touching multi-input alignment
 *    blocks (those order memory effects, e.g. the foreach sync block);
 *  - fanout-coalesce: fold fanout-of-fanout chains and splice
 *    degenerate 1-way fanouts into direct links;
 *  - block-fusion: merge a block whose every output feeds one other
 *    block, subject to the Table II stage/buffer limits via the
 *    resource model's cost hooks (graph/resources.hh);
 *  - dead-node-elim: prune nodes whose outputs all dangle into sinks
 *    (transitively) and have no memory effects, shrinking fanouts and
 *    filter/merge bundles along the way;
 *  - replicate-bufferize (Section V-C(d)): park pass-over values of a
 *    replicate region in SRAM so the region's distribution and
 *    collection trees do not have to carry them. Order-preserving
 *    regions get positional FIFO park/restore detours on their
 *    crossing links; thread-reordering (but 1:1) regions — a while or
 *    if body whose filters/merges emit threads out of entry order —
 *    get ordinal-keyed parking: each pure ride lane's value is parked
 *    under its arrival index, one ride path per exit point is
 *    repurposed as an ordinal lane fed by a thread-enumerating
 *    ordinal node, and every restore becomes an associative lookup
 *    keyed by the ordinal stream emerging at the region exit. The
 *    pass refuses values entangled with another region (nesting),
 *    thread-multiplying regions (a fork's counter/broadcast
 *    machinery), and bails on regions whose park count exceeds the
 *    Table II MU bank budget, then re-derives
 *    ReplicateInfo::bufferized from the rewritten graph;
 *  - subword-pack (Section V-B(d)): share 32-bit lanes between narrow
 *    (i8/i16/bool) streams entering the same fwdMerge/fbMerge, with
 *    mask/shift pack blocks on both input bundles and an unpack block
 *    on the merged output.
 *
 * Further graph rewrites plug in by implementing GraphPass and
 * appending to makeDefaultPasses().
 */

#ifndef REVET_GRAPH_OPTIMIZE_HH
#define REVET_GRAPH_OPTIMIZE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/dfg.hh"
#include "sim/machine.hh"

namespace revet
{
namespace graph
{

/**
 * Optimizer configuration, owned by core::CompileOptions. The pipeline
 * itself is fixed (makeDefaultPasses); only the two passes the Fig. 12
 * ablation measures can be switched off.
 */
struct GraphPassOptions
{
    bool enable = true; ///< master switch (off: lowered graph untouched)
    bool replicateBufferize = true;
    bool subwordPack = true;
    /** WaveCert-style translation validation (graph/analyze.hh): after
     * every applied pass, compare the ordered sources, the memory-effect
     * multiset and the per-region park census against the pre-pass
     * snapshot under the pass's permissions, and re-solve rate balance;
     * reject the rewrite with a ValidationError if any broke.
     * Structural invariants (park pairing, lane element types, region
     * membership) are Dfg::verify()'s and are checked either way. */
    bool validate = true;
    /** Table II limits consulted by block-fusion's cost hooks and by
     * replicate-bufferize's per-region SRAM park budget (muBanks). */
    sim::MachineConfig machine;
};

/**
 * One graph rewrite. Implementations must keep the graph consistent
 * (verify()-clean) and semantics-preserving: same DRAM output for any
 * input under any schedule of the engine.
 */
class GraphPass
{
  public:
    virtual ~GraphPass() = default;

    virtual std::string name() const = 0;

    /**
     * Rewrite @p dfg in place.
     * @return the number of rewrites applied (0 = already at fixpoint).
     */
    virtual int run(Dfg &dfg, const GraphPassOptions &opts) = 0;
};

struct AbsintReport;

/** What the optimizer did, for stats/bench reporting. */
struct GraphOptReport
{
    int nodesBefore = 0, nodesAfter = 0;
    int linksBefore = 0, linksAfter = 0;
    int iterations = 0;
    /** Pass applications certified by translation validation. */
    int validatedPasses = 0;
    /** Per-pass rewrite totals, in pipeline order. */
    std::vector<std::pair<std::string, int>> rewrites;
    /** Value-analysis facts (graph/absint.hh) of the graph exactly as
     * runPasses() left it, when the pipeline already computed them;
     * null otherwise. Stale once the graph is modified again. */
    std::shared_ptr<const AbsintReport> facts;

    std::string summary() const;
};

/** Individual pass factories: tests build one-pass and leave-one-out
 * pipelines from these and hand them to runPasses(). */
std::unique_ptr<GraphPass> makeConstFoldPass();
std::unique_ptr<GraphPass> makeCrossBlockConstPropPass();
std::unique_ptr<GraphPass> makeCopyPropPass();
std::unique_ptr<GraphPass> makeFanoutCoalescePass();
std::unique_ptr<GraphPass> makeBlockFusionPass();
std::unique_ptr<GraphPass> makeDeadNodeElimPass();
std::unique_ptr<GraphPass> makeReplicateBufferizePass();
std::unique_ptr<GraphPass> makeSubwordPackPass();

/** The fixed pipeline listed above, without replicate-bufferize or
 * subword-pack when @p opts switches them off. */
std::vector<std::unique_ptr<GraphPass>>
makeDefaultPasses(const GraphPassOptions &opts);

/**
 * Run @p passes over @p dfg to fixpoint (at most 8 sweeps).
 * Dfg::verify() runs after every applied pass (a structural break
 * throws std::logic_error), then translation validation when
 * opts.validate is set (a conservation or rate break throws
 * ValidationError).
 */
GraphOptReport
runPasses(Dfg &dfg,
          const std::vector<std::unique_ptr<GraphPass>> &passes,
          const GraphPassOptions &opts);

/** Run the default pipeline (no-op when opts.enable is false). */
GraphOptReport optimize(Dfg &dfg, const GraphPassOptions &opts = {});

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_OPTIMIZE_HH
