/**
 * @file
 * Static DFG analysis: per-pass translation validation, token-rate
 * balance checking, and finite-buffer deadlock lint.
 *
 * The optimizer (graph/optimize.hh) is validated end-to-end by
 * reference execution; this layer adds WaveCert-style *per-rewrite*
 * certification so every production compile is self-checking:
 *
 *  - translation validation: accountTokens() snapshots the conserved
 *    quantities of a graph (the ordered program-entry source list,
 *    the memory-effect multiset, and the park/restore/ordinal census
 *    per replicate region); validateRewrite() compares a pre-pass
 *    account against the rewritten graph under the pass's declared
 *    permissions (permissionsFor()), requires an ordinal node in every
 *    region with keyed parks, and re-solves rate balance. Structural
 *    invariants (pairing, arities, lane element types, region
 *    membership) belong to Dfg::verify(), which runPasses() runs first.
 *    runPasses() invokes the validator after every applied pass when
 *    GraphPassOptions::validate is set and rejects the rewrite with a
 *    ValidationError naming the offending nodes;
 *
 *  - token-rate balance: analyzeRates() solves SDF-style balance
 *    equations over the links, assigning every link a symbolic affine
 *    data-token rate (counters with constant bounds fold to exact
 *    multiples) and flagging nodes whose input bundles cannot agree —
 *    a rate-inconsistent graph livelocks or deadlocks at runtime, so
 *    the conflict is reported statically instead. The solver is
 *    event-driven: a constraint is re-checked only when one of its
 *    links first gets a rate, never re-swept per unknown;
 *
 *  - finite-buffer deadlock lint: lintDeadlock() enumerates cycles of
 *    the channel graph and compares each cycle's token demand against
 *    the Table II link buffering it can hold, and derives the minimal
 *    safe SRAM park size per park/restore pair (an upper bound on
 *    ExecStats::sramParkedPeak) against the MU bank budget.
 *
 * The revet-lint example driver runs all three over a compiled
 * program and prints the diagnostics machine-readably.
 */

#ifndef REVET_GRAPH_ANALYZE_HH
#define REVET_GRAPH_ANALYZE_HH

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/dfg.hh"
#include "sim/machine.hh"

namespace revet
{
namespace graph
{

/** One analysis finding, addressable by machine and by human. */
struct Diagnostic
{
    enum class Severity
    {
        warning, ///< informational; does not reject a rewrite
        error,   ///< rejects the rewrite / fails the lint
    };

    std::string analysis; ///< "validate" | "rates" | "deadlock"
    std::string code;     ///< stable code, e.g. "effect-dropped"
    Severity severity = Severity::error;
    std::string message;    ///< human text naming the offenders
    std::vector<int> nodes; ///< offending node ids
    std::vector<int> links; ///< offending link ids

    /** One-line JSON object (revet-lint output format). */
    std::string json() const;
};

/** True if any diagnostic in @p diags is an error. */
bool hasErrors(const std::vector<Diagnostic> &diags);

// ---------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------

/**
 * The conserved quantities of a graph under semantics-preserving
 * rewrites: what a GraphPass may not change without an explicit
 * permission (PassPermissions).
 */
struct TokenAccount
{
    /** Program-entry source names in node order. The executor binds
     * main() arguments to sources positionally, so the ordered list —
     * not just the set — is load-bearing. */
    std::vector<std::string> sources;

    /** Memory-effect multiset: "dramWrite@<region>" / "sramWrite" /
     * "rmwAdd" / "rmwSub" keys to occurrence counts, guarded ops
     * included (a guard only suppresses an effect dynamically). */
    std::map<std::string, int> effects;

    /** Block ids carrying each effect key (ids are valid for the graph
     * the account was taken from — i.e. pre-rewrite ids when used in a
     * dropped-effect diagnostic). */
    std::map<std::string, std::vector<int>> effectNodes;

    /** Park/restore/ordinal census for one replicate region. */
    struct RegionParks
    {
        int fifoParks = 0;
        int keyedParks = 0;
        int fifoRestores = 0;
        int keyedRestores = 0;
        int ordinals = 0;
    };

    /** Census per Node::parkRegion. */
    std::map<int, RegionParks> parks;
};

/** Snapshot the conserved quantities of @p dfg. */
TokenAccount accountTokens(const Dfg &dfg);

/**
 * What a pass is allowed to change. Resolved by pass name; unknown
 * passes get the strict default (nothing may change).
 */
struct PassPermissions
{
    /** May drop memory effects (const-fold removes effect ops whose
     * guard folded to constant false). */
    bool dropEffects = false;
    /** May remove park/restore pairs (dead-node-elim prunes pairs on
     * dead paths). */
    bool dropParks = false;
    /** May create park/restore pairs and ordinal nodes
     * (replicate-bufferize). */
    bool addParks = false;
};

PassPermissions permissionsFor(const std::string &passName);

/**
 * Validate one pass application: compare the pre-pass @p before
 * account against the rewritten @p after graph under @p passName's
 * permissions (ordered sources, effect multiset, park census), require
 * an ordinal node in every region with keyed parks (ordinal-missing),
 * and re-run the rate balance analysis over @p vals, the value-analysis
 * facts (absint.hh) of @p after. @p after is assumed Dfg::verify()-
 * clean; the validator does not re-check structure. When @p account
 * is non-null it receives @p after's token account, so a pipeline can
 * carry it forward as the next pass's pre-pass account. Returns every
 * finding; the caller decides whether errors reject the rewrite
 * (runPasses throws).
 */
struct AbsintReport;
std::vector<Diagnostic> validateRewrite(const std::string &passName,
                                        const TokenAccount &before,
                                        const Dfg &after,
                                        const AbsintReport &vals,
                                        TokenAccount *account = nullptr);

/** Thrown by runPasses() when a validated pass application fails. */
class ValidationError : public std::logic_error
{
  public:
    ValidationError(std::string passName,
                    std::vector<Diagnostic> diagnostics);

    const std::string &passName() const { return pass_; }
    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

  private:
    std::string pass_;
    std::vector<Diagnostic> diags_;
};

// ---------------------------------------------------------------------
// Token-rate balance (SDF-style balance equations)
// ---------------------------------------------------------------------

/** Per-link symbolic data-token rates and any balance conflicts. */
struct RateReport
{
    /** Rendered affine rate per link id: "1", "c4", "3*c4+f7". Symbols
     * are named after the node that introduces the unknown (c=counter,
     * f=filter, r=reduce, b=broadcast shallow, x=other). */
    std::vector<std::string> linkRates;

    std::vector<Diagnostic> diagnostics;

    /** False when a balance conflict was found. */
    bool consistent = true;

    /** Rate of link @p id ("?" if out of range). */
    std::string rate(int id) const;
};

RateReport analyzeRates(const Dfg &dfg);

/** As above, reusing precomputed value-analysis facts (absint.hh) so
 * counter trip counts bind from the constancy lattice. */
RateReport analyzeRates(const Dfg &dfg, const AbsintReport &vals);

// ---------------------------------------------------------------------
// Finite-buffer deadlock lint
// ---------------------------------------------------------------------

/** Table II buffering available to the lint, in 32-bit words. */
struct BufferCaps
{
    int vectorWords = 256; ///< per vector link (vector input buffer)
    int scalarWords = 64;  ///< per scalar link (scalar input buffer)
    /** SRAM park capacity per park/restore pair: one MU bank. */
    int parkSlots = 4096;

    static BufferCaps fromMachine(const sim::MachineConfig &machine);
};

/** One cycle of the channel graph with its buffering balance. */
struct ChannelCycle
{
    std::vector<int> nodes; ///< in traversal order
    std::vector<int> links; ///< closing the cycle, same order
    long capacityWords = 0; ///< sum of link buffer capacities
    long demandWords = 1;   ///< tokens resident to make progress
    bool bounded = true;    ///< false: demand is symbolic (warning)
};

/** Minimal safe SRAM park size for one park/restore pair. */
struct ParkDemand
{
    int park = -1;
    int restore = -1;
    int region = -1;
    /** True when the park's input rate folded to a constant. */
    bool bounded = false;
    /** Constant upper bound on simultaneously parked values (valid
     * when bounded); compare against ExecStats::sramParkedPeak. */
    long minSafeSlots = -1;
    std::string rate; ///< rendered input rate, constant or symbolic
};

struct DeadlockReport
{
    std::vector<ChannelCycle> cycles;
    std::vector<ParkDemand> parks;
    std::vector<Diagnostic> diagnostics;
    /** Cycles whose demand exceeds capacity or is unbounded. */
    int riskyCycles = 0;
};

DeadlockReport lintDeadlock(const Dfg &dfg, const BufferCaps &caps = {});
DeadlockReport lintDeadlock(const Dfg &dfg, const BufferCaps &caps,
                            const AbsintReport &vals);

// ---------------------------------------------------------------------
// Combined driver
// ---------------------------------------------------------------------

struct AnalyzeReport
{
    RateReport rates;
    DeadlockReport deadlock;
    /** Value-range lints from the abstract interpreter (absint.hh):
     * guaranteed int32 overflow, always-empty filter arms, effectful
     * blocks that provably never receive data. All warnings. */
    std::vector<Diagnostic> values;

    std::vector<Diagnostic> all() const;
    bool hasErrors() const;
    std::string summary() const;
};

/** Run rate balance + deadlock lint + value lints over @p dfg; the
 * abstract-interpretation fixpoint is computed once and shared. */
AnalyzeReport analyzeGraph(const Dfg &dfg,
                           const sim::MachineConfig &machine = {});

/** As above, over precomputed value-analysis facts of @p dfg (e.g. the
 * optimizer's last fixpoint, GraphOptReport::facts). */
AnalyzeReport analyzeGraph(const Dfg &dfg,
                           const sim::MachineConfig &machine,
                           const AbsintReport &vals);

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_ANALYZE_HH
