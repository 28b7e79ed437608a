/**
 * @file
 * The Revet compiler pass pipeline (paper Figure 8).
 *
 * All passes rewrite the analyzed HIR (lang::Program) in place, so every
 * intermediate program stays executable on the reference interpreter —
 * the pass test suite runs each program before and after a pass and
 * compares DRAM output bit-for-bit.
 *
 * High-level lowering (Section V-A):
 *  - lowerAdapters(): views and iterators become SRAM buffers, scalar
 *    pointers, and explicit control flow (demand fetch = if + foreach
 *    bulk load; Figure 5), i.e. "Lower Views & Iterators" + "Lower Bulk
 *    Accesses" + "Lower MemRefs to Integers".
 *  - eliminateHierarchy(): pragma-annotated foreach loops become fork +
 *    atomic fetch-and-decrement (Figure 9).
 *
 * Optimization (Section V-B):
 *  - ifToSelect(): loop-free if statements become selects + predicated
 *    memory operations.
 *  - (replicate bufferization and sub-word packing are dataflow-graph
 *    rewrites: see graph/optimize.hh. Allocator hoisting remains a
 *    resource-model toggle in graph/resources.hh — it changes resource
 *    allocation, not program semantics.)
 */

#ifndef REVET_PASSES_PASSES_HH
#define REVET_PASSES_PASSES_HH

#include <functional>
#include <initializer_list>
#include <set>

#include "lang/ast.hh"

namespace revet
{
namespace passes
{

/** HIR pass toggles, mirroring the ablation study of Figure 12.
 * Adapter lowering has no toggle: the graph lowering needs it, so
 * runPipeline always runs it first.
 * (The graph-level toggle — allocator hoisting — lives in
 * graph::GraphToggles, owned by core::CompileOptions; sub-word packing
 * and replicate bufferization are graph::GraphPassOptions passes.) */
struct PassOptions
{
    bool eliminateHierarchy = true; ///< honor eliminate_hierarchy pragmas
    bool ifToSelect = true;
};

/** Lower views and iterators to SRAM + scalars + control flow. */
void lowerAdapters(lang::Program &program);

/** Rewrite pragma-annotated foreach loops to fork + atomics (Fig. 9). */
void eliminateHierarchy(lang::Program &program);

/** Convert loop-free if statements to selects + predicated stores. */
void ifToSelect(lang::Program &program);

/** Run the full pre-dataflow pipeline per @p opts. */
void runPipeline(lang::Program &program, const PassOptions &opts = {});

// ---- shared analysis helpers -------------------------------------------

/** Collect every slot read anywhere under @p s (including guards). */
void collectUses(const lang::Stmt &s, std::set<int> &uses);
void collectUses(const lang::Expr &e, std::set<int> &uses);

/** Collect every slot written (assign/decl targets) under @p s. */
void collectDefs(const lang::Stmt &s, std::set<int> &defs);

/** True if @p s (transitively) contains any of the given kinds. */
bool containsKind(const lang::Stmt &s,
                  std::initializer_list<lang::StmtKind> kinds);

/** True if any expression under @p s satisfies @p pred. */
bool anyExpr(const lang::Stmt &s,
             const std::function<bool(const lang::Expr &)> &pred);

} // namespace passes
} // namespace revet

#endif // REVET_PASSES_PASSES_HH
