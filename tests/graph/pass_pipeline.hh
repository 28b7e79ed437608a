/**
 * @file
 * Optimizer pipelines for the graph test suites, and the equivalence
 * check they run under.
 *
 * The optimizer has one fixed pipeline (graph::makeDefaultPasses).
 * Tests that exercise one pass alone, or every pass but one, cut that
 * pipeline down by GraphPass::name() and hand it to runPasses(), so a
 * pass added to the pipeline joins every per-pass matrix on its own.
 *
 * expectOptimizedEquivalent() is the WaveCert-style reference check:
 * the optimized graph must leave DRAM bit-identical to the unoptimized
 * graph and to the AST interpreter, on the engine and under every
 * seeded shuffled schedule (tests/dataflow/shuffled_schedule.hh).
 */

#ifndef REVET_TESTS_GRAPH_PASS_PIPELINE_HH
#define REVET_TESTS_GRAPH_PASS_PIPELINE_HH

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "../dataflow/shuffled_schedule.hh"
#include "core/revet.hh"
#include "graph/optimize.hh"

namespace revet
{
namespace pass_test
{

using Pipeline = std::vector<std::unique_ptr<graph::GraphPass>>;

/** Every pass name of the fixed pipeline, in order, then "full". */
inline std::vector<std::string>
passConfigs()
{
    std::vector<std::string> out;
    for (const auto &pass : graph::makeDefaultPasses({}))
        out.push_back(pass->name());
    out.push_back("full");
    return out;
}

/** The fixed pipeline for "full", else the one pass named @p which. */
inline Pipeline
passPipeline(const std::string &which)
{
    Pipeline all = graph::makeDefaultPasses({});
    if (which == "full")
        return all;
    for (auto &pass : all) {
        if (pass->name() == which) {
            Pipeline one;
            one.push_back(std::move(pass));
            return one;
        }
    }
    throw std::invalid_argument("no optimizer pass named '" + which + "'");
}

/** The fixed pipeline without the pass named @p skip. */
inline Pipeline
allPassesBut(const std::string &skip)
{
    Pipeline all = graph::makeDefaultPasses({});
    const size_t n = all.size();
    Pipeline out;
    for (auto &pass : all) {
        if (pass->name() != skip)
            out.push_back(std::move(pass));
    }
    if (out.size() == n)
        throw std::invalid_argument("no optimizer pass named '" + skip +
                                    "'");
    return out;
}

/** The lowered graph of @p unoptimized (compiled with the graph
 * optimizer off), run through @p pipeline under the default options. */
inline graph::Dfg
optimizedGraph(const CompiledArtifact &unoptimized, const Pipeline &pipeline)
{
    graph::Dfg g = graph::lower(unoptimized.hir());
    graph::runPasses(g, pipeline, graph::GraphPassOptions{});
    return g;
}

/** @p source compiled with the graph optimizer off. */
inline std::shared_ptr<const CompiledArtifact>
buildUnoptimized(const std::string &source)
{
    CompileOptions raw;
    raw.graphOpt.enable = false;
    return CompiledArtifact::build(source, raw);
}

using Generate = std::function<std::vector<int32_t>(lang::DramImage &)>;

/**
 * Compile @p source unoptimized and under @p pipeline, run both graphs
 * and the AST interpreter on identically generated images, and assert
 * every DRAM region is bit-identical on the engine and under every
 * shuffled schedule. Returns the optimized graph for structural
 * assertions.
 */
inline graph::Dfg
expectOptimizedEquivalent(const std::string &source,
                          const Generate &generate,
                          const Pipeline &pipeline,
                          const std::string &label)
{
    using shuffled_test::runSchedule;
    auto ref_prog = buildUnoptimized(source);
    graph::Dfg opt = optimizedGraph(*ref_prog, pipeline);
    EXPECT_NO_THROW(opt.verify()) << label;
    const auto opt_bc = graph::BytecodeProgram::compile(opt);

    lang::DramImage ref(ref_prog->hir());
    auto args = generate(ref);
    ref_prog->interpret(ref, args);

    for (std::optional<uint64_t> sched : shuffled_test::allSchedules()) {
        SCOPED_TRACE(shuffled_test::scheduleName(sched));
        lang::DramImage a(ref_prog->hir());
        generate(a);
        auto sa = runSchedule(ref_prog->bytecode(), a, args, sched);
        lang::DramImage b(ref_prog->hir());
        generate(b);
        auto sb = runSchedule(opt_bc, b, args, sched);
        EXPECT_TRUE(sa.drained && sb.drained) << label;
        for (int d = 0; d < ref.dramCount(); ++d) {
            EXPECT_EQ(a.bytes(d), b.bytes(d))
                << label << ": DRAM region " << d
                << " diverged between unoptimized and optimized graphs";
            EXPECT_EQ(ref.bytes(d), b.bytes(d))
                << label << ": DRAM region " << d
                << " diverged from the AST interpreter";
        }
    }
    return opt;
}

} // namespace pass_test
} // namespace revet

#endif // REVET_TESTS_GRAPH_PASS_PIPELINE_HH
