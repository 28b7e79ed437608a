/**
 * @file
 * Bytecode-vs-step differential suite.
 *
 * The bytecode executor (graph/bytecode.hh) re-implements the entire
 * execution hot path; the step-object executor (graph/exec.hh) is its
 * semantic oracle. These tests hold the two bit-identical — same DRAM
 * bytes, same per-link token and barrier counts, same drained flag —
 * across every Table III app fixture and every language-construct
 * fixture, under both scheduling policies (roundRobin and worklist).
 * Kahn-network determinism
 * makes the executor, like the scheduler, unobservable through
 * results; this suite certifies the bytecode interpreter actually
 * keeps that promise, token for token.
 *
 * The compiled-artifact tests below pin the shape of the flat tables
 * themselves (one instruction per node, concatenated op/reg pools,
 * kind-qualified diagnostic names) so the format documented in
 * README.md cannot drift silently.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/bytecode.hh"
#include "lang/dram_image.hh"

using namespace revet;
using dataflow::Engine;
using graph::ExecutorKind;
using lang::DramImage;

namespace
{

constexpr Engine::Policy kAllPolicies[] = {Engine::Policy::roundRobin,
                                           Engine::Policy::worklist};

const char *
policyName(Engine::Policy policy)
{
    switch (policy) {
      case Engine::Policy::roundRobin: return "roundRobin";
      case Engine::Policy::worklist: return "worklist";
    }
    return "?";
}

struct ExecutorRun
{
    graph::ExecStats stats;
    std::vector<std::vector<uint8_t>> dram_bytes;
};

ExecutorRun
runWith(const CompiledProgram &prog, ExecutorKind executor,
        const std::function<std::vector<int32_t>(DramImage &)> &generate,
        Engine::Policy policy)
{
    ExecutorRun out;
    DramImage dram(prog.hir());
    auto args = generate(dram);
    out.stats = prog.executeWith(executor, dram, args, policy);
    for (int d = 0; d < dram.dramCount(); ++d)
        out.dram_bytes.push_back(dram.bytes(d));
    return out;
}

/**
 * Run @p source under both executors under every policy and assert
 * the four runs are pairwise bit-identical per policy.
 */
void
expectExecutorsEquivalent(
    const std::string &source,
    const std::function<std::vector<int32_t>(DramImage &)> &generate,
    const std::string &label)
{
    auto prog = CompiledProgram::compile(source);
    for (Engine::Policy policy : kAllPolicies) {
        const std::string where =
            label + " [" + policyName(policy) + "]";
        ExecutorRun step =
            runWith(prog, ExecutorKind::stepObjects, generate, policy);
        ExecutorRun bc =
            runWith(prog, ExecutorKind::bytecode, generate, policy);
        EXPECT_TRUE(step.stats.drained) << where;
        EXPECT_TRUE(bc.stats.drained) << where;
        EXPECT_EQ(step.stats.linkTokens, bc.stats.linkTokens)
            << where << ": per-link token counts diverged between "
                        "executors";
        EXPECT_EQ(step.stats.linkBarriers, bc.stats.linkBarriers)
            << where << ": per-link barrier counts diverged between "
                        "executors";
        EXPECT_EQ(step.stats.dramReadElems, bc.stats.dramReadElems)
            << where;
        EXPECT_EQ(step.stats.dramWriteElems, bc.stats.dramWriteElems)
            << where;
        EXPECT_EQ(step.stats.dramReadBytes, bc.stats.dramReadBytes)
            << where;
        EXPECT_EQ(step.stats.dramWriteBytes, bc.stats.dramWriteBytes)
            << where;
        EXPECT_EQ(step.stats.sramAccesses, bc.stats.sramAccesses)
            << where;
        EXPECT_EQ(step.stats.sramParkedElems, bc.stats.sramParkedElems)
            << where;
        EXPECT_EQ(step.stats.sramParkedPeak, bc.stats.sramParkedPeak)
            << where;
        EXPECT_EQ(step.stats.sramParkedEnd, 0u) << where;
        EXPECT_EQ(bc.stats.sramParkedEnd, 0u) << where;
        EXPECT_EQ(step.stats.graphNodes, bc.stats.graphNodes) << where;
        EXPECT_EQ(step.stats.graphLinks, bc.stats.graphLinks) << where;
        ASSERT_EQ(step.dram_bytes.size(), bc.dram_bytes.size()) << where;
        for (size_t d = 0; d < step.dram_bytes.size(); ++d) {
            EXPECT_EQ(step.dram_bytes[d], bc.dram_bytes[d])
                << where << ": DRAM region " << d
                << " diverged between executors";
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Differential: every Table III application fixture.

class BytecodeDifferential : public ::testing::TestWithParam<std::string>
{};

TEST_P(BytecodeDifferential, AppBitIdenticalToStepObjects)
{
    const apps::App &app = apps::findApp(GetParam());
    const int scale = 4;
    expectExecutorsEquivalent(
        app.source,
        [&](DramImage &dram) { return app.generate(dram, scale); },
        app.name);

    // The golden verifier must also pass on a bytecode run.
    auto prog = CompiledProgram::compile(app.source);
    DramImage dram(prog.hir());
    auto args = app.generate(dram, scale);
    prog.executeWith(ExecutorKind::bytecode, dram, args,
                     Engine::Policy::worklist);
    EXPECT_EQ(app.verify(dram, scale), "") << app.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BytecodeDifferential,
    ::testing::Values("isipv4", "ip2int", "murmur3", "hash-table",
                      "search", "huff-dec", "huff-enc", "kD-tree"),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Differential: language fixtures covering every lowering construct
// (branches, while loops, nested loops, foreach, fork, SRAM, iterators
// — the same programs the scheduler equivalence suite certifies).

TEST(BytecodeDifferential, LanguageFixtures)
{
    struct Fixture
    {
        const char *label;
        const char *source;
        std::function<std::vector<int32_t>(DramImage &)> generate;
    };
    const std::vector<Fixture> fixtures = {
        {"branchy-if",
         R"(
         DRAM<int> out;
         void main(int n) {
           int x = 7;
           if (n != 0) { x = 1000 / n; };
           out[0] = x;
         })",
         [](DramImage &d) {
             d.resize("out", 4);
             return std::vector<int32_t>{8};
         }},
        {"while-loop",
         R"(
         DRAM<int> out;
         void main(int n) {
           int i = 0; int acc = 0;
           while (i < n) { acc = acc + i * i; i++; };
           out[0] = acc;
         })",
         [](DramImage &d) {
             d.resize("out", 4);
             return std::vector<int32_t>{37};
         }},
        {"nested-while",
         R"(
         DRAM<int> out;
         void main(int n) {
           int i = 0; int acc = 0;
           while (i < n) {
             int j = 0;
             while (j < i) { acc = acc + 1; j++; };
             i++;
           };
           out[0] = acc;
         })",
         [](DramImage &d) {
             d.resize("out", 4);
             return std::vector<int32_t>{12};
         }},
        {"collatz-while-in-foreach",
         R"(
         DRAM<int> data; DRAM<int> out;
         void main(int n) {
           foreach (n) { int i =>
             int v = data[i];
             int steps = 0;
             while (v != 1) {
               if (v % 2 == 0) { v = v / 2; } else { v = v * 3 + 1; };
               steps++;
             };
             out[i] = steps;
           };
         })",
         [](DramImage &d) {
             std::vector<int32_t> data(24);
             for (int i = 0; i < 24; ++i)
                 data[i] = i + 1;
             d.fill("data", data);
             d.resize("out", 24 * 4);
             return std::vector<int32_t>{24};
         }},
        {"nested-foreach-reduce",
         R"(
         DRAM<int> out;
         void main(int n) {
           int total = foreach (n) { int i =>
             int inner = foreach (i + 1) { int j =>
               return i * 10 + j;
             };
             return inner;
           };
           out[0] = total;
         })",
         [](DramImage &d) {
             d.resize("out", 4);
             return std::vector<int32_t>{6};
         }},
        {"fork-and-rmw",
         R"(
         DRAM<int> out;
         void main(int n) {
           SRAM<int, 16> acc;
           foreach (1) { int t =>
             int i = fork(n);
             int j = fork(2);
             fetch_add(acc, i * 2 + j, 1);
           };
           foreach (16) { int k =>
             out[k] = acc[k];
           };
         })",
         [](DramImage &d) {
             d.resize("out", 64);
             return std::vector<int32_t>{5};
         }},
        {"reorder-replicate-exit",
         // Thread-reordering replicate region with dead threads:
         // ordinal-keyed park/restore pairs plus the batch-close slot
         // reclamation, exercised differentially.
         R"(
         DRAM<int> out;
         void main(int n) {
           foreach (n) { int t =>
             int k1 = t * 7 + 1;
             int k2 = t ^ 29;
             int h = t;
             replicate (2) {
               if (t % 3 == 0) { exit(); };
               h = h * 5 + 2;
             };
             out[t] = h + k1 - k2;
           };
         })",
         [](DramImage &d) {
             d.resize("out", 18 * 4);
             return std::vector<int32_t>{18};
         }},
        {"read-iterator",
         R"(
         DRAM<char> text; DRAM<int> out;
         void main(int n) {
           ReadIt<8> it(text, 0);
           int len = 0;
           while (*it) { len++; it++; };
           out[0] = len;
         })",
         [](DramImage &d) {
             std::vector<int8_t> text(60, 'x');
             text[47] = 0;
             d.fill("text", text);
             d.resize("out", 4);
             return std::vector<int32_t>{0};
         }},
    };
    for (const auto &f : fixtures)
        expectExecutorsEquivalent(f.source, f.generate, f.label);
}

// ---------------------------------------------------------------------
// The compiled artifact: flat-table shape and diagnostics.

TEST(BytecodeProgram, FlattensOneInstructionPerNode)
{
    auto prog = CompiledProgram::compile(R"(
        DRAM<int> out;
        void main(int n) {
          int acc = foreach (n) { int i => return i * i; };
          out[0] = acc;
        })");
    const graph::BytecodeProgram &bc = prog.bytecode();
    EXPECT_EQ(bc.insts.size(), prog.dfg().nodes.size());
    EXPECT_EQ(bc.numLinks, prog.dfg().links.size());
    EXPECT_EQ(bc.names.size(), bc.insts.size());
    EXPECT_EQ(bc.linkNames.size(), bc.numLinks);

    // Channel-operand ranges reproduce each node's link wiring, and
    // the concatenated op pool holds every block op exactly once.
    size_t total_chans = 0;
    size_t total_ops = 0;
    for (size_t i = 0; i < bc.insts.size(); ++i) {
        const graph::BcInst &inst = bc.insts[i];
        const graph::Node &node = prog.dfg().nodes[i];
        ASSERT_EQ(inst.nIns, node.ins.size());
        ASSERT_EQ(inst.nOuts, node.outs.size());
        for (uint32_t k = 0; k < inst.nIns; ++k)
            EXPECT_EQ(bc.chans[inst.ins + k],
                      static_cast<uint32_t>(node.ins[k]));
        for (uint32_t k = 0; k < inst.nOuts; ++k)
            EXPECT_EQ(bc.chans[inst.outs + k],
                      static_cast<uint32_t>(node.outs[k]));
        total_chans += inst.nIns + inst.nOuts;
        total_ops += inst.nOps;
        if (node.kind == graph::NodeKind::block) {
            EXPECT_EQ(inst.nOps, node.ops.size());
        }
    }
    EXPECT_EQ(total_chans, bc.chans.size());
    EXPECT_EQ(total_ops, bc.ops.size());
}

TEST(BytecodeProgram, NamesCarryKindAndSourceNode)
{
    auto prog = CompiledProgram::compile(R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0;
          while (i < n) { i++; };
          out[0] = i;
        })");
    const graph::BytecodeProgram &bc = prog.bytecode();
    bool saw_fb = false, saw_source = false;
    for (size_t i = 0; i < bc.insts.size(); ++i) {
        const std::string &name = bc.names[i];
        // "kind(node#id)": kind-qualified so Engine::stallReport()
        // diagnostics are as useful as the step executor's.
        EXPECT_EQ(name.rfind(toString(bc.insts[i].op) + std::string("("),
                             0),
                  0u)
            << name;
        EXPECT_NE(name.find("#" + std::to_string(i)), std::string::npos)
            << name;
        saw_fb |= bc.insts[i].op == graph::BcOp::fbMerge;
        saw_source |= bc.insts[i].op == graph::BcOp::source &&
                      name.find("__start") != std::string::npos;
    }
    EXPECT_TRUE(saw_fb);
    EXPECT_TRUE(saw_source);
}

TEST(BytecodeProgram, ArgSlotsFollowSourceNodeOrder)
{
    auto prog = CompiledProgram::compile(R"(
        DRAM<int> out;
        void main(int a, int b) { out[0] = a - b; })");
    const graph::BytecodeProgram &bc = prog.bytecode();
    EXPECT_EQ(bc.numArgs, 2u);
    std::vector<int32_t> seen;
    for (const auto &inst : bc.insts) {
        if (inst.op == graph::BcOp::source && inst.arg >= 0)
            seen.push_back(inst.arg);
    }
    EXPECT_EQ(seen, (std::vector<int32_t>{0, 1}));

    DramImage dram(prog.hir());
    dram.resize("out", 4);
    prog.executeWith(ExecutorKind::bytecode, dram, {9, 4},
                     Engine::Policy::worklist);
    EXPECT_EQ(dram.read<int32_t>("out")[0], 5);

    // Missing arguments fail the same way the step executor does.
    DramImage dram2(prog.hir());
    dram2.resize("out", 4);
    EXPECT_THROW(prog.executeWith(ExecutorKind::bytecode, dram2, {9},
                                  Engine::Policy::worklist),
                 std::runtime_error);
}
