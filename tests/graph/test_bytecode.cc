/**
 * @file
 * Link-traffic golden pins and the flat-table shape of the bytecode
 * executor.
 *
 * The pins hold every Table III app fixture and every
 * language-construct fixture to the link traffic (a hash of the
 * per-link token and barrier counts), scheduler quanta and park-slot
 * high-water mark that the step-object executor produced — captured
 * when that executor was deleted, at the last commit where both
 * executors ran and agreed bit for bit. Each pin is asserted on the
 * engine and under seeded shuffled schedules
 * (tests/dataflow/shuffled_schedule.hh), next to DRAM bit-identity
 * with the AST interpreter: Kahn-network determinism makes neither
 * the schedule nor the executor observable through results, and this
 * suite holds the one remaining executor to that promise, token for
 * token. The park high-water mark is the exception: a shuffled order
 * may buffer fewer threads at once, so only the engine's run pins it.
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

#include "../dataflow/shuffled_schedule.hh"
#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/bytecode.hh"
#include "lang/dram_image.hh"

using namespace revet;
using lang::DramImage;

namespace
{

/** FNV-1a over every link's token count, then every link's barrier
 * count, each as 8 little-endian bytes. */
uint64_t
trafficHash(const graph::ExecStats &stats)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (uint64_t v : stats.linkTokens)
        mix(v);
    for (uint64_t v : stats.linkBarriers)
        mix(v);
    return h;
}

/** What one fixture's run must reproduce under every schedule. */
struct Golden
{
    const char *label;
    size_t links;
    uint64_t traffic; ///< trafficHash
    uint64_t quanta;  ///< ExecStats::schedQuanta
    uint64_t parkedPeak; ///< ExecStats::sramParkedPeak (engine only)
};

using Generate = std::function<std::vector<int32_t>(DramImage &)>;

/**
 * Run @p source on the engine and under every shuffled schedule;
 * assert each run drains with no park residue, matches @p want, and
 * leaves DRAM bit-identical to the AST interpreter's.
 */
void
expectMatchesGolden(const std::string &source, const Generate &generate,
                    const Golden &want)
{
    auto prog = CompiledArtifact::build(source);
    DramImage ref(prog->hir());
    auto ref_args = generate(ref);
    prog->interpret(ref, ref_args);
    for (std::optional<uint64_t> sched : shuffled_test::allSchedules()) {
        const std::string where = std::string(want.label) + " [" +
                                  shuffled_test::scheduleName(sched) + "]";
        DramImage dram(prog->hir());
        auto args = generate(dram);
        const graph::ExecStats stats =
            shuffled_test::runSchedule(prog->bytecode(), dram, args, sched);
        EXPECT_TRUE(stats.drained) << where;
        EXPECT_EQ(stats.linkTokens.size(), want.links) << where;
        EXPECT_EQ(trafficHash(stats), want.traffic)
            << where << ": per-link token/barrier counts moved";
        EXPECT_EQ(stats.schedQuanta, want.quanta) << where;
        EXPECT_EQ(stats.sramParkedEnd, 0u) << where;
        if (!sched) {
            EXPECT_EQ(stats.sramParkedPeak, want.parkedPeak) << where;
        }
        ASSERT_EQ(dram.dramCount(), ref.dramCount()) << where;
        for (int d = 0; d < dram.dramCount(); ++d) {
            EXPECT_EQ(dram.bytes(d), ref.bytes(d))
                << where << ": DRAM region " << d
                << " diverged from the AST interpreter";
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Golden link traffic: every Table III application fixture at scale 4.

class BytecodeDifferential : public ::testing::TestWithParam<std::string>
{};

// The name records what the pins hold the executor to: the step-object
// executor's traffic on the same artifact.
TEST_P(BytecodeDifferential, AppBitIdenticalToStepObjects)
{
    const Golden golden[] = {
        {"isipv4", 236, 0x2879054fb3eea472ull, 3391, 0},
        {"ip2int", 203, 0x1299be33b37ece34ull, 3123, 0},
        {"murmur3", 170, 0x0940ae5a1a4891feull, 2823, 0},
        {"hash-table", 302, 0x3f57bdba41afe11eull, 6671, 0},
        {"search", 676, 0x5d4319ed19e6ddf6ull, 39962, 0},
        {"huff-dec", 405, 0x89be376381ae6e47ull, 61080, 0},
        {"huff-enc", 1010, 0x67d6b38bb62848abull, 40152, 0},
        {"kD-tree", 840, 0x355867a8fd3ca185ull, 16231, 0},
    };
    ASSERT_EQ(std::size(golden), apps::allApps().size());
    const apps::App &app = apps::findApp(GetParam());
    const int scale = 4;
    const Golden *want = nullptr;
    for (const Golden &g : golden) {
        if (app.name == g.label)
            want = &g;
    }
    ASSERT_NE(want, nullptr) << app.name;
    expectMatchesGolden(
        app.source,
        [&](DramImage &dram) { return app.generate(dram, scale); },
        *want);

    // The golden verifier must also pass.
    auto prog = CompiledArtifact::build(app.source);
    DramImage dram(prog->hir());
    auto args = app.generate(dram, scale);
    graph::execute(prog->bytecode(), dram, args);
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
// Golden link traffic: language fixtures covering every lowering
// construct (branches, while loops, nested loops, foreach, fork, SRAM,
// iterators — the same programs the scheduler equivalence suite
// certifies).

TEST(BytecodeDifferential, LanguageFixtures)
{
    struct Fixture
    {
        const char *label;
        const char *source;
        Generate generate;
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
         // reclamation.
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
    const Golden golden[] = {
        {"branchy-if", 11, 0xc57d296fd9c55b85ull, 18, 0},
        {"while-loop", 31, 0xa8734d029127b546ull, 508, 0},
        {"nested-while", 77, 0xdce312b985a147ebull, 1848, 0},
        {"collatz-while-in-foreach", 84, 0x26117c2293096a07ull, 5192, 0},
        {"nested-foreach-reduce", 23, 0xe985728ce612e04full, 200, 0},
        {"fork-and-rmw", 59, 0xbed7f10039bed812ull, 363, 0},
        {"reorder-replicate-exit", 35, 0x4f241b8895d96f9cull, 371, 54},
        {"read-iterator", 169, 0xac6d644c05e3bd22ull, 2914, 0},
    };
    ASSERT_EQ(std::size(golden), fixtures.size());
    for (size_t i = 0; i < fixtures.size(); ++i) {
        ASSERT_STREQ(fixtures[i].label, golden[i].label);
        expectMatchesGolden(fixtures[i].source, fixtures[i].generate,
                            golden[i]);
    }
}

// ---------------------------------------------------------------------
// The compiled artifact: flat-table shape and diagnostics.

TEST(BytecodeProgram, FlattensOneInstructionPerNode)
{
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int n) {
          int acc = foreach (n) { int i => return i * i; };
          out[0] = acc;
        })");
    const graph::BytecodeProgram &bc = prog->bytecode();
    EXPECT_EQ(bc.insts.size(), prog->dfg().nodes.size());
    EXPECT_EQ(bc.numLinks, prog->dfg().links.size());
    EXPECT_EQ(bc.names.size(), bc.insts.size());
    EXPECT_EQ(bc.linkNames.size(), bc.numLinks);

    // Channel-operand ranges reproduce each node's link wiring, and
    // the concatenated op pool holds every block op exactly once.
    size_t total_chans = 0;
    size_t total_ops = 0;
    for (size_t i = 0; i < bc.insts.size(); ++i) {
        const graph::BcInst &inst = bc.insts[i];
        const graph::Node &node = prog->dfg().nodes[i];
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
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0;
          while (i < n) { i++; };
          out[0] = i;
        })");
    const graph::BytecodeProgram &bc = prog->bytecode();
    bool saw_fb = false, saw_source = false;
    for (size_t i = 0; i < bc.insts.size(); ++i) {
        const std::string &name = bc.names[i];
        // "kind(node#id)": kind-qualified so Engine::stallReport()
        // names the opcode and its source node.
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
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int a, int b) { out[0] = a - b; })");
    const graph::BytecodeProgram &bc = prog->bytecode();
    EXPECT_EQ(bc.numArgs, 2u);
    std::vector<int32_t> seen;
    for (const auto &inst : bc.insts) {
        if (inst.op == graph::BcOp::source && inst.arg >= 0)
            seen.push_back(inst.arg);
    }
    EXPECT_EQ(seen, (std::vector<int32_t>{0, 1}));

    DramImage dram(prog->hir());
    dram.resize("out", 4);
    graph::execute(prog->bytecode(), dram, {9, 4});
    EXPECT_EQ(dram.read<int32_t>("out")[0], 5);

    // Missing arguments fail before the engine moves.
    DramImage dram2(prog->hir());
    dram2.resize("out", 4);
    EXPECT_THROW(graph::execute(prog->bytecode(), dram2, {9}),
                 std::runtime_error);
}
