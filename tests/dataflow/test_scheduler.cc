/**
 * @file
 * Scheduler translation validation (WaveCert-style) and backpressure
 * tests.
 *
 * The equivalence suite runs every Table III app fixture (at scale 16;
 * tests/graph/test_bytecode.cc holds scale 4 to golden pins) and a set
 * of language fixtures on the engine and under seeded shuffled
 * schedules (shuffled_schedule.hh), and asserts the executions are
 * bit-identical — same DRAM bytes, same per-link token and barrier
 * counts, same useful quanta, drained, no park residue — and that all
 * match the AST reference interpreter. Kahn-network determinism says
 * scheduling order cannot be observable; these tests certify the
 * engine actually keeps that promise, so the hot path can be
 * refactored without risking bit-identity with the interpreter.
 *
 * The engine, backpressure and stall-report tests run bytecode
 * instructions on hand-built streams (bytecode_harness.hh), on the
 * engine and under the same shuffled schedules: push on a
 * full channel throws (capacity 1 and the degenerate capacity 0),
 * full -> non-full transitions wake blocked producers, and stall
 * reports name internally blocked instructions even when every channel
 * is empty.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "bytecode_harness.hh"
#include "core/revet.hh"
#include "interp/interp.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"
#include "shuffled_schedule.hh"
#include "sltf/codec.hh"

using namespace revet;
using namespace revet::dataflow;
using namespace revet::bytecode_test;
using namespace revet::shuffled_test;
using lang::DramImage;
using revet::sltf::StreamBuilder;
using revet::sltf::TokenStream;

namespace
{

using Generate = std::function<std::vector<int32_t>(DramImage &)>;

/** One execution: its stats and the DRAM regions it left. */
struct Run
{
    graph::ExecStats stats;
    std::vector<std::vector<uint8_t>> dram_bytes;
};

/** Execute @p prog on a freshly generated image: on the engine when
 * @p seed is empty, else under the shuffled schedule @p *seed. */
Run
runOnce(const CompiledArtifact &prog, const Generate &generate,
        std::optional<uint64_t> seed)
{
    Run out;
    DramImage dram(prog.hir());
    auto args = generate(dram);
    out.stats = runSchedule(prog.bytecode(), dram, args, seed);
    for (int d = 0; d < dram.dramCount(); ++d)
        out.dram_bytes.push_back(dram.bytes(d));
    return out;
}

/**
 * Compile @p source, run it on the engine, under every shuffled
 * schedule and in the interpreter, and assert all agree bit-for-bit.
 */
void
expectScheduleIndependent(const std::string &source,
                          const Generate &generate, const std::string &label)
{
    auto prog = CompiledArtifact::build(source);

    DramImage ref(prog->hir());
    auto args = generate(ref);
    prog->interpret(ref, args);

    const Run engine = runOnce(*prog, generate, std::nullopt);
    EXPECT_TRUE(engine.stats.drained) << label;
    // The engine must never rely on its certification fallback: a
    // missed wakeup is a notification-wiring bug even though the
    // rescan would mask it functionally.
    EXPECT_EQ(engine.stats.schedVerifyPasses, 1u)
        << label << ": engine needed more than one quiescence rescan";
    ASSERT_EQ(engine.dram_bytes.size(),
              static_cast<size_t>(ref.dramCount()))
        << label;
    for (size_t d = 0; d < engine.dram_bytes.size(); ++d) {
        EXPECT_EQ(ref.bytes(static_cast<int>(d)), engine.dram_bytes[d])
            << label << ": DRAM region " << d
            << " diverged from the AST interpreter";
    }

    for (uint64_t seed : scheduleSeeds()) {
        const std::string where = label + " [" + scheduleName(seed) + "]";
        const Run sh = runOnce(*prog, generate, seed);
        EXPECT_TRUE(sh.stats.drained) << where;
        EXPECT_EQ(sh.stats.sramParkedEnd, 0u) << where;
        EXPECT_EQ(sh.stats.linkTokens, engine.stats.linkTokens)
            << where << ": per-link token counts diverged";
        EXPECT_EQ(sh.stats.linkBarriers, engine.stats.linkBarriers)
            << where;
        EXPECT_EQ(sh.stats.schedQuanta, engine.stats.schedQuanta) << where;
        EXPECT_EQ(sh.dram_bytes, engine.dram_bytes)
            << where << ": DRAM diverged from the engine's run";
    }
}

} // namespace

// ---------------------------------------------------------------------
// Equivalence: every Table III application fixture.

class SchedulerEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(SchedulerEquivalence, AppBitIdenticalUnderAllPolicies)
{
    const apps::App &app = apps::findApp(GetParam());
    const int scale = 16;
    expectScheduleIndependent(
        app.source,
        [&](DramImage &dram) { return app.generate(dram, scale); },
        app.name);

    // And the golden verifier must pass on the engine's run.
    auto prog = CompiledArtifact::build(app.source);
    DramImage dram(prog->hir());
    auto args = app.generate(dram, scale);
    graph::execute(prog->bytecode(), dram, args);
    EXPECT_EQ(app.verify(dram, scale), "") << app.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, SchedulerEquivalence,
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
// Equivalence: language fixtures covering every lowering construct
// (branches, while loops, nested loops, foreach, fork, SRAM, iterators).

TEST(SchedulerEquivalence, LanguageFixtures)
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
        expectScheduleIndependent(f.source, f.generate, f.label);
}

// ---------------------------------------------------------------------
// Worklist scheduler mechanics.

namespace
{

/** Append a chain of @p stages "+1" blocks after @p cur; returns the
 * chain's last channel. */
Channel *
incChain(BytecodeHarness &h, Channel *cur, const std::string &prefix,
         int stages, size_t capacity)
{
    for (int stage = 0; stage < stages; ++stage) {
        Channel *next =
            h.channel(prefix + ".s" + std::to_string(stage), capacity);
        h.block("ew", {cur}, {next},
                {cnst(1, 1), op(graph::OpKind::add, 2, 0, 1)}, {2});
        cur = next;
    }
    return cur;
}

/** Run @p h to quiescence on the engine, or under the shuffled
 * schedule @p seed. */
void
runOn(BytecodeHarness &h, std::optional<uint64_t> seed)
{
    if (seed)
        runSweeps(h.processes(), *seed);
    else
        h.engine.run();
}

} // namespace

TEST(WorklistScheduler, SparsePipelineSkipsIdleStages)
{
    // 8 identical 8-stage pipelines; only pipeline 0 has input. The
    // scheduler must not burn steps scanning the 7 idle replicas: a
    // full scan per round would step every process every round.
    auto build = [](BytecodeHarness &h) {
        StreamSink *sink = nullptr;
        for (int rep = 0; rep < 8; ++rep) {
            const std::string prefix = "p" + std::to_string(rep);
            Channel *cur = h.channel(prefix + ".in", 1);
            if (rep == 0) {
                StreamBuilder sb;
                for (int i = 0; i < 50; ++i)
                    sb.d(i);
                sb.b(1);
                h.inject("src", cur, sb.build());
            }
            cur = incChain(h, cur, prefix, 8, 1);
            StreamSink *s = h.capture("sink", cur);
            if (rep == 0)
                sink = s;
        }
        h.build();
        return sink;
    };
    BytecodeHarness wl;
    const StreamSink *sink = build(wl);
    wl.engine.run();
    EXPECT_TRUE(wl.engine.drained());
    const SchedStats &s = wl.engine.schedStats();
    const uint64_t procs = wl.processes().size();
    EXPECT_EQ(s.missedWakeups, 0u);
    EXPECT_GT(s.stepsSkipped, 0u);
    EXPECT_LT(s.steps, s.rounds * procs / 2)
        << "the scheduler should step far fewer primitives on a sparse "
           "graph than a full scan per round";
    ASSERT_EQ(sink->collected().size(), 51u);

    for (uint64_t seed : scheduleSeeds()) {
        BytecodeHarness sh;
        const StreamSink *shuffled_sink = build(sh);
        EXPECT_EQ(runSweeps(sh.processes(), seed), s.quanta)
            << "seed " << seed << ": every schedule does the same work";
        EXPECT_EQ(shuffled_sink->collected(), sink->collected())
            << "seed " << seed;
    }
}

TEST(WorklistScheduler, ExternalPushesBetweenRunsAreScheduled)
{
    // Re-running after out-of-band pushes (the ForwardMerge test
    // pattern) must work: run() re-seeds the ready deque.
    BytecodeHarness h;
    auto *in = h.channel("in");
    auto *out = h.channel("out");
    h.flatten("flat", in, out);
    auto *sink = h.capture("sink", out);
    h.build();
    h.engine.run();
    EXPECT_TRUE(sink->collected().empty());
    in->pushAll(StreamBuilder().d(5).b(2));
    h.engine.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder().d(5).b(1));
    EXPECT_TRUE(h.engine.drained());
}

TEST(WorklistScheduler, QuiescingInExactlyMaxRoundsIsNotLivelock)
{
    // Regression for the off-by-one: the final no-progress pass used to
    // count as a round and trip the cap on networks that finish right
    // at max_rounds.
    auto build = [](BytecodeHarness &h) {
        auto *in = h.channel("in");
        auto *out = h.channel("out");
        h.inject("src", in, StreamBuilder().d(1).b(1));
        h.capture("sink", out);
        h.flatten("flat", in, out);
        h.build();
    };
    // First measure the exact working-round count (deterministic for
    // one scheduler)...
    uint64_t rounds = 0;
    {
        BytecodeHarness m;
        build(m);
        rounds = m.engine.run();
    }
    ASSERT_GT(rounds, 0u);
    // ...then a cap of exactly that count must succeed.
    BytecodeHarness h;
    build(h);
    EXPECT_EQ(h.engine.run(rounds), rounds);
    EXPECT_TRUE(h.engine.drained());
}

TEST(WorklistScheduler, LivelockMessageNamesWorkingRounds)
{
    BytecodeHarness h;
    auto *a = h.channel("a");
    auto *b = h.channel("b");
    h.block("fwd", {a}, {b}, {}, {0});
    h.block("back", {b}, {a}, {}, {0});
    h.build();
    a->push(Token::data(1));
    try {
        h.engine.run(100);
        FAIL() << "expected livelock throw";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("livelock"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("tokens still moving"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Fault propagation.

TEST(EngineFaults, PrimitiveExceptionReachesCallerAndEngineRecovers)
{
    // A throwing instruction must surface its exception from run()
    // (and from a shuffled schedule), and the engine must stay usable:
    // the next run() re-seeds its scheduler state and finishes the
    // remaining work. The block faults (division by zero) on token 7
    // only.
    for (std::optional<uint64_t> seed : allSchedules()) {
        SCOPED_TRACE(scheduleName(seed));
        BytecodeHarness h;
        auto *a = h.channel("a");
        auto *b = h.channel("b");
        h.inject("src", a, StreamBuilder().d(7).d(8).b(1));
        // 1 / (x - 7), discarded, then x + 100.
        h.block("boom", {a}, {b},
                {cnst(1, 1), cnst(2, 7), op(graph::OpKind::sub, 3, 0, 2),
                 op(graph::OpKind::divu, 4, 1, 3), cnst(5, 100),
                 op(graph::OpKind::add, 6, 0, 5)},
                {6});
        auto *sink = h.capture("sink", b);
        h.build();
        try {
            runOn(h, seed);
            FAIL() << "expected the instruction's exception to propagate";
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what()).find("division by zero"),
                      std::string::npos)
                << err.what();
            EXPECT_NE(std::string(err.what()).find("boom"),
                      std::string::npos)
                << err.what();
        }
        runOn(h, seed);
        EXPECT_TRUE(h.engine.drained());
        // The faulting firing consumed token 7; the rest gets through.
        EXPECT_EQ(sink->collected(),
                  (TokenStream)StreamBuilder().d(108).b(1));
    }
}

// ---------------------------------------------------------------------
// Bounded-channel backpressure.

/** The message @p fn throws as std::runtime_error, or "" if none. */
template <typename Fn>
std::string
thrownMessage(Fn fn)
{
    try {
        fn();
    } catch (const std::runtime_error &err) {
        return err.what();
    }
    return "";
}

TEST(Backpressure, PushOnFullChannelThrows)
{
    SegmentPool pool;
    Channel ch("tight", 1, pool);
    ch.push(Token::data(1));
    EXPECT_FALSE(ch.canPush());
    EXPECT_EQ(thrownMessage([&] { ch.push(Token::data(2)); }),
              "channel 'tight' overflow: push on a full bounded channel "
              "(capacity 1) — missing canPush() guard");
    // The failed push must not corrupt the FIFO.
    EXPECT_EQ(ch.size(), 1u);
    EXPECT_EQ(ch.pop().word(), 1u);
}

TEST(Backpressure, PopOnEmptyChannelThrows)
{
    SegmentPool pool;
    Channel ch("empty", Channel::unbounded, pool);
    EXPECT_EQ(thrownMessage([&] { ch.pop(); }),
              "channel 'empty' underflow: pop on an empty channel");
    Channel nameless("", Channel::unbounded, pool);
    EXPECT_EQ(thrownMessage([&] { nameless.pop(); }),
              "channel '?' underflow: pop on an empty channel");
}

TEST(Backpressure, CapacityZeroChannelRejectsEveryPush)
{
    SegmentPool pool;
    Channel ch("closed", 0, pool);
    EXPECT_FALSE(ch.canPush());
    EXPECT_EQ(thrownMessage([&] { ch.push(Token::data(1)); }),
              "channel 'closed' overflow: push on a full bounded channel "
              "(capacity 0) — missing canPush() guard");
    EXPECT_TRUE(ch.empty());
}

TEST(Backpressure, CapacityOnePipelineDrainsUnderEveryPolicy)
{
    for (std::optional<uint64_t> seed : allSchedules()) {
        SCOPED_TRACE(scheduleName(seed));
        BytecodeHarness h;
        auto *a = h.channel("a", 1);
        auto *c = h.channel("c", 1);
        StreamBuilder sb;
        for (int i = 0; i < 100; ++i)
            sb.d(i);
        sb.b(1);
        h.inject("src", a, sb.build());
        auto *b = incChain(h, a, "inc", 1, 1);
        h.flatten("flat", b, c);
        auto *sink = h.capture("sink", c);
        h.build();
        runOn(h, seed);
        EXPECT_TRUE(h.engine.drained());
        ASSERT_EQ(sink->collected().size(), 100u);
        for (size_t i = 0; i < 100; ++i)
            EXPECT_EQ(sink->collected()[i].word(), i + 1);
    }
}

TEST(Backpressure, CapacityZeroOutputStallsWithoutLivelock)
{
    // A source instruction feeding a capacity-0 channel can never make
    // progress; the engine must quiesce (not spin) and the stall report
    // must name the blocked source even though every channel is empty.
    for (std::optional<uint64_t> seed : allSchedules()) {
        SCOPED_TRACE(scheduleName(seed));
        BytecodeHarness h;
        h.args = {1};
        auto *dead = h.channel("dead", 0);
        h.node(graph::NodeKind::source, "stuckSrc", {}, {dead});
        h.build();
        runOn(h, seed);
        EXPECT_TRUE(h.engine.drained()) << "capacity-0 channel holds nothing";
        std::string report = h.engine.stallReport();
        EXPECT_NE(report.find("source(stuckSrc#0): 2 tokens pending"),
                  std::string::npos)
            << report;
        EXPECT_NE(report.find("full outputs"), std::string::npos)
            << report;
    }
}

TEST(Backpressure, FullToNonFullTransitionWakesProducer)
{
    // Producer blocks on a full bounded channel; only the consumer's
    // pop can unblock it. If the worklist misses the full->non-full
    // wakeup, the quiescence rescan records it — assert it doesn't.
    BytecodeHarness h;
    auto *narrow = h.channel("narrow", 1);
    auto *wide = h.channel("wide");
    StreamBuilder sb;
    for (int i = 0; i < 32; ++i)
        sb.d(i);
    sb.b(1);
    h.inject("src", narrow, sb.build());
    h.flatten("flat", narrow, wide);
    auto *sink = h.capture("sink", wide);
    h.build();
    h.engine.run();
    EXPECT_TRUE(h.engine.drained());
    EXPECT_EQ(sink->collected().size(), 32u);
    EXPECT_EQ(h.engine.schedStats().missedWakeups, 0u);
}

// ---------------------------------------------------------------------
// Stall diagnostics (internally blocked instructions).

TEST(StallReport, NamesInternallyBlockedMergeWithEmptyChannels)
{
    // Drive an fbMerge into drain mode, then leave its backedge empty:
    // every channel is empty, yet the loop header is blocked waiting
    // for its bundle peer.
    BytecodeHarness h;
    auto *fwd = h.channel("fwd");
    auto *back = h.channel("back");
    auto *out = h.channel("out");
    h.inject("src", fwd, StreamBuilder().d(1).b(1));
    h.fbMerge("head", {fwd}, {back}, {out});
    h.node(graph::NodeKind::sink, "sink", {out}, {});
    h.build();
    h.engine.run();
    EXPECT_TRUE(h.engine.drained()) << "all channels drained";
    std::string report = h.engine.stallReport();
    EXPECT_NE(report.find("stalled channels: none"), std::string::npos)
        << report;
    EXPECT_NE(report.find("fbMerge(head#0)"), std::string::npos) << report;
    EXPECT_NE(report.find("mode=drain"), std::string::npos) << report;
    EXPECT_NE(report.find("starved inputs"), std::string::npos)
        << report;
}

TEST(StallReport, IncludedInLivelockException)
{
    BytecodeHarness h;
    auto *fwd = h.channel("fwd");
    auto *back = h.channel("back");
    auto *out = h.channel("out", 1);
    // The merge wants to push the drain barrier but the output stays
    // full forever: nothing consumes it. run() quiesces; force the
    // exception path via a zero-round cap on a network with work.
    h.inject("src", fwd, StreamBuilder().d(1).d(2).b(1));
    h.fbMerge("head", {fwd}, {back}, {out});
    h.build();
    try {
        h.engine.run(0);
        // Quiescing in zero working rounds would mean no work at all.
        FAIL() << "expected livelock throw at cap 0";
    } catch (const std::runtime_error &err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find("blocked processes"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("head"), std::string::npos) << msg;
    }
}
