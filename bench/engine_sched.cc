/**
 * @file
 * A/B comparison of the dataflow engine's scheduling policies.
 *
 * Three sections, all over identical graphs and inputs per section.
 * The synthetic graphs are "+1" block instructions run through the
 * bytecode test harness (tests/dataflow/bytecode_harness.hh), fed and
 * drained by its stream endpoints:
 *
 *  - deep: one dense 64-stage pipeline over unbounded channels under
 *    roundRobin vs worklist. Every stage is busy every round, so this
 *    bounds the worklist's bookkeeping overhead on graphs where
 *    round-robin is already good.
 *
 *  - sparse: a load-balance region array — 64 replicated 64-stage
 *    pipelines over capacity-1 channels with all input skewed onto
 *    replica 0 (the pathological skew the Figure 14 allocator model
 *    studies). Round-robin rescans ~4k idle instructions per round;
 *    the worklist only steps the active chain.
 *
 *  - apps: every Table III app executed under both policies with
 *    DRAM compared byte-for-byte (the bit-identity acceptance bar).
 *
 * Multi-threaded scaling is measured across requests, not inside one
 * engine: see bench/serve_throughput.cc.
 *
 * The bench asserts policies produce identical sink streams and
 * identical useful work (quanta), and that the worklist is >= 2x
 * faster on the sparse topology. Exits
 * non-zero on violation so CI can run it as a guardrail.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "bytecode_harness.hh"
#include "core/revet.hh"
#include "dataflow/engine.hh"
#include "lang/dram_image.hh"
#include "sltf/codec.hh"

using namespace revet::dataflow;
using revet::bytecode_test::BytecodeHarness;
using revet::bytecode_test::StreamSink;
using revet::graph::OpKind;
using revet::sltf::StreamBuilder;
using revet::sltf::Word;

namespace
{

struct RunResult
{
    double ms = 0;
    uint64_t checksum = 0;
    uint64_t collected = 0;
    SchedStats sched;
    bool drained = false;
};

revet::sltf::TokenStream
inputStream(int tokens)
{
    StreamBuilder sb;
    for (int i = 0; i < tokens; ++i)
        sb.d(static_cast<Word>(i));
    sb.b(1);
    return sb;
}

/** Append a @p stages-deep chain of +1 block stages to @p h. */
StreamSink *
buildChain(BytecodeHarness &h, Channel *head, const std::string &prefix,
           int stages, size_t capacity)
{
    using revet::bytecode_test::cnst;
    using revet::bytecode_test::op;
    Channel *cur = head;
    for (int s = 0; s < stages; ++s) {
        Channel *next =
            h.channel(prefix + ".s" + std::to_string(s), capacity);
        h.block(prefix + ".ew" + std::to_string(s), {cur}, {next},
                {cnst(1, 1), op(OpKind::add, 2, 0, 1)}, {2});
        cur = next;
    }
    return h.capture(prefix + ".sink", cur);
}

RunResult
measure(BytecodeHarness &h, const StreamSink *sink)
{
    auto t0 = std::chrono::steady_clock::now();
    h.engine.run();
    auto t1 = std::chrono::steady_clock::now();
    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const auto &tok : sink->collected())
        out.checksum = out.checksum * 31 +
            (tok.isData() ? tok.word() : 0x80000000u + tok.barrierLevel());
    out.collected = sink->collected().size();
    out.sched = h.engine.schedStats();
    out.drained = h.engine.drained();
    return out;
}

RunResult
runDeep(Engine::Policy policy, int stages, int tokens)
{
    BytecodeHarness h(policy);
    Channel *head = h.channel("deep.in");
    h.inject("deep.src", head, inputStream(tokens));
    StreamSink *sink =
        buildChain(h, head, "deep", stages, Channel::unbounded);
    h.build();
    return measure(h, sink);
}

RunResult
runSparse(Engine::Policy policy, int replicas, int stages, int tokens)
{
    BytecodeHarness h(policy);
    StreamSink *sink = nullptr;
    for (int r = 0; r < replicas; ++r) {
        const std::string prefix = "rgn" + std::to_string(r);
        // Capacity-1 channels model the per-stage input buffers of the
        // region array; only region 0 receives work (full skew).
        Channel *head = h.channel(prefix + ".in", 1);
        if (r == 0)
            h.inject(prefix + ".src", head, inputStream(tokens));
        StreamSink *s = buildChain(h, head, prefix, stages, 1);
        if (r == 0)
            sink = s;
    }
    h.build();
    return measure(h, sink);
}

void
printRow(const char *policy, const RunResult &r)
{
    std::printf(
        "  %-10s %9.2f ms  rounds=%-8llu steps=%-9llu idle=%-9llu "
        "wakeups=%-8llu skipped=%-10llu verify=%llu\n",
        policy, r.ms,
        static_cast<unsigned long long>(r.sched.rounds),
        static_cast<unsigned long long>(r.sched.steps),
        static_cast<unsigned long long>(r.sched.idleSteps),
        static_cast<unsigned long long>(r.sched.wakeups),
        static_cast<unsigned long long>(r.sched.stepsSkipped),
        static_cast<unsigned long long>(r.sched.verifyPasses));
}

bool
checkIdentical(const char *label, const RunResult &rr,
               const RunResult &wl)
{
    bool ok = true;
    if (!rr.drained || !wl.drained) {
        std::printf("  FAIL(%s): engine did not drain\n", label);
        ok = false;
    }
    if (rr.checksum != wl.checksum || rr.collected != wl.collected) {
        std::printf("  FAIL(%s): sink streams diverged between "
                    "policies\n",
                    label);
        ok = false;
    }
    if (rr.sched.quanta != wl.sched.quanta) {
        std::printf("  FAIL(%s): useful work diverged (%llu vs %llu "
                    "quanta)\n",
                    label,
                    static_cast<unsigned long long>(rr.sched.quanta),
                    static_cast<unsigned long long>(wl.sched.quanta));
        ok = false;
    }
    if (wl.sched.missedWakeups != 0) {
        std::printf("  FAIL(%s): worklist missed %llu wakeups\n", label,
                    static_cast<unsigned long long>(
                        wl.sched.missedWakeups));
        ok = false;
    }
    return ok;
}

/** Section 3: all-apps DRAM bit-identity across both policies. */
bool
runAppIdentity()
{
    using revet::CompiledProgram;
    using revet::lang::DramImage;
    constexpr int scale = 4;
    bool ok = true;
    std::printf("\nengine_sched: app DRAM bit-identity, both policies "
                "(scale %d)\n",
                scale);
    for (const auto &app : revet::apps::allApps()) {
        auto prog = CompiledProgram::compile(app.source);
        std::vector<std::vector<std::vector<uint8_t>>> images;
        for (Engine::Policy policy :
             {Engine::Policy::roundRobin, Engine::Policy::worklist}) {
            DramImage dram(prog.hir());
            auto args = app.generate(dram, scale);
            prog.execute(dram, args, policy);
            std::vector<std::vector<uint8_t>> bytes;
            for (int d = 0; d < dram.dramCount(); ++d)
                bytes.push_back(dram.bytes(d));
            images.push_back(std::move(bytes));
        }
        const bool identical = images[0] == images[1];
        std::printf("  %-12s %s\n", app.name.c_str(),
                    identical ? "identical" : "DIVERGED");
        std::printf("{\"bench\":\"engine_sched\",\"fixture\":"
                    "\"app:%s\",\"identical\":%s}\n",
                    app.name.c_str(), identical ? "true" : "false");
        if (!identical) {
            std::printf("  FAIL(apps): %s DRAM diverged across "
                        "policies\n",
                        app.name.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main()
{
    constexpr int stages = 64;
    constexpr int replicas = 64;
    constexpr int deep_tokens = 1 << 17;
    constexpr int sparse_tokens = 5000;
    bool ok = true;

    std::printf("engine_sched: dense 64-stage pipeline, %d tokens, "
                "unbounded channels\n",
                deep_tokens);
    RunResult deep_rr = runDeep(Engine::Policy::roundRobin, stages,
                                deep_tokens);
    RunResult deep_wl = runDeep(Engine::Policy::worklist, stages,
                                deep_tokens);
    printRow("roundRobin", deep_rr);
    printRow("worklist", deep_wl);
    std::printf("  worklist speedup: %.2fx (dense — parity expected)\n",
                deep_rr.ms / deep_wl.ms);
    ok &= checkIdentical("deep", deep_rr, deep_wl);

    std::printf("\nengine_sched: sparse load-balance array, %d x "
                "%d-stage regions, all %d tokens skewed to region 0, "
                "capacity-1 channels\n",
                replicas, stages, sparse_tokens);
    RunResult sparse_rr = runSparse(Engine::Policy::roundRobin,
                                    replicas, stages, sparse_tokens);
    RunResult sparse_wl = runSparse(Engine::Policy::worklist, replicas,
                                    stages, sparse_tokens);
    printRow("roundRobin", sparse_rr);
    printRow("worklist", sparse_wl);
    double speedup = sparse_rr.ms / sparse_wl.ms;
    std::printf("  worklist speedup: %.2fx (>= 2x required)\n", speedup);
    ok &= checkIdentical("sparse", sparse_rr, sparse_wl);
    if (speedup < 2.0) {
        std::printf("  FAIL(sparse): worklist speedup %.2fx below the "
                    "2x acceptance bar\n",
                    speedup);
        ok = false;
    }

    ok &= runAppIdentity();

    return ok ? 0 : 1;
}
