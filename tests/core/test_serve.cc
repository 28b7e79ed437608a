/**
 * @file
 * Serving-layer test battery: immutable artifacts, reusable execution
 * contexts, the artifact cache, and the batch harness with its
 * per-worker contexts.
 *
 * The central contract under test: serving is invisible in results.
 * Whether a request ran on a fresh context or a reused one, alone or
 * concurrently with others on the same shared artifact — its DRAM
 * image and per-link token/barrier counts must be bit-identical to a
 * serial one-shot run on a fresh context, whose DRAM in turn matches
 * the AST interpreter. Everything the serving layer is allowed to
 * change is in stats (arena-reuse counters, context accounting,
 * latency).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.hh"
#include "apps/harness.hh"
#include "core/serve.hh"

using namespace revet;

namespace
{

std::vector<std::vector<uint8_t>>
dramBytes(const lang::DramImage &dram)
{
    std::vector<std::vector<uint8_t>> out;
    for (int d = 0; d < dram.dramCount(); ++d)
        out.push_back(dram.bytes(d));
    return out;
}

struct Oracle
{
    std::vector<std::vector<uint8_t>> dram;
    std::vector<uint64_t> linkTokens;
    std::vector<uint64_t> linkBarriers;
};

/** Serial one-shot run on a fresh context: the reference the serving
 * path must match bit for bit. Its DRAM is checked against the AST
 * interpreter's. */
Oracle
serialOracle(const CompiledArtifact &artifact, const apps::App &app,
             int scale)
{
    lang::DramImage ref(artifact.hir());
    auto ref_args = app.generate(ref, scale);
    artifact.interpret(ref, ref_args);

    lang::DramImage dram(artifact.hir());
    auto args = app.generate(dram, scale);
    auto stats = graph::execute(artifact.bytecode(), dram, args);
    EXPECT_EQ(dramBytes(dram), dramBytes(ref))
        << app.name << " scale " << scale
        << ": one-shot run diverged from the interpreter";
    return {dramBytes(dram), stats.linkTokens, stats.linkBarriers};
}

/** N serving workers x K requests over one shared artifact; every
 * request checked against the serial oracle. */
void
runConcurrentBattery()
{
    for (const char *fixture : {"murmur3", "isipv4"}) {
        const apps::App &app = apps::findApp(fixture);
        auto artifact = CompiledArtifact::build(app.source);
        const std::vector<int> scales = {4, 9, 16, 7};
        std::map<int, Oracle> oracles;
        for (int s : scales)
            oracles.emplace(s, serialOracle(*artifact, app, s));

        constexpr int kRequests = 16;
        std::vector<serve::Request> requests(kRequests);
        std::vector<int> req_scale(kRequests);
        for (int i = 0; i < kRequests; ++i) {
            const int s = scales[i % scales.size()];
            req_scale[i] = s;
            serve::Request &req = requests[i];
            req.prepare = [&app, s, &req](lang::DramImage &dram) {
                req.args = app.generate(dram, s);
            };
        }

        serve::ServeOptions opts;
        opts.workers = 4;
        serve::BatchReport rep =
            serve::serveBatch(artifact, requests, opts);

        ASSERT_EQ(rep.failed, 0u) << fixture;
        ASSERT_EQ(rep.succeeded, static_cast<size_t>(kRequests));
        for (int i = 0; i < kRequests; ++i) {
            const serve::RequestResult &res = rep.results[i];
            ASSERT_TRUE(res.ok) << fixture << " req " << i << ": "
                                << res.error;
            ASSERT_TRUE(res.dram.has_value());
            const Oracle &want = oracles.at(req_scale[i]);
            EXPECT_EQ(dramBytes(*res.dram), want.dram)
                << fixture << " req " << i << " DRAM diverged";
            EXPECT_EQ(res.stats.linkTokens, want.linkTokens)
                << fixture << " req " << i;
            EXPECT_EQ(res.stats.linkBarriers, want.linkBarriers)
                << fixture << " req " << i;
            EXPECT_TRUE(res.stats.drained);
            EXPECT_EQ(res.stats.sramParkedEnd, 0u);
        }
        // With 4 workers at most 4 contexts are built (one per
        // worker), and 16 requests guarantee reuse happened.
        EXPECT_LE(rep.pool.created, 4u) << fixture;
        EXPECT_GE(rep.pool.reused, static_cast<uint64_t>(kRequests - 4))
            << fixture;
        EXPECT_EQ(rep.pool.discarded, 0u);
    }
}

} // namespace

TEST(ServeConcurrency, BitIdenticalUnderWorklist)
{
    runConcurrentBattery();
}

TEST(ServeConcurrency, RawThreadsShareOneArtifact)
{
    // No serveBatch machinery: bare threads, each with its own context
    // from the same artifact, hammering different scales. Guards the
    // artifact's immutability contract directly.
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    const std::vector<int> scales = {3, 8, 13, 6};
    std::map<int, Oracle> oracles;
    for (int s : scales)
        oracles.emplace(s, serialOracle(*artifact, app, s));

    constexpr int kThreads = 4;
    constexpr int kPerThread = 5;
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            auto ctx = artifact->makeContext();
            for (int k = 0; k < kPerThread; ++k) {
                const int s = scales[(t + k) % scales.size()];
                lang::DramImage dram(artifact->hir());
                auto args = app.generate(dram, s);
                auto stats = ctx->run(dram, args);
                const Oracle &want = oracles.at(s);
                if (dramBytes(dram) != want.dram ||
                    stats.linkTokens != want.linkTokens ||
                    stats.linkBarriers != want.linkBarriers) {
                    failures[t] = "thread " + std::to_string(t) +
                                  " run " + std::to_string(k) +
                                  " diverged from oracle";
                    return;
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (const auto &f : failures)
        EXPECT_TRUE(f.empty()) << f;
}

TEST(ServeResidue, ReusedContextMatchesFreshContext)
{
    // Interleave scales on one context; every run must behave as if
    // the context were freshly built — no channel, register, arena,
    // or stats residue from the previous request.
    const apps::App &app = apps::findApp("isipv4");
    auto artifact = CompiledArtifact::build(app.source);
    auto runOnce = [&](graph::ExecutionContext &ctx, int scale) {
        lang::DramImage dram(artifact->hir());
        auto args = app.generate(dram, scale);
        auto stats = ctx.run(dram, args);
        return std::make_pair(dramBytes(dram), stats);
    };

    auto reused = artifact->makeContext();
    auto [d1, s1] = runOnce(*reused, 6);
    auto [d2, s2] = runOnce(*reused, 11); // different shape in between
    auto [d3, s3] = runOnce(*reused, 6);  // back to the original scale

    auto fresh = artifact->makeContext();
    auto [df, sf] = runOnce(*fresh, 6);

    EXPECT_EQ(d1, df);
    EXPECT_EQ(d3, df) << "third run on a twice-reused context diverged";
    EXPECT_EQ(s1.linkTokens, sf.linkTokens);
    EXPECT_EQ(s3.linkTokens, sf.linkTokens)
        << "link traffic accumulated across reuses";
    EXPECT_EQ(s3.linkBarriers, sf.linkBarriers);
    EXPECT_EQ(s3.dramReadElems, sf.dramReadElems);
    EXPECT_EQ(s3.dramWriteElems, sf.dramWriteElems);
    // Residue invariants after every reused run: network drained, all
    // park slots returned, fresh stats object each run.
    for (const auto *st : {&s1, &s2, &s3}) {
        EXPECT_TRUE(st->drained);
        EXPECT_EQ(st->sramParkedEnd, 0u);
    }
    EXPECT_EQ(reused->runsServed(), 3u);
    EXPECT_FALSE(reused->poisoned());
}

TEST(ServeResidue, HoistedArenaReusesSlotsAcrossRequests)
{
    // Find an allocating fixture, then require that a reused context
    // serves its second request from the arena — and that the arena is
    // invisible in results.
    bool found = false;
    for (const auto &app : apps::allApps()) {
        auto artifact = CompiledArtifact::build(app.source);
        auto ctx = artifact->makeContext();
        lang::DramImage dram1(artifact->hir());
        auto args1 = app.generate(dram1, 4);
        auto first = ctx->run(dram1, args1);
        if (first.sramAllocs == 0)
            continue;
        found = true;
        EXPECT_EQ(first.sramArenaReused, 0u)
            << app.name << ": a fresh context has no arena to reuse";

        lang::DramImage dram2(artifact->hir());
        auto args2 = app.generate(dram2, 4);
        auto second = ctx->run(dram2, args2);
        EXPECT_GT(second.sramArenaReused, 0u)
            << app.name
            << ": reused context must satisfy allocs from the arena";
        EXPECT_EQ(second.sramAllocs, first.sramAllocs);
        EXPECT_EQ(dramBytes(dram1), dramBytes(dram2))
            << app.name << ": arena reuse changed results";

        // The one-shot path runs on a fresh context: no arena yet.
        lang::DramImage dram3(artifact->hir());
        auto args3 = app.generate(dram3, 4);
        auto oneShot = graph::execute(artifact->bytecode(), dram3, args3);
        EXPECT_EQ(oneShot.sramArenaReused, 0u) << app.name;
        EXPECT_EQ(oneShot.sramAllocs, first.sramAllocs) << app.name;
        break;
    }
    ASSERT_TRUE(found) << "no Table III app allocates SRAM; the arena "
                          "path is untested";
}

TEST(ServeResidue, HoistToggleDifferentialOverAppFixtures)
{
    // The toggle may move allocator MUs around the resource model —
    // never results.
    for (const char *fixture : {"isipv4", "murmur3", "search"}) {
        const apps::App &app = apps::findApp(fixture);
        CompileOptions on, off;
        off.graph.hoistAllocators = false;
        auto art_on = CompiledArtifact::build(app.source, on);
        auto art_off = CompiledArtifact::build(app.source, off);

        auto ctx_on = art_on->makeContext();
        auto ctx_off = art_off->makeContext();
        for (int scale : {5, 12}) {
            lang::DramImage dram_on(art_on->hir());
            auto args_on = app.generate(dram_on, scale);
            ctx_on->run(dram_on, args_on);
            lang::DramImage dram_off(art_off->hir());
            auto args_off = app.generate(dram_off, scale);
            ctx_off->run(dram_off, args_off);
            EXPECT_EQ(dramBytes(dram_on), dramBytes(dram_off))
                << fixture << " scale " << scale
                << ": hoist toggle changed results";
        }
        EXPECT_LE(art_on->resources().replMU,
                  art_off->resources().replMU)
            << fixture;
    }
    // isipv4 carries a replicate(2) region, so the resource-report
    // delta must be strict there (one allocator MU per region vs one
    // per replica) — mirrors CoreApi.GraphTogglesReachResourceModel
    // through the artifact-resident report.
    const apps::App &app = apps::findApp("isipv4");
    CompileOptions off;
    off.graph.hoistAllocators = false;
    auto art_on = CompiledArtifact::build(app.source);
    auto art_off = CompiledArtifact::build(app.source, off);
    EXPECT_LT(art_on->resources().replMU, art_off->resources().replMU);
}

TEST(ServeCache, HitMissAndKeying)
{
    auto &cache = ArtifactCache::global();
    cache.clear();
    const apps::App &app = apps::findApp("murmur3");

    auto a = cache.get(app.source);
    auto b = cache.get(app.source);
    EXPECT_EQ(a.get(), b.get()) << "same (source, options) must share "
                                   "one artifact";
    auto st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.compiles, 1u);
    EXPECT_EQ(st.entries, 1u);

    // Any option edit is a different artifact.
    CompileOptions alt;
    alt.graphOpt.subwordPack = false;
    auto c = cache.get(app.source, alt);
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a->cacheKey(), c->cacheKey());

    // Any source edit is a different artifact, even a semantically
    // neutral one — the key is content, not meaning.
    auto d = cache.get(app.source + "\n");
    EXPECT_NE(a.get(), d.get());

    st = cache.stats();
    EXPECT_EQ(st.compiles, 3u);
    EXPECT_EQ(st.entries, 3u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    // Cleared cache: artifacts still alive through our shared_ptrs.
    EXPECT_GT(a->bytecode().insts.size(), 0u);
}

TEST(ServeCache, FingerprintStableAndOptionSensitive)
{
    // Stability: the serialization is a pure function of the options.
    CompileOptions base;
    EXPECT_EQ(canonicalOptions(base), canonicalOptions(CompileOptions{}));

    // Sensitivity: every non-machine switch, and machine fields of
    // both numeric kinds, must land in the canonical serialization,
    // each under its own key — a switch missing there would alias
    // cache entries across genuinely different compiles. A new switch
    // belongs in this list.
    const std::vector<std::pair<const char *, void (*)(CompileOptions &)>>
        edits = {
            {"passes.ifToSelect",
             [](CompileOptions &o) { o.passes.ifToSelect = false; }},
            {"graphOpt.enable",
             [](CompileOptions &o) { o.graphOpt.enable = false; }},
            {"graphOpt.replicateBufferize",
             [](CompileOptions &o) {
                 o.graphOpt.replicateBufferize = false;
             }},
            {"graphOpt.subwordPack",
             [](CompileOptions &o) { o.graphOpt.subwordPack = false; }},
            {"graphOpt.validate",
             [](CompileOptions &o) { o.graphOpt.validate = false; }},
            {"graphOpt.machine.muBanks",
             [](CompileOptions &o) { o.graphOpt.machine.muBanks = 17; }},
            {"graphOpt.machine.clockGHz",
             [](CompileOptions &o) { o.graphOpt.machine.clockGHz = 1.7; }},
            {"graph.hoistAllocators",
             [](CompileOptions &o) { o.graph.hoistAllocators = false; }},
        };
    std::map<std::string, std::string> seen = {
        {canonicalOptions(base), "defaults"}};
    for (const auto &[field, edit] : edits) {
        CompileOptions o;
        edit(o);
        const auto [it, fresh] = seen.emplace(canonicalOptions(o), field);
        EXPECT_TRUE(fresh) << field << " serializes like " << it->second;
    }

    // Spot-pin the serialization format so accidental reorderings
    // (which silently change every cache key) show up.
    const std::string key = canonicalOptions(base);
    EXPECT_NE(key.find("hoistAllocators=1"), std::string::npos);
    EXPECT_NE(key.find("muBanks=16"), std::string::npos);
}

TEST(ServeCache, ConcurrentGetsCompileOnce)
{
    auto &cache = ArtifactCache::global();
    cache.clear();
    const apps::App &app = apps::findApp("isipv4");
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CompiledArtifact>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [&, t]() { got[t] = cache.get(app.source); });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
    auto st = cache.stats();
    EXPECT_EQ(st.compiles, 1u)
        << "concurrent first requests must deduplicate into one build";
    EXPECT_EQ(st.hits + st.misses, static_cast<uint64_t>(kThreads));
    cache.clear();
}

TEST(ServeCache, HarnessCompilesOncePerSourceAndOptions)
{
    // apps::runApp used to re-lower the program on every call; it now
    // routes through the artifact cache, so repeated fixture runs (the
    // table/figure benches sweep many scales) compile exactly once.
    auto &cache = ArtifactCache::global();
    cache.clear();
    const apps::App &app = apps::findApp("murmur3");
    auto r1 = apps::runApp(app, 4);
    EXPECT_TRUE(r1.verified) << r1.verifyError;
    EXPECT_EQ(cache.stats().compiles, 1u);

    auto r2 = apps::runApp(app, 9); // same source+options, new scale
    EXPECT_TRUE(r2.verified) << r2.verifyError;
    auto st = cache.stats();
    EXPECT_EQ(st.compiles, 1u)
        << "harness re-compiled an already-cached app";
    EXPECT_GE(st.hits, 1u);

    // A different machine config is different options: new artifact.
    CompileOptions small_mu;
    small_mu.graphOpt.machine.muBanks = 8;
    auto r3 = apps::runApp(app, 4, small_mu);
    EXPECT_TRUE(r3.verified) << r3.verifyError;
    EXPECT_EQ(cache.stats().compiles, 2u);
    cache.clear();
}

TEST(ServeResidue, PoisonedContextSelfHeals)
{
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    auto ctx = artifact->makeContext();

    // Poison deterministically: max_rounds = 0 forces the livelock
    // throw mid-run, leaving the context mid-request.
    lang::DramImage dram(artifact->hir());
    auto args = app.generate(dram, 4);
    EXPECT_THROW(
        ctx->run(dram, args, /*max_rounds=*/0),
        std::runtime_error);
    EXPECT_TRUE(ctx->poisoned());
    EXPECT_EQ(ctx->runsServed(), 0u);

    // A poisoned context still self-heals on the next run (full
    // reset), bit-identical to a fresh one-shot run.
    lang::DramImage dram2(artifact->hir());
    auto args2 = app.generate(dram2, 4);
    auto healed = ctx->run(dram2, args2);
    EXPECT_TRUE(healed.drained);
    EXPECT_FALSE(ctx->poisoned());
    EXPECT_EQ(ctx->runsServed(), 1u);

    lang::DramImage dram3(artifact->hir());
    auto args3 = app.generate(dram3, 4);
    auto fresh = graph::execute(artifact->bytecode(), dram3, args3);
    EXPECT_EQ(dramBytes(dram2), dramBytes(dram3));
    EXPECT_EQ(healed.linkTokens, fresh.linkTokens);
}

TEST(ServePool, MissingArgumentsIsPreflightNotPoison)
{
    // Argument-count rejection happens before any state is touched:
    // the context stays clean and reusable, unlike a mid-run throw.
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    ASSERT_GT(artifact->bytecode().numArgs, 0u);
    auto ctx = artifact->makeContext();
    lang::DramImage dram(artifact->hir());
    EXPECT_THROW(ctx->run(dram, {}), std::runtime_error);
    EXPECT_FALSE(ctx->poisoned());
    EXPECT_EQ(ctx->runsServed(), 0u);

    lang::DramImage dram2(artifact->hir());
    auto args = app.generate(dram2, 4);
    auto stats = ctx->run(dram2, args);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(ctx->runsServed(), 1u);
}

TEST(ServeBatch, ReportAccounting)
{
    const apps::App &app = apps::findApp("isipv4");
    auto artifact = CompiledArtifact::build(app.source);
    constexpr int kRequests = 10;
    std::vector<serve::Request> requests(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        serve::Request &req = requests[i];
        req.prepare = [&app, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, 6);
        };
    }
    serve::ServeOptions opts;
    opts.workers = 3;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);

    EXPECT_EQ(rep.succeeded, static_cast<size_t>(kRequests));
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_GT(rep.reqPerSec, 0.0);
    EXPECT_LE(rep.p50Ms, rep.p99Ms);
    EXPECT_GT(rep.wallMs, 0.0);
    for (const auto &res : rep.results) {
        EXPECT_GE(res.queueMs, 0.0);
        EXPECT_GE(res.execMs, 0.0);
        EXPECT_GE(res.worker, 0);
        EXPECT_LT(res.worker, 3);
        EXPECT_LE(res.queueMs + res.execMs, rep.wallMs + 1.0);
    }
    // One context per worker that ran anything; every other request
    // reused its worker's context.
    EXPECT_GE(rep.pool.created, 1u);
    EXPECT_LE(rep.pool.created, 3u);
    EXPECT_EQ(rep.pool.created + rep.pool.reused,
              static_cast<uint64_t>(kRequests));
    EXPECT_EQ(rep.pool.discarded, 0u);
}

TEST(ServeBatch, RequestFailureIsIsolated)
{
    // One malformed request (missing args) must fail alone; the batch
    // and every other request complete normally.
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    constexpr int kRequests = 6;
    std::vector<serve::Request> requests(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        serve::Request &req = requests[i];
        if (i == 2)
            continue; // no prepare, no args: preflight rejection
        req.prepare = [&app, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, 5);
        };
    }
    serve::ServeOptions opts;
    opts.workers = 2;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(rep.succeeded, static_cast<size_t>(kRequests - 1));
    EXPECT_FALSE(rep.results[2].ok);
    EXPECT_NE(rep.results[2].error.find("arguments"), std::string::npos);
    for (int i = 0; i < kRequests; ++i) {
        if (i == 2)
            continue;
        EXPECT_TRUE(rep.results[i].ok) << rep.results[i].error;
    }
    // Preflight rejections do not poison, so nothing was discarded.
    EXPECT_EQ(rep.pool.discarded, 0u);
}

TEST(ServeBatch, MidRunThrowDiscardsOnlyThatContext)
{
    // {0} divides by zero mid-run, poisoning the worker's context: that
    // request alone fails, the context is dropped, and the next request
    // runs on a freshly built one with interpreter-identical results.
    auto artifact = CompiledArtifact::build(
        "DRAM<int> out; void main(int n) { out[0] = 100 / n; }");
    const std::vector<std::vector<int32_t>> args = {{5}, {0}, {4}};
    std::vector<serve::Request> requests(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        requests[i].args = args[i];
        requests[i].prepare = [](lang::DramImage &dram) {
            dram.resize("out", 4);
        };
    }
    serve::ServeOptions opts;
    opts.workers = 1;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);

    EXPECT_EQ(rep.failed, 1u);
    EXPECT_FALSE(rep.results[1].ok);
    EXPECT_NE(rep.results[1].error.find("division by zero"),
              std::string::npos)
        << rep.results[1].error;
    EXPECT_EQ(rep.pool.discarded, 1u);
    EXPECT_EQ(rep.pool.created, 2u);
    for (size_t i : {size_t{0}, size_t{2}}) {
        ASSERT_TRUE(rep.results[i].ok) << rep.results[i].error;
        lang::DramImage ref(artifact->hir());
        ref.resize("out", 4);
        artifact->interpret(ref, args[i]);
        EXPECT_EQ(dramBytes(*rep.results[i].dram), dramBytes(ref))
            << "request " << i;
    }
}
