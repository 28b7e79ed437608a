/**
 * @file
 * Serving-layer gates: what the serving path adds on top of a bare
 * execution, and request-level scaling.
 *
 * Two modes over the same requests (Table III fixtures, fixed scale,
 * one thread), so the ratio isolates what serving itself costs:
 *
 *  - bare: one graph::ExecutionContext over the artifact, reset and
 *    reused by ExecutionContext::run for every request, in a plain
 *    loop — the floor any serving layer is measured against.
 *  - served: every request looks its program up in the process-wide
 *    ArtifactCache (a hit), then the batch runs through
 *    serve::serveBatch on one worker, which reuses one context.
 *
 * Acceptance gates (exit non-zero on violation, like exec_dispatch):
 *  - every request in both modes succeeds and the first request's
 *    DRAM output passes the app's golden verifier (bare and through a
 *    4-worker serveBatch);
 *  - the artifact cache serves exactly requests-1 hits per fixture
 *    (one miss, then all hits);
 *  - serving overhead: over interleaved served/bare batch pairs (after
 *    one untimed warm-up pair), the median served/bare wall-time ratio
 *    is <= 1.25x on every fixture;
 *  - request-level scaling: serveBatch at 4 workers is >= 2x faster
 *    than at 1 worker on search and huff-enc (scale 16). Each request
 *    runs single-threaded, so this is where the host's cores are used.
 *    Untimed 4-worker warm-up batches run first for at least
 *    kScalingWarmupMs: the first ~1 s of multi-threaded load after
 *    idle can run 4 threads no faster than one, and a fixed number of
 *    batches covers less of that second the faster the executor gets.
 *    Then the gate times interleaved 1-worker/4-worker pairs and
 *    takes the median per-pair ratio. Skipped with a note when the
 *    host has fewer than 4 hardware threads.
 *
 * Emits one JSON row per (fixture, mode) for the CI artifact.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "core/serve.hh"

using namespace revet;

namespace
{

constexpr int kScale = 16;
constexpr int kRequests = 32;
constexpr int kWorkers = 4;

constexpr int kOverheadPairs = 7;
constexpr double kMaxOverhead = 1.25;

constexpr int kScalingRequests = 24;
constexpr int kScalingPairs = 5;
constexpr double kScalingWarmupMs = 1000;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

/** Point every request's prepare hook at @p app's input generator at
 * kScale; the hook stores main()'s arguments into its own request. */
void
generateInputs(std::vector<serve::Request> &requests, const apps::App &app)
{
    for (serve::Request &req : requests) {
        req.prepare = [&app, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, kScale);
        };
    }
}

/** Bare floor: kRequests runs on one reused context; returns the wall
 * time. The first request's output is checked (outside the clock)
 * when @p verify is non-null. */
double
bareBatchMs(const apps::App &app, const CompiledArtifact &artifact,
            graph::ExecutionContext &ctx, std::string *verify)
{
    double ms = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Clock::time_point start = Clock::now();
        lang::DramImage dram(artifact.hir());
        auto args = app.generate(dram, kScale);
        ctx.run(dram, args);
        ms += msSince(start);
        if (i == 0 && verify)
            *verify = app.verify(dram, kScale);
    }
    return ms;
}

/** Served: a cache lookup per request, then one serveBatch on one
 * worker; returns the wall time, and false in @p ok on any failure. */
double
servedBatchMs(const apps::App &app, bool &ok)
{
    const Clock::time_point start = Clock::now();
    std::shared_ptr<const CompiledArtifact> artifact;
    for (int i = 0; i < kRequests; ++i)
        artifact = ArtifactCache::global().get(app.source);
    std::vector<serve::Request> requests(kRequests);
    generateInputs(requests, app);
    serve::ServeOptions opts;
    opts.workers = 1;
    opts.keepDram = false;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);
    const double ms = msSince(start);
    ok &= rep.failed == 0;
    return ms;
}

void
printJson(const std::string &fixture, const char *mode, double batchMs,
          double overhead)
{
    std::printf("{\"bench\":\"serve_throughput\",\"fixture\":\"%s\","
                "\"mode\":\"%s\",\"requests\":%d,\"workers\":1,"
                "\"scale\":%d,\"batch_ms\":%.3f,\"req_per_sec\":%.1f,"
                "\"overhead\":%.4f}\n",
                fixture.c_str(), mode, kRequests, kScale, batchMs,
                kRequests / (batchMs / 1000.0), overhead);
}

/** Correctness, hit rate and the serving-overhead gate for one
 * fixture. */
bool
runOverheadGate(const apps::App &app)
{
    bool ok = true;
    const char *name = app.name.c_str();

    // One miss, then all hits.
    ArtifactCache::global().clear();
    std::shared_ptr<const CompiledArtifact> artifact;
    for (int i = 0; i < kRequests; ++i)
        artifact = ArtifactCache::global().get(app.source);
    const auto cache = ArtifactCache::global().stats();
    const double hit_rate = static_cast<double>(cache.hits) /
        static_cast<double>(cache.hits + cache.misses);
    const double expected_hits =
        static_cast<double>(kRequests - 1) / kRequests;
    if (hit_rate < expected_hits - 1e-9) {
        std::printf("  FAIL(%s): cache hit rate %.4f below the "
                    "one-miss-then-hits %.4f\n",
                    name, hit_rate, expected_hits);
        ok = false;
    }

    // Correctness through the multi-worker serving path.
    std::vector<serve::Request> requests(kRequests);
    generateInputs(requests, app);
    serve::ServeOptions opts;
    opts.workers = kWorkers;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);
    if (rep.failed || rep.results.empty() || !rep.results[0].dram ||
        !app.verify(*rep.results[0].dram, kScale).empty()) {
        std::printf("  FAIL(%s): served batch failed=%zu or first "
                    "request did not verify\n",
                    name, rep.failed);
        ok = false;
    }

    auto ctx = artifact->makeContext();
    std::string bare_error;
    bool served = true;
    bareBatchMs(app, *artifact, *ctx, &bare_error); // warm-up pair
    servedBatchMs(app, served);
    if (!bare_error.empty()) {
        std::printf("  FAIL(%s): bare run did not verify: %s\n", name,
                    bare_error.c_str());
        ok = false;
    }

    std::vector<double> ratios, bare_ms, served_ms;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        double b = 0, s = 0;
        if (pair % 2 == 0) {
            b = bareBatchMs(app, *artifact, *ctx, nullptr);
            s = servedBatchMs(app, served);
        } else {
            s = servedBatchMs(app, served);
            b = bareBatchMs(app, *artifact, *ctx, nullptr);
        }
        bare_ms.push_back(b);
        served_ms.push_back(s);
        ratios.push_back(s / b);
    }
    const double overhead = percentile(ratios, 50.0);
    const double bare_med = percentile(bare_ms, 50.0);
    const double served_med = percentile(served_ms, 50.0);
    std::printf("  %-10s bare %7.2f ms  served %7.2f ms per batch "
                "(medians)  overhead %.3fx  hit rate %.3f\n",
                name, bare_med, served_med, overhead, hit_rate);
    printJson(app.name, "bare", bare_med, 1.0);
    printJson(app.name, "served", served_med, overhead);
    if (!served) {
        std::printf("  FAIL(%s): a served request failed\n", name);
        ok = false;
    }
    if (overhead > kMaxOverhead) {
        std::printf("  FAIL(%s): serving costs %.3fx a bare run, above "
                    "the %.2fx bar\n",
                    name, overhead, kMaxOverhead);
        ok = false;
    }
    return ok;
}

/** Wall time of one serveBatch of kScalingRequests over @p artifact
 * at @p workers; false in @p ok if any request failed. */
double
scalingBatchMs(const apps::App &app,
               const std::shared_ptr<const CompiledArtifact> &artifact,
               int workers, bool &ok)
{
    std::vector<serve::Request> requests(kScalingRequests);
    generateInputs(requests, app);
    serve::ServeOptions opts;
    opts.workers = workers;
    opts.keepDram = false;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);
    ok &= rep.failed == 0;
    return rep.wallMs;
}

/** Request-level scaling gate: median 1-worker / 4-worker wall-time
 * ratio over interleaved pairs must be >= 2x. */
bool
runScalingGate()
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("\nserve_throughput: request-level scaling, %d requests "
                "per batch, 1 vs %d workers, scale %d, median of %d "
                "interleaved pairs, host hardware threads: %u\n",
                kScalingRequests, kWorkers, kScale, kScalingPairs, hw);
    bool ok = true;
    double warmup_ms = 0;
    for (const char *name : {"search", "huff-enc"}) {
        const apps::App &app = apps::findApp(name);
        auto artifact = CompiledArtifact::build(app.source);
        bool served = true;
        // Once per run: the timed pairs keep the host loaded after it.
        while (warmup_ms < kScalingWarmupMs)
            warmup_ms += scalingBatchMs(app, artifact, kWorkers, served);
        std::vector<double> ratios;
        double one_ms = 0;
        double four_ms = 0;
        for (int pair = 0; pair < kScalingPairs; ++pair) {
            const double t1 = scalingBatchMs(app, artifact, 1, served);
            const double t4 =
                scalingBatchMs(app, artifact, kWorkers, served);
            one_ms += t1;
            four_ms += t4;
            ratios.push_back(t1 / t4);
        }
        const double speedup = percentile(ratios, 50.0);
        std::printf("  %-10s 1 worker %7.1f ms  %d workers %7.1f ms  "
                    "(mean per batch)  median speedup %.2fx\n",
                    name, one_ms / kScalingPairs, kWorkers,
                    four_ms / kScalingPairs, speedup);
        std::printf("{\"bench\":\"serve_throughput\",\"fixture\":"
                    "\"%s\",\"mode\":\"scaling\",\"requests\":%d,"
                    "\"workers\":%d,\"scale\":%d,\"speedup\":%.2f}\n",
                    name, kScalingRequests, kWorkers, kScale, speedup);
        if (!served) {
            std::printf("  FAIL(%s): a scaling-batch request failed\n",
                        name);
            ok = false;
        }
        if (hw < 4) {
            std::printf("  SKIP(%s): the >= 2x gate needs >= 4 hardware "
                        "threads (host has %u); measured informationally\n",
                        name, hw);
        } else if (speedup < 2.0) {
            std::printf("  FAIL(%s): %d-worker speedup %.2fx below the "
                        "2x request-scaling bar\n",
                        name, kWorkers, speedup);
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main()
{
    std::printf("serve_throughput: cache lookup + serveBatch vs bare "
                "ExecutionContext::run, %d requests, 1 worker, scale %d, "
                "median of %d interleaved pairs\n",
                kRequests, kScale, kOverheadPairs);
    bool ok = true;
    for (const char *name : {"murmur3", "isipv4"})
        ok &= runOverheadGate(apps::findApp(name));
    ok &= runScalingGate();
    return ok ? 0 : 1;
}
