/**
 * @file
 * Bytecode execution cost per app, against the native kernels.
 *
 * Every Table III app is compiled once and run kRepeats times on one
 * reused ExecutionContext under the worklist policy (best-of-N wall
 * time). Per app it reports:
 *  - ns per scheduler quantum (dispatch cost);
 *  - ns per token pushed (all links, data and barriers);
 *  - the multiple of the app's 1-thread native C++ kernel in
 *    src/baselines/cpu.cc at the same scale, plus the geomean of that
 *    multiple over the apps.
 *
 * Correctness gates (exit non-zero on violation):
 *  - DRAM passes the app's golden verify() on every run;
 *  - every run drains;
 *  - scheduler quanta equal the per-app pin (captured at scale 192
 *    when the step-object executor still ran and agreed), so a timing
 *    change is the same work done cheaper, not less work.
 * Timings are reported, not gated.
 *
 * Emits one JSON row per app for the CI artifact.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "baselines/baselines.hh"
#include "core/revet.hh"
#include "lang/dram_image.hh"

using revet::CompiledArtifact;
using revet::lang::DramImage;

namespace
{

constexpr int kScale = 192;
constexpr int kRepeats = 5;

struct Pin
{
    const char *app;
    uint64_t quanta;
};

const Pin kQuanta[] = {
    {"isipv4", 120718},    {"ip2int", 112293},  {"murmur3", 102651},
    {"hash-table", 227935}, {"search", 1421137}, {"huff-dec", 1873126},
    {"huff-enc", 1317512}, {"kD-tree", 575194},
};

struct RunResult
{
    double ms = 0; ///< best-of-kRepeats wall time
    uint64_t quanta = 0;
    uint64_t tokens = 0;
    std::string error; ///< first correctness failure, if any
};

RunResult
runApp(const CompiledArtifact &art, const revet::apps::App &app)
{
    RunResult out;
    auto ctx = art.makeContext();
    for (int rep = 0; rep < kRepeats; ++rep) {
        DramImage dram(art.hir());
        auto args = app.generate(dram, kScale);
        auto t0 = std::chrono::steady_clock::now();
        auto stats = ctx->run(dram, args);
        auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < out.ms)
            out.ms = ms;
        out.quanta = stats.schedQuanta;
        out.tokens = 0;
        for (uint64_t t : stats.linkTokens)
            out.tokens += t;
        if (!stats.drained && out.error.empty())
            out.error = "did not drain";
        const std::string bad = app.verify(dram, kScale);
        if (!bad.empty() && out.error.empty())
            out.error = "verify: " + bad;
    }
    return out;
}

} // namespace

int
main()
{
    bool ok = true;
    double log_x_sum = 0;
    int apps = 0;

    std::printf("exec_dispatch: bytecode executor, worklist policy, "
                "scale %d, best of %d, reused context\n",
                kScale, kRepeats);
    for (const Pin &pin : kQuanta) {
        const revet::apps::App &app = revet::apps::findApp(pin.app);
        auto art = CompiledArtifact::build(app.source);
        const RunResult r = runApp(*art, app);

        const double ns_per_quantum =
            r.quanta == 0 ? 0.0 : r.ms * 1e6 / static_cast<double>(r.quanta);
        const double ns_per_token =
            r.tokens == 0 ? 0.0 : r.ms * 1e6 / static_cast<double>(r.tokens);
        const double gbs = revet::baselines::cpuThroughputGBs(app, kScale, 1);
        const double native_ms =
            static_cast<double>(app.accountedBytes(kScale)) / (gbs * 1e9) *
            1e3;
        const double native_x = r.ms / native_ms;
        log_x_sum += std::log(native_x);
        ++apps;

        std::printf("  %-10s %8.2f ms  %6.1f ns/quantum  %5.1f ns/token  "
                    "%7.0fx native (%llu quanta)\n",
                    app.name.c_str(), r.ms, ns_per_quantum, ns_per_token,
                    native_x, static_cast<unsigned long long>(r.quanta));
        std::printf("{\"bench\":\"exec_dispatch\",\"fixture\":\"%s\","
                    "\"scale\":%d,\"ms\":%.3f,\"quanta\":%llu,"
                    "\"tokens\":%llu,\"ns_per_quantum\":%.1f,"
                    "\"ns_per_token\":%.2f,\"native_ms\":%.4f,"
                    "\"native_x\":%.1f}\n",
                    app.name.c_str(), kScale, r.ms,
                    static_cast<unsigned long long>(r.quanta),
                    static_cast<unsigned long long>(r.tokens),
                    ns_per_quantum, ns_per_token, native_ms, native_x);

        if (!r.error.empty()) {
            std::printf("  FAIL(%s): %s\n", app.name.c_str(),
                        r.error.c_str());
            ok = false;
        }
        if (r.quanta != pin.quanta) {
            std::printf("  FAIL(%s): %llu quanta, pinned %llu — the "
                        "executor's useful work changed\n",
                        app.name.c_str(),
                        static_cast<unsigned long long>(r.quanta),
                        static_cast<unsigned long long>(pin.quanta));
            ok = false;
        }
    }
    std::printf("  geomean: %.0fx the native 1-thread kernels\n",
                std::exp(log_x_sum / apps));
    return ok ? 0 : 1;
}
