/**
 * @file
 * Compile-phase gate: what per-pass translation validation adds to a
 * cold compile.
 *
 * One round builds all 8 Table III apps from source with
 * CompiledArtifact::build (no cache), once with
 * GraphPassOptions::validate on and once with it off. The two modes run
 * as interleaved pairs — on/off, then off/on, alternating — after one
 * untimed warm-up pair, so drift on the host hits both sides alike.
 *
 * Acceptance gates (exit non-zero on violation, like exec_dispatch):
 *  - validation overhead: the median over pairs of the on/off round
 *    time ratio is <= 2.0x;
 *  - coverage: with validation on, every app certifies exactly its
 *    pinned number of pass applications (validatedPasses), and with
 *    it off none;
 *  - validation only observes: both modes end with the same node and
 *    link counts per app.
 *
 * Emits one JSON row per app (median per-app build time in both modes)
 * and a summary row for the CI artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/revet.hh"

using namespace revet;

namespace
{

constexpr int kPairs = 7;
constexpr double kMaxOverhead = 2.0;

/** Pass applications each app certifies with validation on. */
const std::vector<std::pair<std::string, int>> kValidatedPasses = {
    {"isipv4", 12},  {"ip2int", 12},   {"murmur3", 11}, {"hash-table", 12},
    {"search", 12},  {"huff-dec", 11}, {"huff-enc", 11}, {"kD-tree", 10},
};

using Clock = std::chrono::steady_clock;

struct AppBuild
{
    double ms = 0;
    int validatedPasses = 0;
    int nodesAfter = 0;
    int linksAfter = 0;
};

/** One cold build of every app; returns the round's wall time. */
double
buildRound(bool validate, std::vector<AppBuild> &out)
{
    CompileOptions opts;
    opts.graphOpt.validate = validate;
    const auto &apps = apps::allApps();
    out.resize(apps.size());
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < apps.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        auto art = CompiledArtifact::build(apps[i].source, opts);
        out[i].ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        out[i].validatedPasses = art->optReport().validatedPasses;
        out[i].nodesAfter = art->optReport().nodesAfter;
        out[i].linksAfter = art->optReport().linksAfter;
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace

int
main()
{
    const auto &apps = apps::allApps();
    std::printf("compile_phase: cold CompiledArtifact::build of %zu apps, "
                "validate on vs off, median of %d interleaved pairs\n",
                apps.size(), kPairs);

    std::vector<AppBuild> on, off;
    buildRound(true, on); // warm-up pair, untimed
    buildRound(false, off);

    std::vector<double> ratios, on_rounds, off_rounds;
    std::vector<std::vector<double>> on_app(apps.size()),
        off_app(apps.size());
    bool ok = true;
    for (int pair = 0; pair < kPairs; ++pair) {
        double t_on = 0, t_off = 0;
        if (pair % 2 == 0) {
            t_on = buildRound(true, on);
            t_off = buildRound(false, off);
        } else {
            t_off = buildRound(false, off);
            t_on = buildRound(true, on);
        }
        on_rounds.push_back(t_on);
        off_rounds.push_back(t_off);
        ratios.push_back(t_on / t_off);
        for (size_t i = 0; i < apps.size(); ++i) {
            on_app[i].push_back(on[i].ms);
            off_app[i].push_back(off[i].ms);
        }
    }

    for (size_t i = 0; i < apps.size(); ++i) {
        const std::string &name = apps[i].name;
        int pinned = -1;
        for (const auto &[app, count] : kValidatedPasses)
            if (app == name)
                pinned = count;
        std::printf("{\"bench\":\"compile_phase\",\"app\":\"%s\","
                    "\"validate_on_ms\":%.3f,\"validate_off_ms\":%.3f,"
                    "\"validated_passes\":%d,\"nodes_after\":%d}\n",
                    name.c_str(), median(on_app[i]), median(off_app[i]),
                    on[i].validatedPasses, on[i].nodesAfter);
        if (on[i].validatedPasses != pinned) {
            std::printf("  FAIL(%s): %d validated passes, pinned %d\n",
                        name.c_str(), on[i].validatedPasses, pinned);
            ok = false;
        }
        if (off[i].validatedPasses != 0) {
            std::printf("  FAIL(%s): %d passes validated with validation "
                        "off\n",
                        name.c_str(), off[i].validatedPasses);
            ok = false;
        }
        if (on[i].nodesAfter != off[i].nodesAfter ||
            on[i].linksAfter != off[i].linksAfter) {
            std::printf("  FAIL(%s): validation changed the graph "
                        "(%d/%d nodes/links on, %d/%d off)\n",
                        name.c_str(), on[i].nodesAfter, on[i].linksAfter,
                        off[i].nodesAfter, off[i].linksAfter);
            ok = false;
        }
    }

    const double overhead = median(ratios);
    std::printf("  round: validate on %.1f ms, off %.1f ms (medians) — "
                "median on/off %.2fx (<= %.1fx required)\n",
                median(on_rounds), median(off_rounds), overhead,
                kMaxOverhead);
    std::printf("{\"bench\":\"compile_phase\",\"app\":\"all\","
                "\"pairs\":%d,\"validate_on_ms\":%.3f,"
                "\"validate_off_ms\":%.3f,\"overhead\":%.3f}\n",
                kPairs, median(on_rounds), median(off_rounds), overhead);
    if (overhead > kMaxOverhead) {
        std::printf("  FAIL(overhead): validation costs %.2fx a "
                    "non-validating compile, above the %.1fx bar\n",
                    overhead, kMaxOverhead);
        ok = false;
    }
    return ok ? 0 : 1;
}
