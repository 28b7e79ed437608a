/**
 * @file
 * Revet benchmark program.
 *
 *   revet_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--trace-out <file>]
 *
 * Runs one workload (compile-cold, exec-large, serve-batch,
 * serve-churn) for the given seconds, checks every output against the
 * app's host-computed golden, prints human-readable metric lines, and
 * ends with one JSON line: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs report the end-to-end metrics, traced runs
 * the per-layer ones (METRICS.md). Exits non-zero on any failed check.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload compile-cold|exec-large|serve-batch|"
                 "serve-churn --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const auto process_start = Clock::now();
    Run run;
    std::string trace_out;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload") {
            run.workload = val;
        } else if (key == "--seed") {
            run.seed = std::strtoull(val.c_str(), nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            run.seconds = std::strtod(val.c_str(), nullptr);
            have_seconds = run.seconds > 0;
        } else if (key == "--trace") {
            run.traced = val == "1";
        } else if (key == "--trace-out") {
            trace_out = val;
        } else {
            return usage(argv[0]);
        }
    }
    if (argc % 2 == 0 || !have_seed || !have_seconds)
        return usage(argv[0]);

    std::printf("revet perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                run.workload.c_str(),
                static_cast<unsigned long long>(run.seed), run.seconds,
                run.traced ? 1 : 0);
    if (run.workload == "compile-cold")
        runCompileCold(run);
    else if (run.workload == "exec-large")
        runExecLarge(run);
    else if (run.workload == "serve-batch")
        runServeBatch(run);
    else if (run.workload == "serve-churn")
        runServeChurn(run);
    else
        return usage(argv[0]);

    const uint64_t attempted = run.checks.attempted();
    const uint64_t failed = run.checks.failed();
    run.note("error_rate",
             attempted ? static_cast<double>(failed) / attempted : 0, "ratio",
             "n=" + std::to_string(attempted) + " checked operations");
    if (!run.traced)
        run.metric("peak_rss_mb", peakRssMb(), "MB", "getrusage max RSS");
    run.note("process_s", msBetween(process_start, Clock::now()) / 1e3, "s",
             "whole invocation");
    for (const std::string &e : run.checks.errors())
        std::printf("FAILED: %s\n", e.c_str());
    if (run.traced && !trace_out.empty()) {
        if (run.tracer.write(trace_out))
            std::printf("trace: %s\n", trace_out.c_str());
        else
            std::printf("trace: could not write %s\n", trace_out.c_str());
    }

    const bool correct = failed == 0 && attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < run.metrics.size(); ++i) {
        const Metric &m = run.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
