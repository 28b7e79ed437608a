/**
 * @file
 * Reproduces Section VI-B(c): Revet vs Aurochs on kD-tree traversal.
 * Aurochs (the original dataflow-threads machine) lacks thread-local
 * SRAM — live variables recirculate through the pipeline and must be
 * duplicated on every fork — and cannot vectorize the per-node
 * comparisons with a nested foreach. The paper reports Revet >11x
 * faster.
 */

#include <cstdio>

#include "apps/harness.hh"

int
main()
{
    const auto &kd = revet::apps::findApp("kD-tree");
    auto revet_run = revet::apps::runApp(kd, 64);
    auto aurochs_run = revet::apps::runApp(kd, 64, {}, {},
                                           /*aurochs_mode=*/true);
    std::printf("=== Section VI-B(c): kD-tree, Revet vs Aurochs ===\n");
    std::printf("Revet   : %8.1f GB/s (%s)\n", revet_run.perf.gbPerSec,
                revet_run.verified ? "verified" : "UNVERIFIED");
    std::printf("Aurochs : %8.1f GB/s (no thread-local SRAM: ~10 live "
                "values recirculate;\n"
                "          no nested-foreach vectorization of the 15 "
                "node comparisons)\n",
                aurochs_run.perf.gbPerSec);
    std::printf("Speedup : %8.1fx   (paper: >11x)\n",
                revet_run.perf.gbPerSec / aurochs_run.perf.gbPerSec);
    return 0;
}
