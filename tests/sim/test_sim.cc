/**
 * @file
 * Tests for the machine/resource/performance models and the allocator
 * load-balance simulation: internal-consistency properties (ideal
 * models can only help, disabling passes can only cost resources,
 * load shares track region speed) rather than absolute numbers.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "apps/harness.hh"
#include "sim/loadbalance.hh"
#include "sim/machine.hh"

using namespace revet;

TEST(Machine, TableTwoParameters)
{
    sim::MachineConfig m;
    EXPECT_EQ(m.numCU, 200);
    EXPECT_EQ(m.numMU, 200);
    EXPECT_EQ(m.numAG, 80);
    EXPECT_EQ(m.lanes, 16);
    EXPECT_EQ(m.stages, 6);
    EXPECT_GT(m.dramBytesPerCycle(), 400.0);
    EXPECT_LT(m.dramBytesPerCycle(), 600.0);
    EXPECT_GT(m.randomBurstsPerCycle(), 0.5);
}

class ModelPerApp : public ::testing::TestWithParam<std::string>
{};

TEST_P(ModelPerApp, IdealModelsOnlyHelp)
{
    const auto &app = apps::findApp(GetParam());
    auto run = apps::runApp(app, 8);
    ASSERT_TRUE(run.verified) << run.verifyError;
    const double eps = 1e-9;
    EXPECT_GE(run.perfD.gbPerSec + eps, run.perf.gbPerSec);
    EXPECT_GE(run.perfSN.gbPerSec + eps, run.perf.gbPerSec);
    EXPECT_GE(run.perfSND.gbPerSec + eps, run.perfD.gbPerSec);
    EXPECT_GE(run.perfSND.gbPerSec + eps, run.perfSN.gbPerSec);
    EXPECT_GT(run.perf.gbPerSec, 0.0);
}

TEST_P(ModelPerApp, ResourcesWithinMachineAndClassified)
{
    const auto &app = apps::findApp(GetParam());
    sim::MachineConfig machine;
    auto run = apps::runApp(app, 8);
    const auto &r = run.resources;
    EXPECT_GE(r.outerParallel, 1);
    EXPECT_LE(r.totalCU, machine.numCU);
    EXPECT_LE(r.totalMU, machine.numMU);
    EXPECT_LE(r.totalAG, machine.numAG);
    EXPECT_GT(r.totalCU, 0);
    EXPECT_GT(r.lanesTotal, 0);
    EXPECT_GT(r.vectorLinks, 0);
}

TEST_P(ModelPerApp, DisablingIfConvNeverSavesResources)
{
    const auto &app = apps::findApp(GetParam());
    auto base = apps::runApp(app, 8);
    CompileOptions no_ifconv;
    no_ifconv.passes.ifToSelect = false;
    auto ablated = apps::runApp(app, 8, no_ifconv);
    ASSERT_TRUE(ablated.verified) << ablated.verifyError;
    // Compare one stream's footprint.
    double base_cu = static_cast<double>(base.resources.totalCU) /
        base.resources.outerParallel;
    double abl_cu = static_cast<double>(ablated.resources.totalCU) /
        ablated.resources.outerParallel;
    EXPECT_GE(abl_cu + 1e-9, base_cu) << "if-to-select should never "
                                         "increase resources when on";
}

TEST_P(ModelPerApp, AurochsModeNeverFaster)
{
    const auto &app = apps::findApp(GetParam());
    auto revet_run = apps::runApp(app, 8);
    auto aurochs_run = apps::runApp(app, 8, {}, {}, true);
    EXPECT_GE(revet_run.perf.gbPerSec + 1e-9,
              aurochs_run.perf.gbPerSec);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, ModelPerApp,
    ::testing::Values("isipv4", "ip2int", "murmur3", "hash-table",
                      "search", "huff-dec", "huff-enc", "kD-tree"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(LoadBalance, EvenSplitWhenUniform)
{
    sim::LoadBalanceConfig cfg;
    cfg.slowdown = 1.0;
    auto r = sim::simulateLoadBalance(100000, cfg);
    for (double share : r.regionSharePct)
        EXPECT_NEAR(share, 100.0 / cfg.regions, 0.5);
}

TEST(LoadBalance, SlowRegionGetsLessWork)
{
    sim::LoadBalanceConfig cfg;
    cfg.slowdown = 1.3;
    auto r = sim::simulateLoadBalance(1000000, cfg);
    double fast_avg = 0;
    for (int i = 1; i < cfg.regions; ++i)
        fast_avg += r.regionSharePct[i];
    fast_avg /= cfg.regions - 1;
    EXPECT_LT(r.regionSharePct[0], 10.5); // paper: <10%
    EXPECT_GT(fast_avg, 12.0);            // paper: ~14%
    // Near-ideal, clearly better than a static split.
    EXPECT_LT(r.slowdownVsIdeal, 1.1);
    EXPECT_GT(r.speedupVsStatic, 1.15); // paper: avoids ~21% slowdown
}

TEST(LoadBalance, ShareSharpensWithScale)
{
    sim::LoadBalanceConfig cfg;
    auto small = sim::simulateLoadBalance(10000, cfg);
    auto large = sim::simulateLoadBalance(1000000, cfg);
    // Larger runs converge toward the ideal proportional split; the
    // slow region's share stays depressed well below the 12.5% even
    // split at any scale.
    EXPECT_LE(large.regionSharePct[0], 10.5);
    EXPECT_LE(large.slowdownVsIdeal, small.slowdownVsIdeal + 1e-9);
}

TEST(LoadBalance, MoreSlowRegionsShiftMoreWork)
{
    sim::LoadBalanceConfig one;
    one.slowRegions = 1;
    sim::LoadBalanceConfig three;
    three.slowRegions = 3;
    auto r1 = sim::simulateLoadBalance(300000, one);
    auto r3 = sim::simulateLoadBalance(300000, three);
    EXPECT_GT(r3.totalCycles, r1.totalCycles);
}
