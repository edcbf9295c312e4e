#include "core/experiments.h"

#include <gtest/gtest.h>

#include "svc/eval_service.h"
#include "workloads/suite.h"

namespace sps::core {
namespace {

TEST(ExperimentsTest, IntraSpeedupsNormalizedAtBaseline)
{
    KernelSpeedupData d = kernelIntraSpeedups({2, 5, 10}, 8);
    ASSERT_EQ(d.axis, (std::vector<int>{2, 5, 10}));
    // Six kernels plus the harmonic mean.
    ASSERT_EQ(d.series.size(), 7u);
    for (const auto &s : d.series)
        EXPECT_NEAR(s.values[1], 1.0, 1e-9) << s.name;
}

TEST(ExperimentsTest, IntraSpeedupsGrowFrom2To10)
{
    KernelSpeedupData d = kernelIntraSpeedups({2, 5, 10}, 8);
    const auto &hm = d.series.back();
    EXPECT_EQ(hm.name, "harmonic mean");
    EXPECT_LT(hm.values[0], 1.0);
    EXPECT_GT(hm.values[2], 1.4);
}

TEST(ExperimentsTest, InterSpeedupsNearLinear)
{
    // Figure 14: intercluster scaling achieves near-linear kernel
    // speedups to 128 clusters.
    KernelSpeedupData d = kernelInterSpeedups({8, 32, 128}, 5);
    const auto &hm = d.series.back();
    EXPECT_NEAR(hm.values[1], 4.0, 0.4);
    EXPECT_NEAR(hm.values[2], 16.0, 1.6);
}

TEST(ExperimentsTest, PerfPerAreaGridShape)
{
    PerfPerAreaData t = table5PerfPerArea({2, 5}, {8, 32});
    ASSERT_EQ(t.value.size(), 2u);
    ASSERT_EQ(t.value[0].size(), 2u);
    for (const auto &row : t.value)
        for (double v : row) {
            EXPECT_GT(v, 0.0);
            EXPECT_LT(v, 1.0); // overhead keeps it below the ideal 1.0
        }
}

TEST(ExperimentsTest, PerfPerAreaDegradesBeyondN5)
{
    // Table 5: configurations with N > 5 have lower performance per
    // unit area; intercluster scaling barely affects it.
    PerfPerAreaData t = table5PerfPerArea({2, 5, 10, 14}, {8, 128});
    EXPECT_GT(t.value[1][0], t.value[2][0]); // N=5 beats N=10 at C=8
    EXPECT_GT(t.value[2][0], t.value[3][0]); // N=10 beats N=14
    // C scaling is mild: within ~20% across 8 -> 128 at N=5.
    EXPECT_NEAR(t.value[1][1] / t.value[1][0], 1.0, 0.2);
}

// Every app's point at the baseline machine is its own baseline:
// speedup exactly 1.0 and a real sustained rate.
TEST(ExperimentsTest, RunAppReturnsBaselineRelativeSpeedup)
{
    EvalEngine engine(2);
    svc::EvalService service(&engine);
    auto points = service.appPerformance({kBaseline.clusters},
                                         {kBaseline.alusPerCluster});
    ASSERT_EQ(points.size(), workloads::appSuite().size());
    for (const AppPoint &pt : points) {
        EXPECT_EQ(pt.size.clusters, kBaseline.clusters);
        EXPECT_EQ(pt.size.alusPerCluster, kBaseline.alusPerCluster);
        EXPECT_NEAR(pt.speedup, 1.0, 1e-9) << pt.app;
        EXPECT_GT(pt.gops, 1.0) << pt.app;
    }
}

TEST(ExperimentsTest, HeadlineCostDegradationsMatchAbstract)
{
    Headline h = headlineNumbers();
    EXPECT_NEAR(h.areaPerAluDegradation640, 0.02, 0.015);
    EXPECT_NEAR(h.energyPerOpDegradation640, 0.07, 0.02);
}

TEST(ExperimentsTest, HeadlineKernelSpeedupsScale)
{
    Headline h = headlineNumbers();
    // Paper: 15.3x kernel speedup for the 640-ALU machine, 27.9x for
    // 1280 ALUs. Allow a generous band: the shape (near-linear in C,
    // sublinear in N) is what matters.
    EXPECT_GT(h.kernelSpeedup640, 10.0);
    EXPECT_LT(h.kernelSpeedup640, 18.0);
    EXPECT_GT(h.kernelSpeedup1280, h.kernelSpeedup640);
    EXPECT_GT(h.kernelGops640, 150.0);
}

} // namespace
} // namespace sps::core
