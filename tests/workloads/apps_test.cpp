#include "workloads/suite.h"

#include <gtest/gtest.h>

#include "kernel/census.h"
#include "sim/processor.h"
#include "stream/deps.h"

namespace sps::workloads {
namespace {

sim::StreamProcessor
processorFor(int c, int n)
{
    sim::SimConfig cfg;
    cfg.size = vlsi::MachineSize{c, n};
    return sim::StreamProcessor(cfg);
}

/** Apps x machine sizes grid. */
class AppGridTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>>
{
};

TEST_P(AppGridTest, BuildsAndRunsWithinSrfCapacity)
{
    auto [name, c, n] = GetParam();
    const AppEntry *app = findApp(name);
    ASSERT_NE(app, nullptr) << "unknown app " << name;
    sim::StreamProcessor proc = processorFor(c, n);
    stream::StreamProgram prog =
        app->build(vlsi::MachineSize{c, n}, proc.srf());
    EXPECT_FALSE(prog.ops().empty());
    sim::SimResult r = proc.run(prog);
    EXPECT_GT(r.cycles, 0);
    EXPECT_GT(r.gopsOps, 0.0);
    // Strip-mining must keep the working set inside the SRF.
    EXPECT_LE(r.srfHighWater, proc.srf().capacityWords)
        << name << " C=" << c << " N=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppGridTest,
    ::testing::Combine(::testing::Values("RENDER", "DEPTH", "CONV",
                                         "QRD", "FFT1K", "FFT4K"),
                       ::testing::Values(8, 32, 128),
                       ::testing::Values(2, 5, 10)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_C" +
               std::to_string(std::get<1>(info.param)) + "_N" +
               std::to_string(std::get<2>(info.param));
    });

TEST(AppsTest, SuiteHasSixApplications)
{
    auto apps = appSuite();
    ASSERT_EQ(apps.size(), 6u);
    EXPECT_EQ(apps[0].name, "RENDER");
    EXPECT_EQ(apps[5].name, "FFT4K");
}

TEST(AppsTest, FindAppLooksUpBySuiteName)
{
    for (const auto &app : appSuite()) {
        const AppEntry *found = findApp(app.name);
        ASSERT_NE(found, nullptr) << app.name;
        EXPECT_EQ(found->name, app.name);
        // One static suite: every lookup hands out the same entry.
        EXPECT_EQ(findApp(app.name), found);
    }
    EXPECT_EQ(findApp("NOSUCHAPP"), nullptr);
}

TEST(AppsTest, ProgramsHaveValidDependences)
{
    sim::StreamProcessor proc = processorFor(8, 5);
    for (const auto &app : appSuite()) {
        stream::StreamProgram prog =
            app.build(vlsi::MachineSize{8, 5}, proc.srf());
        stream::ProgramDeps deps = stream::analyzeDeps(prog);
        for (size_t i = 0; i < prog.ops().size(); ++i)
            for (int d : deps.deps[i])
                EXPECT_LT(d, static_cast<int>(i)) << app.name;
    }
}

TEST(AppsTest, DepthMovesBothImagesThroughMemory)
{
    sim::StreamProcessor proc = processorFor(8, 5);
    stream::StreamProgram prog =
        buildDepth(vlsi::MachineSize{8, 5}, proc.srf());
    sim::SimResult r = proc.run(prog);
    // Two packed 512x384 16-bit images in, one SAD map out.
    int64_t image_words = 512 * 384 / 2;
    EXPECT_GE(r.memWords, 2 * image_words);
    EXPECT_LT(r.memWords, 4 * image_words);
}

TEST(AppsTest, QrdResidencySwitchesWithSrfCapacity)
{
    // Small machine: strip-mined (many loads). Large machine: matrix
    // resident (two big transfers plus panel work only).
    sim::StreamProcessor small = processorFor(8, 5);
    stream::StreamProgram sp =
        buildQrd(vlsi::MachineSize{8, 5}, small.srf());
    sim::StreamProcessor big = processorFor(128, 10);
    stream::StreamProgram bp =
        buildQrd(vlsi::MachineSize{128, 10}, big.srf());
    int64_t small_mem = small.run(sp).memWords;
    int64_t big_mem = big.run(bp).memWords;
    EXPECT_GT(small_mem, 4 * big_mem);
    EXPECT_GE(big_mem, 2LL * 256 * 256);
}

TEST(AppsTest, FftAppsKeepDataInSrf)
{
    // FFT1K never touches memory (data and twiddles resident).
    sim::StreamProcessor proc = processorFor(8, 5);
    stream::StreamProgram p1 =
        buildFftApp(vlsi::MachineSize{8, 5}, proc.srf(), 1024);
    EXPECT_EQ(proc.run(p1).memWords, 0);
}

TEST(AppsTest, Fft4kSpillsTwiddlesOnSmallMachines)
{
    // Section 5.3: FFT4K's working set spills on the C=8 N=5 machine
    // but fits on large ones.
    sim::StreamProcessor small = processorFor(8, 5);
    stream::StreamProgram sp =
        buildFftApp(vlsi::MachineSize{8, 5}, small.srf(), 4096);
    EXPECT_GT(small.run(sp).memWords, 0);

    sim::StreamProcessor big = processorFor(128, 10);
    stream::StreamProgram bp =
        buildFftApp(vlsi::MachineSize{128, 10}, big.srf(), 4096);
    EXPECT_EQ(big.run(bp).memWords, 0);
}

TEST(AppsTest, FftStageCountMatchesRadix4Depth)
{
    sim::StreamProcessor proc = processorFor(8, 5);
    stream::StreamProgram p1 =
        buildFftApp(vlsi::MachineSize{8, 5}, proc.srf(), 1024);
    int kernel_calls = 0;
    for (const auto &op : p1.ops())
        if (op.kind == stream::OpKind::Kernel)
            ++kernel_calls;
    EXPECT_EQ(kernel_calls, 5); // log4(1024)
}

TEST(AppsTest, RenderSpendsMostOpsInFragmentShading)
{
    sim::StreamProcessor proc = processorFor(8, 5);
    stream::StreamProgram prog =
        buildRender(vlsi::MachineSize{8, 5}, proc.srf());
    int64_t frag_records = 0, tri_records = 0;
    for (const auto &op : prog.ops()) {
        if (op.kind != stream::OpKind::Kernel)
            continue;
        if (op.k->name == "noise")
            frag_records += op.records;
        if (op.k->name == "xform")
            tri_records += op.records;
    }
    EXPECT_GT(frag_records, 8 * tri_records);
}

TEST(AppsTest, HousegenKernelScalesCommWithClusters)
{
    kernel::Census c8 = kernel::takeCensus(housegenKernel(8));
    kernel::Census c128 = kernel::takeCensus(housegenKernel(128));
    EXPECT_EQ(c8.comms, 3);   // log2(8)
    EXPECT_EQ(c128.comms, 7); // log2(128)
}

} // namespace
} // namespace sps::workloads
