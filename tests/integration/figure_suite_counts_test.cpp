// Pins the deterministic work of one cold figure suite (the run
// bench_headline times): compiles, schedule-cache lookups, kernel
// fingerprints, simulations, and the summed simulated cycles and DRAM
// counters of the Figure-15 grid, and the two headline app speedups
// read off that grid. A change that makes the suite do more work, or
// that moves a modeled count, fails here.
#include "figure_suite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "kernel/ir.h"
#include "sched/schedule_cache.h"

namespace {
std::atomic<uint64_t> g_fingerprints{0};
} // namespace

// The test links with --wrap for kernel::fingerprint(const Kernel &),
// so every call made from another object file lands here first.
#define FINGERPRINT_WRAP __wrap__ZN3sps6kernel11fingerprintERKNS0_6KernelE
#define FINGERPRINT_REAL __real__ZN3sps6kernel11fingerprintERKNS0_6KernelE
extern "C" {
uint64_t FINGERPRINT_REAL(const sps::kernel::Kernel &);
uint64_t
FINGERPRINT_WRAP(const sps::kernel::Kernel &k)
{
    g_fingerprints.fetch_add(1, std::memory_order_relaxed);
    return FINGERPRINT_REAL(k);
}
}

namespace sps {
namespace {

TEST(FigureSuiteCountsTest, ColdSuiteDoesExactlyThePinnedWork)
{
    core::EvalEngine serial(1);
    sched::ScheduleCache &cache = serial.cache();
    cache.clear();
    svc::EvalService service(&serial);
    g_fingerprints = 0;

    bench::FigureSuiteRun run = bench::runFigureSuite(serial, service);

    const sched::ScheduleCache::Counters cc = cache.counters();
    EXPECT_EQ(cc.misses, 240u) << "schedule compiles";
    EXPECT_EQ(cc.hits + cc.misses + cc.diskHits, 446u)
        << "schedule-cache lookups";
    EXPECT_EQ(g_fingerprints.load(), 706u) << "kernel fingerprints";
    EXPECT_EQ(service.counters().computed, 120u) << "simulations";

    ASSERT_EQ(run.fig15.size(), 120u);
    int64_t cycles = 0, accesses = 0, hits = 0, conflicts = 0,
            reorder = 0;
    for (const core::AppPoint &p : run.fig15) {
        const sim::SimCounters &c = p.result.counters;
        cycles += p.result.cycles;
        accesses += c.dramAccesses;
        hits += c.dramRowHits;
        conflicts += c.dramBankConflicts;
        reorder += c.dramReorderSum;
    }
    EXPECT_EQ(cycles, 43463315);
    EXPECT_EQ(accesses, 27921920);
    EXPECT_EQ(hits, 27858321);
    EXPECT_EQ(conflicts, 53765);
    EXPECT_EQ(reorder, 638048);

    // The headline app speedups read this grid: no further sims.
    EXPECT_DOUBLE_EQ(core::harmonicMeanSpeedup(run.fig15, {128, 5}),
                     7.4260798951187983);
    EXPECT_DOUBLE_EQ(core::harmonicMeanSpeedup(run.fig15, {128, 10}),
                     8.785366712071097);
    EXPECT_EQ(service.counters().computed, 120u)
        << "the headline must not simulate";
}

} // namespace
} // namespace sps
