// How a simulation resolves its kernels: one schedule-cache lookup per
// distinct kernel of the program, however often the program calls it,
// and a program fingerprint (the persisted result-store key) that
// stays exactly what earlier builds wrote.
#include <gtest/gtest.h>

#include <set>

#include "sched/schedule_cache.h"
#include "sim/processor.h"
#include "srf/srf.h"
#include "stream/program.h"
#include "workloads/suite.h"

namespace sps::sim {
namespace {

TEST(KernelLookupTest, OneScheduleLookupPerDistinctKernel)
{
    sched::ScheduleCache &cache = sched::ScheduleCache::global();
    for (const workloads::AppEntry &app : workloads::appSuite()) {
        SimConfig cfg;
        cfg.size = vlsi::MachineSize{8, 5};
        StreamProcessor proc(cfg);
        stream::StreamProgram prog = app.build(cfg.size, proc.srf());
        std::set<const kernel::Kernel *> distinct;
        size_t calls = 0;
        for (const stream::StreamOp &op : prog.ops()) {
            if (op.kind == stream::OpKind::Kernel) {
                distinct.insert(op.k);
                ++calls;
            }
        }
        ASSERT_GT(calls, distinct.size()) << app.name;
        // A cold run compiles each kernel once; a second run of the
        // same program hits the cache once per kernel.
        for (int run = 0; run < 2; ++run) {
            cache.clear();
            if (run == 1)
                proc.run(prog); // warm the cache, then count afresh
            cache.clear();
            SimResult r = proc.run(prog);
            EXPECT_GT(r.cycles, 0);
            sched::ScheduleCache::Counters ctr = cache.counters();
            EXPECT_EQ(ctr.hits + ctr.misses + ctr.diskHits,
                      distinct.size())
                << app.name << " run " << run;
        }
    }
}

TEST(KernelLookupTest, ProgramFingerprintIsStable)
{
    // The result store keys simulations by programFingerprint, so a
    // change here orphans every stored entry. The constant was
    // recorded before kernels were fingerprinted once per program.
    vlsi::MachineSize size{8, 5};
    stream::StreamProgram prog = workloads::buildConvApp(
        size, srf::SrfModel::forMachine(size, vlsi::Params::imagine()));
    EXPECT_EQ(stream::programFingerprint(prog), 0xc09e0fcd0fccb0a1ull)
        << std::hex << "0x" << stream::programFingerprint(prog);
}

} // namespace
} // namespace sps::sim
