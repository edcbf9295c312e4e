// Pins every modulo schedule the figure sweep produces. Each suite
// kernel is scheduled at the 20 Figure-15 design points, at every
// unroll factor the compiler tries, and the resulting II, stage count,
// length and per-node issue cycles are hashed together with the
// compiler's chosen variant. The digest was recorded from the original
// std::map/std::set reservation table, so any change in placement or
// eviction tie-breaking shows here even where the golden counters
// (one design point, cycle totals only) would not move.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/fnv.h"
#include "sched/depgraph.h"
#include "sched/kernel_perf.h"
#include "sched/machine.h"
#include "sched/modulo.h"
#include "sched/unroll.h"
#include "srf/srf.h"
#include "workloads/suite.h"

namespace sps::sched {
namespace {

/** The kernels one design point's figures use, in a fixed order: the
 *  Table-4 six, DCT, then every kernel the six applications call. */
std::vector<const kernel::Kernel *>
suiteKernels(vlsi::MachineSize size)
{
    std::vector<const kernel::Kernel *> out;
    auto add = [&](const kernel::Kernel *k) {
        if (std::find(out.begin(), out.end(), k) == out.end())
            out.push_back(k);
    };
    for (const workloads::KernelEntry &e : workloads::kernelSuite())
        add(e.kernel);
    add(&workloads::dctKernel());
    add(&workloads::housegenKernel(size.clusters));
    srf::SrfModel srf =
        srf::SrfModel::forMachine(size, vlsi::Params::imagine());
    for (const workloads::AppEntry &app : workloads::appSuite()) {
        stream::StreamProgram prog = app.build(size, srf);
        for (const stream::StreamOp &op : prog.ops())
            if (op.k != nullptr)
                add(op.k);
    }
    return out;
}

TEST(ScheduleDigestTest, Fig15PointsMatchRecordedSchedules)
{
    const CompileOptions opts;
    Fnv f;
    int schedules = 0;
    for (int c : {8, 16, 32, 64, 128}) {
        for (int n : {2, 5, 10, 14}) {
            vlsi::MachineSize size{c, n};
            MachineModel m = MachineModel::forSize(size);
            for (const kernel::Kernel *k : suiteKernels(size)) {
                f.mix(k->name);
                if (!m.canExecute(*k)) {
                    f.mix(uint64_t{0});
                    continue;
                }
                for (int u : opts.unrollFactors) {
                    if (static_cast<int>(k->ops.size()) * u > opts.maxOps)
                        continue;
                    DepGraph g = buildDepGraph(unrollKernel(*k, u), m);
                    ModuloSchedule s = moduloSchedule(g, m);
                    f.mix(static_cast<uint64_t>(u));
                    f.mix(static_cast<uint64_t>(s.ii));
                    f.mix(static_cast<uint64_t>(s.stages));
                    f.mix(static_cast<uint64_t>(s.length));
                    for (int t : s.issueCycle)
                        f.mix(static_cast<uint64_t>(t));
                    ++schedules;
                }
                CompiledKernel ck = compileKernel(*k, m, opts);
                for (int v : {ck.unroll, ck.ii, ck.stages, ck.length,
                              ck.listLength, ck.ii1, ck.stages1,
                              ck.length1})
                    f.mix(static_cast<uint64_t>(v));
            }
        }
    }
    EXPECT_GT(schedules, 500);
    EXPECT_EQ(f.h, 0x1ad435f48ea335baull) << std::hex << "0x" << f.h;
}

} // namespace
} // namespace sps::sched
