// Property tests for the store codecs: encode -> decode -> re-encode
// is byte-stable across every Table-4 kernel x machine size and for
// full app simulation results (timelines, counters, energy,
// bottleneck reports included), and decoding rejects every truncation
// and any trailing garbage instead of returning a partial object.
#include "store/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/design.h"
#include "core/experiments.h"
#include "sched/machine.h"
#include "sched/modulo.h"
#include "workloads/suite.h"

namespace sps::store {
namespace {

std::vector<uint8_t>
encodeCk(const sched::CompiledKernel &ck)
{
    ByteWriter w;
    encodeCompiledKernel(ck, &w);
    return w.bytes();
}

std::vector<uint8_t>
encodeRes(const sim::SimResult &r)
{
    ByteWriter w;
    encodeSimResult(r, &w);
    return w.bytes();
}

TEST(CodecTest, CompiledKernelRoundTripsByteStable)
{
    for (const auto &entry : workloads::kernelSuite()) {
        for (int c : {1, 3, 8, 16}) {
            sched::MachineModel m =
                sched::MachineModel::forSize(vlsi::MachineSize{c, 5});
            sched::CompiledKernel ck =
                sched::compileKernel(*entry.kernel, m);
            std::vector<uint8_t> bytes = encodeCk(ck);

            sched::CompiledKernel back;
            ASSERT_TRUE(decodeCompiledKernel(bytes, &back))
                << entry.name << " C=" << c;
            EXPECT_EQ(encodeCk(back), bytes)
                << entry.name << " C=" << c
                << ": re-encode must be byte-identical";
            EXPECT_EQ(back.ii, ck.ii);
            EXPECT_EQ(back.unroll, ck.unroll);
            EXPECT_EQ(back.length, ck.length);
            EXPECT_EQ(back.aluOpsPerIteration, ck.aluOpsPerIteration);
        }
    }
}

TEST(CodecTest, SimResultRoundTripsByteStable)
{
    for (const auto &app : workloads::appSuite()) {
        core::StreamProcessorDesign d(core::kBaseline);
        sim::StreamProcessor proc = d.makeProcessor();
        stream::StreamProgram prog =
            app.build(core::kBaseline, proc.srf());
        sim::SimResult res = proc.run(prog);
        ASSERT_FALSE(res.timeline.empty()) << app.name;

        std::vector<uint8_t> bytes = encodeRes(res);
        sim::SimResult back;
        ASSERT_TRUE(decodeSimResult(bytes, &back)) << app.name;
        EXPECT_EQ(encodeRes(back), bytes)
            << app.name << ": re-encode must be byte-identical";
        EXPECT_EQ(back.cycles, res.cycles);
        EXPECT_EQ(back.timeline.size(), res.timeline.size());
        EXPECT_EQ(back.counters.dramAccesses,
                  res.counters.dramAccesses);
        EXPECT_EQ(back.energy.valid, res.energy.valid);
        EXPECT_EQ(back.bottleneck.valid, res.bottleneck.valid);
    }
}

/** Doubles ride as raw bit patterns: -0.0, NaN, infinities, and
 *  denormals survive a round trip bit-exactly. */
TEST(CodecTest, SimResultEdgeDoublesAreBitExact)
{
    sim::SimResult res;
    res.cycles = std::numeric_limits<int64_t>::max();
    res.aluOps = -1;
    res.gopsOps = -0.0;
    res.energy.valid = true;
    res.energy.ewToJoules =
        std::numeric_limits<double>::quiet_NaN();
    res.energy.clockGHz = std::numeric_limits<double>::infinity();
    res.energy.srf.dynamicEw =
        std::numeric_limits<double>::denorm_min();
    res.counters.dramChannelBusyCycles = {0, -5,
                                          std::numeric_limits<
                                              int64_t>::min()};
    sim::OpInterval iv;
    iv.label = "store x\n\"quoted\"";
    iv.kind = sim::OpClass::Store;
    iv.opId = -1;
    res.timeline.push_back(iv);

    std::vector<uint8_t> bytes = encodeRes(res);
    sim::SimResult back;
    ASSERT_TRUE(decodeSimResult(bytes, &back));
    EXPECT_EQ(encodeRes(back), bytes);
    EXPECT_TRUE(std::signbit(back.gopsOps));
    EXPECT_TRUE(std::isnan(back.energy.ewToJoules));
    EXPECT_EQ(back.energy.srf.dynamicEw,
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(back.timeline.at(0).label, "store x\n\"quoted\"");
}

TEST(CodecTest, EveryTruncationFailsCleanly)
{
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    sched::CompiledKernel ck =
        sched::compileKernel(workloads::convolveKernel(), m);
    std::vector<uint8_t> bytes = encodeCk(ck);
    for (size_t n = 0; n < bytes.size(); ++n) {
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + n);
        sched::CompiledKernel out;
        EXPECT_FALSE(decodeCompiledKernel(cut, &out))
            << "prefix of " << n << " bytes decoded";
    }
}

TEST(CodecTest, SimResultTruncationsFailCleanly)
{
    sim::SimResult res;
    res.cycles = 42;
    res.counters.dramChannelBusyCycles = {1, 2};
    sim::OpInterval iv;
    iv.label = "k";
    res.timeline.push_back(iv);
    std::vector<uint8_t> bytes = encodeRes(res);
    for (size_t n = 0; n < bytes.size(); ++n) {
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + n);
        sim::SimResult out;
        EXPECT_FALSE(decodeSimResult(cut, &out))
            << "prefix of " << n << " bytes decoded";
    }
}

TEST(CodecTest, TrailingBytesAreRejected)
{
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    sched::CompiledKernel ck =
        sched::compileKernel(workloads::fftKernel(), m);
    std::vector<uint8_t> bytes = encodeCk(ck);
    bytes.push_back(0);
    sched::CompiledKernel out;
    EXPECT_FALSE(decodeCompiledKernel(bytes, &out));

    sim::SimResult res;
    std::vector<uint8_t> rbytes = encodeRes(res);
    rbytes.push_back(0xff);
    sim::SimResult rout;
    EXPECT_FALSE(decodeSimResult(rbytes, &rout));
}

/** A length prefix pointing past any sane size must fail without
 *  attempting the allocation. */
TEST(CodecTest, InsaneLengthPrefixFails)
{
    // SimResult layout starts with cycles/aluOps/gopsOps/.../
    // srfHighWater, then the timeline count.
    auto timelineClaiming = [](uint64_t count) {
        ByteWriter w;
        for (int i = 0; i < 7; ++i)
            w(int64_t{1});
        w(count);
        return w.bytes();
    };
    sim::SimResult out;
    EXPECT_FALSE(decodeSimResult(timelineClaiming(uint64_t(1) << 60),
                                 &out));
    // A count no larger than a plausible timeline, but more than the
    // bytes left: 2^27 OpIntervals would size an ~11 GB vector before
    // the first element is read.
    std::vector<uint8_t> bytes = timelineClaiming(uint64_t(1) << 27);
    ASSERT_LT(bytes.size(), 100u);
    EXPECT_FALSE(decodeSimResult(bytes, &out));
}

TEST(CodecTest, ChecksumDistinguishesPayloads)
{
    std::vector<uint8_t> a{1, 2, 3, 4};
    std::vector<uint8_t> b{1, 2, 3, 5};
    EXPECT_NE(fnv1aBytes(a.data(), a.size()),
              fnv1aBytes(b.data(), b.size()));
    EXPECT_EQ(fnv1aBytes(a.data(), a.size()),
              fnv1aBytes(a.data(), a.size()));
}

} // namespace
} // namespace sps::store
