// Format pins for every store and wire codec. Round-trip tests cannot
// see two fields trading places (encode and decode move together);
// these literals can. Each is the FNV-1a digest of one encoding, or a
// simConfigHash, as schema version 1 / protocol version 3 define them.
// A changed literal means persisted store entries or peers on the
// other protocol version would be misread: bump kStoreSchemaVersion /
// kProtocolVersion instead of editing it. (The SimResult pin also
// moves with the simulated timing of CONV, as the golden counters do.)
#include <gtest/gtest.h>

#include <algorithm>

#include "core/design.h"
#include "sched/machine.h"
#include "sched/modulo.h"
#include "store/codec.h"
#include "svc/protocol.h"
#include "workloads/suite.h"

namespace sps::svc {
namespace {

uint64_t
digest(const std::vector<uint8_t> &bytes)
{
    return store::fnv1aBytes(bytes.data(), bytes.size());
}

/** Touches every nested struct, with a negative i32 (the hash
 *  sign-extends it) and a non-default technology name. */
sim::SimConfig
overrideConfig()
{
    sim::SimConfig cfg;
    cfg.size = {16, 10};
    cfg.params.h = 0.123;
    cfg.params.b = 64;
    cfg.params.xbarConnectivity = 0.5;
    cfg.tech = vlsi::Technology::imagine180();
    cfg.memConfig.peakWordsPerCycle = 2.5;
    cfg.memConfig.timing.banks = 4;
    cfg.memConfig.schedMaxBypass = 3;
    cfg.ucConfig.loadCyclesPerInstruction = 2;
    cfg.hostIssueCycles = -1;
    cfg.scoreboardDepth = 9;
    cfg.energyConfig.dram.channelBusyEnergyEw = 3.5e5;
    return cfg;
}

std::vector<uint8_t>
requestBytes(bool with_config)
{
    EvalPoint pt;
    pt.app = "DEPTH";
    pt.size = {32, 2};
    if (with_config)
        pt.config = overrideConfig();
    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    return w.bytes();
}

TEST(CodecFormatTest, SimConfigHashIsPinned)
{
    EXPECT_EQ(simConfigHash(sim::SimConfig{}), 0xb277e3e579b31487ull);
    EXPECT_EQ(simConfigHash(overrideConfig()), 0x994928794ca9560eull);
}

TEST(CodecFormatTest, EvalRequestEncodingIsPinned)
{
    EXPECT_EQ(digest(requestBytes(false)), 0x87d12697b7853445ull);
    EXPECT_EQ(digest(requestBytes(true)), 0x8d609076a196540bull);
    // The default configuration as an explicit override: with the
    // request above, this pins both SimConfig encodings.
    EvalPoint pt;
    pt.app = "FFT";
    pt.config = sim::SimConfig{};
    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    EXPECT_EQ(digest(w.bytes()), 0x024bf2671d8e6308ull);
}

TEST(CodecFormatTest, FrameEncodingIsPinned)
{
    std::vector<uint8_t> frame;
    encodeFrame(FrameKind::EvalRequest, requestBytes(true), &frame);
    EXPECT_EQ(digest(frame), 0xc33d8ca4b62a25aeull);
}

TEST(CodecFormatTest, CompiledKernelEncodingIsPinned)
{
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    store::ByteWriter w;
    store::encodeCompiledKernel(
        sched::compileKernel(workloads::fftKernel(), m), &w);
    EXPECT_EQ(digest(w.bytes()), 0x0b9232517cb8df5aull);
}

TEST(CodecFormatTest, SimResultEncodingIsPinned)
{
    const auto &apps = workloads::appSuite();
    auto conv = std::find_if(apps.begin(), apps.end(), [](const auto &a) {
        return a.name == "CONV";
    });
    ASSERT_NE(conv, apps.end());
    core::StreamProcessorDesign d(vlsi::MachineSize{8, 3});
    sim::StreamProcessor proc = d.makeProcessor();
    sim::SimResult res = proc.run(conv->build(d.size(), proc.srf()));
    ASSERT_FALSE(res.timeline.empty());
    store::ByteWriter w;
    store::encodeSimResult(res, &w);
    EXPECT_EQ(digest(w.bytes()), 0x10bd462f20427281ull);
}

TEST(CodecFormatTest, MetricsSnapshotEncodingIsPinned)
{
    obs::Counter requests;
    obs::Gauge depth;
    obs::Histogram latency;
    obs::MetricsRegistry reg;
    reg.add(requests, "sps_requests_total", "", "requests");
    reg.add(depth, "sps_queue_depth", "app=\"DEPTH\"", "depth");
    reg.add(latency, "sps_request_duration_us", "tier=\"compute\"");
    requests.inc(42);
    depth.set(-3);
    for (uint64_t v : {1ull, 7ull, 7ull, 900ull, 1000000ull})
        latency.observe(v);
    store::ByteWriter w;
    encodeMetricsSnapshot(reg.snapshot(), &w);
    EXPECT_EQ(digest(w.bytes()), 0x6e25737e135a2de3ull);
}

} // namespace
} // namespace sps::svc
