#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include "common/fnv.h"
#include "common/prng.h"
#include "core/design.h"
#include "core/eval_engine.h"
#include "core/experiments.h"
#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "interp/simd.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sched/schedule_cache.h"
#include "store/codec.h"
#include "store/result_store.h"
#include "svc/eval_client.h"
#include "svc/eval_server.h"
#include "svc/eval_service.h"
#include "trace.h"
#include "vlsi/cost_model.h"
#include "vlsi/sweep.h"
#include "workloads/kernels/kernels.h"
#include "workloads/suite.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sps;

void
Report::fail(const std::string &why)
{
    if (failed < 20)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    ++failed;
}

namespace {

// Digests of the cold figure suite's outputs, recorded from this
// commit: every figure series (vlsi sweeps, Fig 13/14, Table 5, the
// Fig-15 scalars) and, separately, the store-codec bytes of every
// Fig-15 SimResult in plan order. An intended change to any modeled
// number must update them, as it updates the golden counters.
constexpr uint64_t kSeriesDigest = 0x7192c9cbb0753781ull;
constexpr uint64_t kFig15Digest = 0x36132d488f5eeb0cull;

// What one cold pass must do (bench_headline prints the same).
constexpr uint64_t kColdCompiles = 240;
constexpr uint64_t kColdSims = 120;

const std::vector<int> kCValues{8, 16, 32, 64, 128};
const std::vector<int> kNValues{2, 5, 10, 14};

// The sweep workloads run a pass count fixed by --seconds (so memory
// that grows per pass stays comparable across commits); these are
// the nominal pass times that convert one into the other.
constexpr double kColdPassNominalS = 5.0;
constexpr double kDiskPassNominalS = 1.25;

/** Set-up repetitions; setup_s is the fastest. A disk fill costs a
 *  cold pass; a cold pass sets itself up before every pass. */
constexpr int kDiskSetupRepeats = 3;
constexpr int kDaemonSetupRepeats = 2;
constexpr int kInterpSetupRepeats = 30;
constexpr int kDaemonClients = 2;
/** The daemon workload's "pass": one Fig-15 grid of requests. */
constexpr size_t kDaemonPassRequests = 120;
/** The daemon and the interpreter move to the next CPU (pinToCpu)
 *  every slice; the daemon reports its best slice. */
constexpr int64_t kSliceNs = 1000000000;

double
nsToS(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * CPU time of this process, all threads, in ns. The pass-based
 * workloads run one request at a time on one worker thread, so their
 * CPU time is their wall time less the time the (shared) host spent
 * on other work: steal time and run-queue waits, which only ever slow
 * a run down and swing with neighbour load.
 */
int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** Heap bytes in use (malloc'd, all arenas, mmapped chunks too). */
double
heapBytes()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Linear-interpolated quantile q of v (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** VmHWM / VmRSS of this process in MB. */
double
procStatusMb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    size_t n = std::strlen(key);
    while (std::getline(in, line))
        if (line.compare(0, n, key) == 0)
            return std::atof(line.c_str() + n + 1) / 1024.0;
    return 0.0;
}

std::vector<uint8_t>
encode(const sim::SimResult &r)
{
    store::ByteWriter w;
    store::encodeSimResult(r, &w);
    return w.bytes();
}

uint64_t
resultHash(const sim::SimResult &r)
{
    std::vector<uint8_t> b = encode(r);
    return store::fnv1aBytes(b.data(), b.size());
}

void
mixDouble(Fnv &f, double d)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    f.mix(bits);
}

int64_t
streamWords(const sim::SimResult &r)
{
    return r.counters.srfReadWords + r.counters.srfWriteWords;
}

/** Everything one figure-suite pass computes. */
struct SuiteOutputs
{
    vlsi::SweepSeries intra, inter;
    core::KernelSpeedupData fig13, fig14;
    core::PerfPerAreaData table5;
    std::vector<core::AppPoint> fig15;
};

uint64_t
seriesDigest(const SuiteOutputs &o)
{
    Fnv f;
    for (const vlsi::SweepSeries *s : {&o.intra, &o.inter}) {
        for (const vlsi::SweepPoint &p : s->points) {
            f.mix(static_cast<uint64_t>(p.size.clusters));
            f.mix(static_cast<uint64_t>(p.size.alusPerCluster));
            mixDouble(f, p.areaPerAlu);
            mixDouble(f, p.energyPerAluOp);
        }
        for (double d : s->normalizedAreaPerAlu())
            mixDouble(f, d);
        for (double d : s->normalizedEnergyPerOp())
            mixDouble(f, d);
    }
    for (const core::KernelSpeedupData *k : {&o.fig13, &o.fig14}) {
        for (int a : k->axis)
            f.mix(static_cast<uint64_t>(a));
        for (const core::SpeedupSeries &s : k->series) {
            f.mix(s.name);
            for (double v : s.values)
                mixDouble(f, v);
        }
    }
    for (const auto &row : o.table5.value)
        for (double v : row)
            mixDouble(f, v);
    for (const core::AppPoint &p : o.fig15) {
        f.mix(p.app);
        f.mix(static_cast<uint64_t>(p.size.clusters));
        f.mix(static_cast<uint64_t>(p.size.alusPerCluster));
        f.mix(static_cast<uint64_t>(p.cycles));
        mixDouble(f, p.speedup);
        mixDouble(f, p.gops);
    }
    return f.h;
}

std::vector<uint64_t>
pointHashes(const std::vector<core::AppPoint> &pts)
{
    std::vector<uint64_t> h;
    h.reserve(pts.size());
    for (const core::AppPoint &p : pts)
        h.push_back(resultHash(p.result));
    return h;
}

uint64_t
listDigest(const std::vector<uint64_t> &hashes)
{
    Fnv f;
    for (uint64_t h : hashes)
        f.mix(h);
    return f.h;
}

/** The Fig-15 plan's points: baselines first, then the grid. */
std::vector<svc::EvalPoint>
planPoints(const svc::AppSweepPlan &plan)
{
    std::vector<svc::EvalPoint> pts = plan.baselines;
    pts.insert(pts.end(), plan.grid.begin(), plan.grid.end());
    return pts;
}

/** The Fig-15 requests at one design point (machine size), as
 *  indices into planPoints, in submission order. */
struct DesignPoint
{
    /** Position of this design point in plan order. */
    size_t id = 0;
    std::vector<size_t> requests;
};

/**
 * The Fig-15 submission order of one pass, drawn from the run's seed
 * and the pass number: the design points in a seeded order and, within
 * each, its requests (the six apps, and at kBaseline also the six
 * baselines) in a seeded order. Kernels are compiled per machine size,
 * so a design point's total cost does not depend on the order, while
 * which of its requests pays for a kernel two apps share does.
 */
std::vector<DesignPoint>
seededOrder(const std::vector<svc::EvalPoint> &pts, uint64_t seed, int pass)
{
    std::vector<DesignPoint> order;
    for (size_t i = 0; i < pts.size(); ++i) {
        auto same = [&](const DesignPoint &d) {
            const vlsi::MachineSize &a = pts[d.requests.front()].size;
            return a.clusters == pts[i].size.clusters &&
                   a.alusPerCluster == pts[i].size.alusPerCluster;
        };
        auto it = std::find_if(order.begin(), order.end(), same);
        if (it == order.end()) {
            order.push_back({order.size(), {}});
            it = order.end() - 1;
        }
        it->requests.push_back(i);
    }
    Prng rng{seed * 0x9e3779b97f4a7c15ull +
             static_cast<uint64_t>(pass) * 0xbf58476d1ce4e5b9ull + 0x5eed};
    auto shuffle = [&](auto &v) {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.below(static_cast<uint32_t>(i))]);
    };
    for (DesignPoint &d : order)
        shuffle(d.requests);
    shuffle(order);
    return order;
}

/** Timing of one figure-suite pass. */
struct PassStats
{
    /** Wall clock (spans are on it too). */
    int64_t beginNs = 0;
    int64_t endNs = 0;
    /** Process CPU time (cpuNs). */
    int64_t cpuBeginNs = 0;
    int64_t cpuEndNs = 0;
    /** CPU time of the pass's parts: [0] the VLSI sweeps and kernel
     *  figures, [1 + DesignPoint::id] the requests at that design
     *  point (lockstep passes only). */
    std::vector<double> partCpuUs;
    /** From the service's request spans (traced passes only). */
    std::vector<double> queueUs;
    double buildS = 0.0;

    double seconds() const { return nsToS(endNs - beginNs); }
    double cpuSeconds() const { return nsToS(cpuEndNs - cpuBeginNs); }
};

/**
 * One figure-suite pass: what bench_headline's runFigureSuite
 * computes. The Fig-15 points go through `service` one at a time in
 * `order`, each waiting for its result; an empty order submits them
 * as one batch (EvalService::appPerformance).
 */
SuiteOutputs
runSuite(core::EvalEngine &eng, svc::EvalService &service,
         const std::vector<DesignPoint> &order, bool requestSpans,
         PassStats *st, Report *rep)
{
    SuiteOutputs out;
    st->beginNs = nowNs();
    st->cpuBeginNs = cpuNs();
    vlsi::CostModel model;
    st->partCpuUs.assign(1 + order.size(), 0.0);
    {
        Span s(Layer::VlsiSweep);
        out.intra = vlsi::intraclusterSweep(
            model, 8, vlsi::defaultIntraRange(), 5, &eng.pool());
        out.inter = vlsi::interclusterSweep(
            model, 5, vlsi::defaultInterRange(), 8, &eng.pool());
    }
    {
        Span s(Layer::CoreKernelFigs);
        out.fig13 = core::kernelIntraSpeedups(kNValues, 8, &eng);
        out.fig14 = core::kernelInterSpeedups(kCValues, 5, &eng);
        out.table5 = core::table5PerfPerArea(kNValues, kCValues, &eng);
    }
    st->partCpuUs[0] = static_cast<double>(cpuNs() - st->cpuBeginNs) / 1e3;
    if (order.empty()) {
        out.fig15 = service.appPerformance(kCValues, kNValues);
    } else {
        svc::AppSweepPlan plan = svc::appSweepPlan(kCValues, kNValues);
        std::vector<svc::EvalPoint> pts = planPoints(plan);
        std::vector<sim::SimResult> results(pts.size());
        for (const DesignPoint &dp : order) {
            int64_t p0 = cpuNs();
            for (size_t idx : dp.requests) {
                std::shared_ptr<obs::RequestSpan> rs;
                if (requestSpans)
                    rs = std::make_shared<obs::RequestSpan>(idx + 1,
                                                            pts[idx].app);
                try {
                    Span s(Layer::SvcRequest);
                    AdoptScope adopt(s);
                    results[idx] = service.submit(pts[idx], rs).get();
                } catch (const std::exception &e) {
                    rep->fail(std::string("request ") + pts[idx].app +
                              ": " + e.what());
                }
                if (rs)
                    for (const obs::SpanStage &stage : rs->stages()) {
                        if (std::strcmp(stage.name, "queue") == 0)
                            st->queueUs.push_back(
                                static_cast<double>(stage.durationUs()));
                        else if (std::strcmp(stage.name, "build") == 0)
                            st->buildS += stage.durationUs() * 1e-6;
                    }
            }
            st->partCpuUs[1 + dp.id] =
                static_cast<double>(cpuNs() - p0) / 1e3;
        }
        size_t nb = plan.baselines.size();
        std::vector<sim::SimResult> base(
            std::make_move_iterator(results.begin()),
            std::make_move_iterator(results.begin() + nb));
        std::vector<sim::SimResult> grid(
            std::make_move_iterator(results.begin() + nb),
            std::make_move_iterator(results.end()));
        out.fig15 = svc::assembleAppPoints(plan, base, std::move(grid));
    }
    st->endNs = nowNs();
    st->cpuEndNs = cpuNs();
    return out;
}

/**
 * Check a pass's outputs: the figure series against the recorded
 * digest, and each Fig-15 result against `refPoints` (per-point
 * codec hashes) or, without them, the recorded Fig-15 digest.
 * Counts the pass's Fig-15 requests plus the series check as
 * operations; a wrong point fails its request.
 */
void
checkSuite(const SuiteOutputs &out, const std::vector<uint64_t> *refPoints,
           Report *rep)
{
    Untraced quiet;
    rep->attempted +=
        1 + planPoints(svc::appSweepPlan(kCValues, kNValues)).size();
    uint64_t series = seriesDigest(out);
    if (series != kSeriesDigest)
        rep->fail("figure-series digest " + std::to_string(series) +
                  " != recorded " + std::to_string(kSeriesDigest));
    std::vector<uint64_t> hashes = pointHashes(out.fig15);
    if (refPoints) {
        for (size_t i = 0; i < hashes.size(); ++i)
            if (i >= refPoints->size() || hashes[i] != (*refPoints)[i])
                rep->fail("Fig-15 point " + out.fig15[i].app +
                          " differs from the cold result");
    } else if (listDigest(hashes) != kFig15Digest) {
        rep->fail("Fig-15 digest " + std::to_string(listDigest(hashes)) +
                  " != recorded " + std::to_string(kFig15Digest));
    }
}

/** Count check: one operation. */
void
checkCount(const char *what, uint64_t got, uint64_t want, Report *rep)
{
    ++rep->attempted;
    if (got != want)
        rep->fail(std::string(what) + " = " + std::to_string(got) +
                  ", expected " + std::to_string(want));
}

/** Harmonic-mean Fig-15 app speedup at one machine size. */
double
hmSpeedup(const std::vector<core::AppPoint> &pts, vlsi::MachineSize size)
{
    double inv = 0.0;
    int n = 0;
    for (const core::AppPoint &p : pts)
        if (p.size.clusters == size.clusters &&
            p.size.alusPerCluster == size.alusPerCluster &&
            p.speedup > 0.0) {
            inv += 1.0 / p.speedup;
            ++n;
        }
    return n ? n / inv : 0.0;
}

void
printFidelity(const std::vector<core::AppPoint> &pts)
{
    std::printf("model fidelity (not a speed metric; the model is "
                "validated only against the paper's anchors): Fig-15 "
                "harmonic-mean app speedup %.1fx at 640 ALUs (paper "
                "8.0x), %.1fx at 1280 ALUs (paper 10.4x)\n",
                hmSpeedup(pts, {128, 5}), hmSpeedup(pts, {128, 10}));
}

/** Per-layer numbers accumulated over the traced passes. Counters are
 *  totals over those passes; addLayerMetrics divides by `passes`. */
struct LayerAccum
{
    double passes = 0;
    double passS = 0.0;
    int64_t uncoveredNs = 0;
    TraceSummary sum;
    double buildS = 0.0;
    std::vector<double> queueUs;
    double lookups = 0, compiles = 0, sims = 0, memHits = 0, inflight = 0;
    double gets = 0, getHits = 0, puts = 0;

    /** Add one traced pass: the spans recorded since the last
     *  clearSpans() and the pass's stats. */
    void addPass(const PassStats &st)
    {
        add(summarize());
        uncoveredNs += perfbench::uncoveredNs(st.beginNs, st.endNs);
        passes += 1;
        passS += st.seconds();
        buildS += st.buildS;
        queueUs.insert(queueUs.end(), st.queueUs.begin(),
                       st.queueUs.end());
    }

    /** Add the program's counters over one traced pass (the schedule
     *  cache is cleared before every pass). */
    void addCounters(const sched::ScheduleCache::Counters &cc,
                     const svc::ServiceCounters &s0,
                     const svc::ServiceCounters &s1,
                     const store::StoreCounters &t0,
                     const store::StoreCounters &t1)
    {
        lookups += cc.hits + cc.misses + cc.diskHits;
        compiles += cc.misses;
        sims += s1.computed - s0.computed;
        memHits += s1.memHits - s0.memHits;
        inflight += s1.inflightDedup - s0.inflightDedup;
        gets += (t1.hits + t1.misses + t1.corrupt) -
                (t0.hits + t0.misses + t0.corrupt);
        getHits += t1.hits - t0.hits;
        puts += t1.writes - t0.writes;
    }

    void add(const TraceSummary &s)
    {
        for (size_t i = 0; i < kLayerCount; ++i) {
            LayerTotals &a = sum.layers[i];
            const LayerTotals &b = s.layers[i];
            a.calls += b.calls;
            a.inclusiveNs += b.inclusiveNs;
            a.selfNs += b.selfNs;
            a.bytes += b.bytes;
            a.cycles += b.cycles;
            a.dramAccesses += b.dramAccesses;
            a.rowHits += b.rowHits;
            a.bankConflicts += b.bankConflicts;
        }
        sum.decodeBytesUnderStoreGet += s.decodeBytesUnderStoreGet;
        sum.encodeBytesUnderStorePut += s.encodeBytesUnderStorePut;
        sum.decodeBytesUnderRequest += s.decodeBytesUnderRequest;
        sum.decodesUnderRequest += s.decodesUnderRequest;
    }
};

/** Inputs to the per-layer report that are not spans. */
struct LayerExtras
{
    double overheadFrac = 0.0;
    double retiredMb = 0.0;
    double serverE2eP50Us = 0.0, serverE2eP99Us = 0.0;
    double clientOverheadP50Us = 0.0;
    std::vector<Metric> interp; ///< interp.* metrics
};

/**
 * Emit every per-layer metric, normalized per traced pass. Workloads
 * that do not reach a layer report its measured zero.
 */
void
addLayerMetrics(const LayerAccum &a, const LayerExtras &x, Report *rep)
{
    const double p = a.passes > 0 ? a.passes : 1.0;
    auto L = [&](Layer l) -> const LayerTotals & { return a.sum[l]; };
    auto selfS = [&](Layer l) { return nsToS(L(l).selfNs) / p; };
    auto meanUs = [&](Layer l) {
        return ratio(static_cast<double>(L(l).selfNs) / 1e3,
                     static_cast<double>(L(l).calls));
    };
    const LayerTotals &sim = L(Layer::SimRun);
    if (L(Layer::SchedLookup).calls != a.lookups)
        std::fprintf(stderr,
                     "perfbench: warning: %llu sched.lookup spans but "
                     "%.0f schedule-cache lookups; a function wrapped in "
                     "src/wraps.cpp may have been renamed\n",
                     static_cast<unsigned long long>(
                         L(Layer::SchedLookup).calls),
                     a.lookups);

    rep->add("error_rate",
             ratio(static_cast<double>(rep->failed),
                   static_cast<double>(rep->attempted)),
             "frac");
    rep->add("obs.trace_overhead_frac", x.overheadFrac, "frac");
    rep->add("obs.uncovered_frac",
             ratio(nsToS(a.uncoveredNs), a.passS), "frac");
    rep->add("vlsi.sweep_s", selfS(Layer::VlsiSweep), "s");
    rep->add("core.kernel_figs_s",
             nsToS(L(Layer::CoreKernelFigs).inclusiveNs) / p, "s");
    rep->add("kernel.fingerprint_s", selfS(Layer::KernelFingerprint),
             "s");
    rep->add("kernel.fingerprints",
             L(Layer::KernelFingerprint).calls / p, "count");
    rep->add("sched.lookups", L(Layer::SchedLookup).calls / p, "count");
    rep->add("sched.lookup_s", selfS(Layer::SchedLookup), "s");
    rep->add("sched.compiles", a.compiles / p, "count");
    rep->add("sched.compile_s", selfS(Layer::SchedCompile), "s");
    rep->add("sched.retired_mb", x.retiredMb, "MB");
    rep->add("stream.build_s", a.buildS / p, "s");
    rep->add("sim.run_s", selfS(Layer::SimRun), "s");
    rep->add("sim.cycles", sim.cycles / p, "cycles");
    rep->add("sim.host_ns_per_cycle",
             ratio(static_cast<double>(sim.selfNs),
                   static_cast<double>(sim.cycles)),
             "ns");
    rep->add("mem.dram_accesses", sim.dramAccesses / p, "count");
    rep->add("mem.row_hit_frac",
             ratio(static_cast<double>(sim.rowHits),
                   static_cast<double>(sim.dramAccesses)),
             "frac");
    rep->add("mem.bank_conflicts", sim.bankConflicts / p, "count");
    rep->add("store.get_s", selfS(Layer::StoreGet), "s");
    rep->add("store.gets", a.gets / p, "count");
    rep->add("store.get_bytes", a.sum.decodeBytesUnderStoreGet / p,
             "bytes");
    rep->add("store.hit_frac", ratio(a.getHits, a.gets), "frac");
    rep->add("store.put_s", selfS(Layer::StorePut), "s");
    rep->add("store.puts", a.puts / p, "count");
    rep->add("store.put_bytes", a.sum.encodeBytesUnderStorePut / p,
             "bytes");
    rep->add("store.codec_encode_us", meanUs(Layer::CodecEncode), "us");
    rep->add("store.codec_decode_us", meanUs(Layer::CodecDecode), "us");
    rep->add("svc.self_s", selfS(Layer::SvcRequest), "s");
    rep->add("svc.reply_bytes_mean",
             ratio(static_cast<double>(a.sum.decodeBytesUnderRequest),
                   static_cast<double>(a.sum.decodesUnderRequest)),
             "bytes");
    rep->add("svc.client_overhead_p50_us", x.clientOverheadP50Us, "us");
    rep->add("svc.server_e2e_p50_us", x.serverE2eP50Us, "us");
    rep->add("svc.server_e2e_p99_us", x.serverE2eP99Us, "us");
    rep->add("svc.queue_wait_p50_us", quantile(a.queueUs, 0.5), "us");
    rep->add("svc.mem_hits", a.memHits / p, "count");
    rep->add("svc.inflight_dedup", a.inflight / p, "count");
    rep->add("svc.sims", a.sims / p, "count");

    // interp.* is the same set on every workload.
    std::vector<Metric> interp = x.interp;
    if (interp.empty()) {
        interp.push_back({"interp.lower_s", 0.0, "s"});
        for (const auto &e : workloads::kernelSuite()) {
            interp.push_back({"interp." + e.name + ".mwords_per_s", 0.0,
                              "Mwords/s"});
            interp.push_back({"interp." + e.name + ".fused_frac", 0.0,
                              "frac"});
        }
    }
    for (Metric &m : interp)
        rep->metrics.push_back(std::move(m));
}

void
writeSpansTo(const RunConfig &cfg)
{
    if (cfg.spansOut.empty())
        return;
    if (writeSpans(cfg.spansOut))
        std::printf("spans written to %s\n", cfg.spansOut.c_str());
    else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     cfg.spansOut.c_str());
}

/** Sums over the 120 Fig-15 grid results of one pass. */
struct Fig15Work
{
    int64_t cycles = 0;
    int64_t words = 0;
};

Fig15Work
fig15Work(const std::vector<core::AppPoint> &pts)
{
    Fig15Work w;
    for (const core::AppPoint &p : pts) {
        w.cycles += p.result.cycles;
        w.words += streamWords(p.result);
    }
    return w;
}

/**
 * End-to-end metrics of a workload that repeats passes of the same
 * work (cold_sweep, disk_warm, interp_kernels), all in process CPU
 * time. Neighbour load on a shared host only ever slows work down, so
 * each part of a pass is taken at its fastest over the run's passes:
 * sweep_s is the sum of those times, the latency percentiles run over
 * the parts from `firstUnit` on (design points, or kernel runs), and
 * req_per_s is the requests of a pass over the sum of the units' times.
 * setup_s is the fastest set-up. `cycles` and `words` are the
 * simulated cycles and stream words one pass covers.
 */
void
addBestOfMetrics(const std::vector<double> &bestPartUs, size_t firstUnit,
                 double requests, double cycles, double words,
                 const std::vector<double> &setupS, Report *rep)
{
    std::vector<double> units(bestPartUs.begin() + firstUnit,
                              bestPartUs.end());
    double sweepS = 0.0, unitsS = 0.0;
    for (double us : bestPartUs)
        sweepS += us * 1e-6;
    for (double us : units)
        unitsS += us * 1e-6;
    rep->add("setup_s", minOf(setupS), "s");
    rep->add("sweep_s", sweepS, "s");
    rep->add("rtt_p50_us", quantile(units, 0.5), "us");
    rep->add("rtt_p99_us", quantile(units, 0.99), "us");
    rep->add("req_per_s", ratio(requests, unitsS), "1/s");
    rep->add("sim_mcycles_per_s", ratio(cycles, sweepS) / 1e6,
             "Mcycles/s");
    rep->add("interp_mwords_per_s", ratio(words, sweepS) / 1e6,
             "Mwords/s");
    rep->add("peak_rss_mb", procStatusMb("VmHWM:"), "MB");
}

/** Fold one pass's part times into the run's fastest ones. */
void
keepBest(const std::vector<double> &partUs, std::vector<double> *bestPartUs)
{
    if (bestPartUs->empty()) {
        *bestPartUs = partUs;
        return;
    }
    for (size_t i = 0; i < partUs.size(); ++i)
        (*bestPartUs)[i] = std::min((*bestPartUs)[i], partUs[i]);
}

/**
 * Pin every thread of this process to the i-th (modulo their number)
 * of the CPUs it was allowed at start-up; threads started later
 * inherit it. On the shared host in README.md each virtual CPU
 * switches, every few seconds and independently of the others,
 * between speed modes up to 1.4x apart. The workloads move their
 * repeated units over every CPU, so that taking each unit at its best
 * (or, on the daemon, the best slice) finds a fast CPU in almost every
 * run instead of depending on where the scheduler left the process.
 * Pinned, the daemon's server and clients share one CPU: a request
 * hands off between threads by context switches rather than by waking
 * a halted vCPU, whose latency swings with neighbour load.
 */
void
pinToCpu(size_t i)
{
    static const std::vector<int> allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof set, &set);
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        return cpus;
    }();
    if (allowed.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[i % allowed.size()], &one);
    for (const auto &task : fs::directory_iterator("/proc/self/task"))
        sched_setaffinity(std::atoi(task.path().filename().c_str()),
                          sizeof one, &one);
}

/** Traced passes run after the untraced ones (half of them, at
 *  least one), so memory grown by span buffers stays out of the
 *  untraced passes' RSS readings. */
int
tracedPasses(int passes, bool trace)
{
    return trace ? std::max(1, passes / 2) : 0;
}

/**
 * End of a sweep pass: write the spans out if this was the last traced
 * pass, then clear the schedule cache, free the span buffers and
 * sample the heap. The heap's growth from one pass to the next is then
 * what the cache keeps of the map clear() retires (sched.retired_mb),
 * plus anything else a pass leaks.
 */
void
retirePass(bool lastTraced, const RunConfig &cfg, std::vector<double> *heap)
{
    if (lastTraced)
        writeSpansTo(cfg);
    sched::ScheduleCache::global().clear();
    clearSpans();
    heap->push_back(heapBytes());
}

/** Mean growth per pass, in MB, of the heap sampled by retirePass. */
double
retiredPerPass(const std::vector<double> &heapAfterClear)
{
    if (heapAfterClear.size() < 2)
        return 0.0;
    return (heapAfterClear.back() - heapAfterClear.front()) /
           static_cast<double>(heapAfterClear.size() - 1) / 1048576.0;
}

/** Traced over untraced time, minus one, each side at its best. */
double
overheadFrac(const std::vector<double> &untraced,
             const std::vector<double> &traced)
{
    if (untraced.empty() || traced.empty())
        return 0.0;
    return *std::min_element(traced.begin(), traced.end()) /
               *std::min_element(untraced.begin(), untraced.end()) -
           1.0;
}

} // namespace

// --- cold_sweep ----------------------------------------------------

Report
coldSweep(const RunConfig &cfg)
{
    Report rep;
    const int passes =
        std::max(2, static_cast<int>(cfg.seconds / kColdPassNominalS));
    const int traced = tracedPasses(passes, cfg.trace);
    auto &cache = sched::ScheduleCache::global();
    core::EvalEngine eng(1);
    const std::vector<svc::EvalPoint> pts =
        planPoints(svc::appSweepPlan(kCValues, kNValues));

    const std::string dir = "cold-store";
    std::unique_ptr<store::ResultStore> store;
    std::unique_ptr<svc::EvalService> service;
    std::vector<double> setupS, heap, untracedS, tracedS, bestPartUs;
    LayerAccum acc;
    Fig15Work work;
    for (int k = 0; k < passes; ++k) {
        const bool tracePass = k >= passes - traced;
        pinToCpu(static_cast<size_t>(k));
        // Set-up of a cold pass: make the store directory fresh and
        // empty (remove what the previous pass put), empty the
        // in-memory tiers, open the store and start a service on it.
        // Only the passes after the first have a full store to remove,
        // so only they count.
        int64_t s0 = cpuNs();
        store.reset();
        fs::remove_all(dir);
        cache.clear();
        store = std::make_unique<store::ResultStore>(dir);
        cache.attachStore(store.get());
        service = std::make_unique<svc::EvalService>(&eng, store.get());
        if (k > 0)
            setupS.push_back(nsToS(cpuNs() - s0));

        if (tracePass)
            setTracing(true);
        PassStats st;
        SuiteOutputs out = runSuite(eng, *service,
                                    seededOrder(pts, cfg.seed, k),
                                    tracePass, &st, &rep);
        setTracing(false);
        sched::ScheduleCache::Counters cc = cache.counters();
        svc::ServiceCounters sc = service->counters();
        store::StoreCounters stc = store->counters();
        service.reset();
        cache.attachStore(nullptr);
        checkSuite(out, nullptr, &rep);
        checkCount("cold compiles", cc.misses, kColdCompiles, &rep);
        checkCount("cold sims", sc.computed, kColdSims, &rep);
        if (k == 0) {
            work = fig15Work(out.fig15);
            printFidelity(out.fig15);
            std::printf("exact counts per pass: sched.compiles=%llu "
                        "svc.sims=%llu sim.cycles=%lld\n",
                        static_cast<unsigned long long>(cc.misses),
                        static_cast<unsigned long long>(sc.computed),
                        static_cast<long long>(work.cycles));
        }
        if (tracePass) {
            acc.addPass(st);
            acc.addCounters(cc, {}, sc, {}, stc);
            tracedS.push_back(st.cpuSeconds());
        } else {
            untracedS.push_back(st.cpuSeconds());
            keepBest(st.partCpuUs, &bestPartUs);
        }
        retirePass(tracePass && k == passes - 1, cfg, &heap);
    }
    store.reset();
    fs::remove_all(dir);
    std::printf("samples: %zu untraced passes of %zu requests at %zu "
                "design points\n",
                untracedS.size(), pts.size(), bestPartUs.size() - 1);

    if (cfg.trace) {
        LayerExtras x;
        x.overheadFrac = overheadFrac(untracedS, tracedS);
        x.retiredMb = retiredPerPass(heap);
        addLayerMetrics(acc, x, &rep);
    } else {
        addBestOfMetrics(bestPartUs, 1, static_cast<double>(pts.size()),
                         work.cycles, work.words, setupS, &rep);
    }
    return rep;
}

// --- disk_warm -----------------------------------------------------

Report
diskWarm(const RunConfig &cfg)
{
    Report rep;
    const int passes =
        std::max(2, static_cast<int>(cfg.seconds / kDiskPassNominalS));
    const int traced = tracedPasses(passes, cfg.trace);
    auto &cache = sched::ScheduleCache::global();
    const std::string dir = "disk-store";

    // Set-up: fill the store with one cold pass, on an engine with a
    // thread per CPU. Repeated, each time from an empty store.
    std::vector<double> setupS;
    std::unique_ptr<store::ResultStore> store;
    std::vector<uint64_t> refPoints;
    Fig15Work work;
    for (int r = 0; r < kDiskSetupRepeats; ++r) {
        int64_t s0 = cpuNs();
        cache.clear();
        cache.attachStore(nullptr);
        store.reset();
        fs::remove_all(dir);
        store = std::make_unique<store::ResultStore>(dir);
        cache.attachStore(store.get());
        SuiteOutputs fill;
        {
            core::EvalEngine fillEngine(0);
            svc::EvalService fillService(&fillEngine, store.get());
            PassStats st;
            fill = runSuite(fillEngine, fillService, {}, false, &st, &rep);
        }
        setupS.push_back(nsToS(cpuNs() - s0));
        checkSuite(fill, nullptr, &rep);
        refPoints = pointHashes(fill.fig15);
        work = fig15Work(fill.fig15);
    }

    core::EvalEngine eng(1);
    svc::EvalService service(&eng, store.get());
    const std::vector<svc::EvalPoint> pts =
        planPoints(svc::appSweepPlan(kCValues, kNValues));
    std::vector<double> heap, untracedS, tracedS, bestPartUs;
    LayerAccum acc;
    for (int k = 0; k < passes; ++k) {
        const bool tracePass = k >= passes - traced;
        pinToCpu(static_cast<size_t>(k));
        cache.clear();
        service.clearMemory();
        svc::ServiceCounters sc0 = service.counters();
        store::StoreCounters stc0 = store->counters();
        if (tracePass)
            setTracing(true);
        PassStats st;
        SuiteOutputs out = runSuite(eng, service,
                                    seededOrder(pts, cfg.seed, k),
                                    tracePass, &st, &rep);
        setTracing(false);
        sched::ScheduleCache::Counters cc = cache.counters();
        svc::ServiceCounters sc = service.counters();
        store::StoreCounters stc = store->counters();
        checkSuite(out, &refPoints, &rep);
        checkCount("disk_warm compiles", cc.misses, 0, &rep);
        checkCount("disk_warm sims", sc.computed - sc0.computed, 0, &rep);
        if (tracePass) {
            acc.addPass(st);
            acc.addCounters(cc, sc0, sc, stc0, stc);
            tracedS.push_back(st.cpuSeconds());
        } else {
            untracedS.push_back(st.cpuSeconds());
            keepBest(st.partCpuUs, &bestPartUs);
        }
        retirePass(tracePass && k == passes - 1, cfg, &heap);
    }
    cache.attachStore(nullptr);
    fs::remove_all(dir);
    std::printf("samples: %zu untraced passes of %zu requests at %zu "
                "design points\n",
                untracedS.size(), pts.size(), bestPartUs.size() - 1);

    if (cfg.trace) {
        LayerExtras x;
        x.overheadFrac = overheadFrac(untracedS, tracedS);
        x.retiredMb = retiredPerPass(heap);
        addLayerMetrics(acc, x, &rep);
    } else {
        addBestOfMetrics(bestPartUs, 1, static_cast<double>(pts.size()),
                         work.cycles, work.words, setupS, &rep);
    }
    return rep;
}

// --- daemon_warm ---------------------------------------------------

namespace {

/** One in-process daemon, wired as sps_evald wires it without a
 *  disk store. The server is declared last, so it stops first. */
struct Daemon
{
    core::EvalEngine engine{0};
    /** Leaked like sps_evald's: collectors reference it for good. */
    obs::MetricsRegistry *registry = new obs::MetricsRegistry();
    svc::EvalService service{&engine, nullptr};
    std::unique_ptr<svc::EvalServer> server;

    Daemon(const std::string &sock, size_t spanCapacity)
    {
        sched::ScheduleCache::global().attachMetrics(registry);
        svc::ServerTelemetry telemetry;
        telemetry.registry = registry;
        if (spanCapacity)
            telemetry.spanCapacity = spanCapacity;
        server = std::make_unique<svc::EvalServer>(&service, sock,
                                                   telemetry);
    }
};

struct ClientLog
{
    std::vector<double> rttUs;
    std::vector<int64_t> doneNs;
    std::vector<size_t> point;
    std::vector<char> traced;
    uint64_t attempted = 0;
    std::vector<std::string> failures;
};

} // namespace

Report
daemonWarm(const RunConfig &cfg)
{
    Report rep;
    auto &cache = sched::ScheduleCache::global();
    const std::string sock = "perfbench.sock";
    const svc::AppSweepPlan plan = svc::appSweepPlan(kCValues, kNValues);
    // A traced run keeps every request span the server retires.
    const size_t spanCapacity = cfg.trace ? (1u << 18) : 0;

    // Set-up: start the daemon and warm all 120 Fig-15 points through
    // a client. Repeated, each time from empty in-memory tiers.
    std::vector<double> setupS;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::vector<uint8_t>> refBytes;
    std::vector<int64_t> refCycles, refWords;
    uint64_t warmRequests = 0;
    for (int r = 0; r < kDaemonSetupRepeats; ++r) {
        daemon.reset();
        int64_t s0 = cpuNs();
        cache.clear();
        cache.attachStore(nullptr);
        daemon = std::make_unique<Daemon>(sock, spanCapacity);
        std::vector<core::AppPoint> warm;
        try {
            svc::EvalClient client(sock);
            warm = client.appPerformance(kCValues, kNValues);
        } catch (const std::exception &e) {
            rep.fail(std::string("daemon warm-up: ") + e.what());
        }
        setupS.push_back(nsToS(cpuNs() - s0));
        warmRequests = daemon->server->counters().requests;
        ++rep.attempted;
        std::vector<uint64_t> hashes = pointHashes(warm);
        if (listDigest(hashes) != kFig15Digest)
            rep.fail("daemon warm-up Fig-15 digest differs from the "
                     "recorded cold result");
        refBytes.clear();
        refCycles.clear();
        refWords.clear();
        for (const core::AppPoint &p : warm) {
            refBytes.push_back(encode(p.result));
            refCycles.push_back(p.result.cycles);
            refWords.push_back(streamWords(p.result));
        }
    }
    if (refBytes.size() != plan.grid.size()) {
        rep.fail("daemon warm-up returned no results");
        return rep;
    }

    // Load: closed-loop lockstep clients over seeded sequences of the
    // warm points, in 1-s slices, each with the server and clients on
    // the next CPU (pinToCpu). A traced run traces every other slice.
    const int64_t windowNs = static_cast<int64_t>(cfg.seconds * 1e9);
    const svc::ServiceCounters sc0 = daemon->service.counters();
    std::atomic<bool> stop{false};
    std::vector<ClientLog> logs(kDaemonClients);
    std::vector<std::thread> clients;
    const int64_t t0 = nowNs();
    for (int c = 0; c < kDaemonClients; ++c)
        clients.emplace_back([&, c] {
            ClientLog &log = logs[c];
            Prng rng{(cfg.seed + 1) * 0x2545f4914f6cdd1dull + c};
            try {
                svc::EvalClient client(sock);
                while (!stop.load(std::memory_order_relaxed)) {
                    size_t idx = rng.below(
                        static_cast<uint32_t>(plan.grid.size()));
                    ++log.attempted;
                    bool traced = tracing();
                    int64_t r0 = nowNs();
                    sim::SimResult res;
                    try {
                        Span s(Layer::SvcRequest);
                        res = client.eval(plan.grid[idx]);
                    } catch (const std::exception &e) {
                        log.failures.push_back(e.what());
                        if (client.dead())
                            return;
                        continue;
                    }
                    int64_t r1 = nowNs();
                    log.rttUs.push_back(static_cast<double>(r1 - r0) /
                                        1e3);
                    log.doneNs.push_back(r1);
                    log.point.push_back(idx);
                    log.traced.push_back(traced);
                    Untraced quiet;
                    if (encode(res) != refBytes[idx])
                        log.failures.push_back(
                            "reply for " + plan.grid[idx].app +
                            " differs from the cold result");
                }
            } catch (const std::exception &e) {
                ++log.attempted;
                log.failures.push_back(std::string("client: ") +
                                       e.what());
            }
        });
    struct Slice
    {
        int64_t beginNs = 0, endNs = 0;
        bool traced = false;
        std::vector<double> rttUs;
        double cycles = 0.0, words = 0.0;
    };
    std::vector<Slice> slices;
    clearSpans();
    for (int64_t s = 0; s < windowNs; s += kSliceNs) {
        Slice sl;
        sl.traced = cfg.trace && (s / kSliceNs) % 2 == 1;
        pinToCpu(slices.size());
        sl.beginNs = nowNs();
        setTracing(sl.traced);
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(kSliceNs, windowNs - s)));
        setTracing(false);
        sl.endNs = nowNs();
        slices.push_back(std::move(sl));
    }
    stop.store(true);
    for (auto &t : clients)
        t.join();
    const int64_t t1 = nowNs();
    const svc::ServiceCounters sc = daemon->service.counters();
    std::vector<std::shared_ptr<const obs::RequestSpan>> serverSpans =
        daemon->server->spanRecorder().spans();
    daemon.reset(); // joins every server thread before spans are read

    // Each request belongs to the slice it completed in.
    std::vector<double> rtt, rttTraced, rttUntraced;
    for (ClientLog &log : logs) {
        rep.attempted += log.attempted;
        for (const std::string &f : log.failures)
            rep.fail(f);
        rtt.insert(rtt.end(), log.rttUs.begin(), log.rttUs.end());
        for (size_t i = 0; i < log.rttUs.size(); ++i) {
            (log.traced[i] ? rttTraced : rttUntraced)
                .push_back(log.rttUs[i]);
            for (Slice &sl : slices)
                if (log.doneNs[i] >= sl.beginNs && log.doneNs[i] < sl.endNs) {
                    sl.rttUs.push_back(log.rttUs[i]);
                    sl.cycles += static_cast<double>(refCycles[log.point[i]]);
                    sl.words += static_cast<double>(refWords[log.point[i]]);
                }
        }
    }
    checkCount("daemon_warm sims", sc.computed - sc0.computed, 0, &rep);
    const double requests = static_cast<double>(rtt.size());
    std::printf("samples: %zu requests from %d clients over %.2f s, "
                "%zu slices of at least %zu requests\n",
                rtt.size(), kDaemonClients, nsToS(t1 - t0), slices.size(),
                std::min_element(slices.begin(), slices.end(),
                                 [](const Slice &a, const Slice &b) {
                                     return a.rttUs.size() < b.rttUs.size();
                                 })
                    ->rttUs.size());

    if (!cfg.trace) {
        // Each statistic at its best slice (see pinToCpu).
        double p50 = 0.0, p99 = 0.0, reqS = 0.0, cyclesS = 0.0, wordsS = 0.0;
        for (const Slice &sl : slices) {
            if (sl.rttUs.empty())
                continue;
            const double secs = nsToS(sl.endNs - sl.beginNs);
            const double q50 = quantile(sl.rttUs, 0.5);
            const double q99 = quantile(sl.rttUs, 0.99);
            p50 = p50 > 0.0 ? std::min(p50, q50) : q50;
            p99 = p99 > 0.0 ? std::min(p99, q99) : q99;
            reqS = std::max(reqS, static_cast<double>(sl.rttUs.size()) / secs);
            cyclesS = std::max(cyclesS, sl.cycles / secs);
            wordsS = std::max(wordsS, sl.words / secs);
        }
        rep.add("setup_s", minOf(setupS), "s");
        rep.add("sweep_s", ratio(kDaemonPassRequests, reqS), "s");
        rep.add("rtt_p50_us", p50, "us");
        rep.add("rtt_p99_us", p99, "us");
        rep.add("req_per_s", reqS, "1/s");
        rep.add("sim_mcycles_per_s", cyclesS / 1e6, "Mcycles/s");
        rep.add("interp_mwords_per_s", wordsS / 1e6, "Mwords/s");
        rep.add("peak_rss_mb", procStatusMb("VmHWM:"), "MB");
        return rep;
    }

    // Per-layer: spans from the traced slices; a pass is 120 requests.
    LayerAccum acc;
    acc.add(summarize());
    for (const Slice &sl : slices)
        if (sl.traced) {
            acc.uncoveredNs += uncoveredNs(sl.beginNs, sl.endNs);
            acc.passS += nsToS(sl.endNs - sl.beginNs);
        }
    acc.passes = static_cast<double>(rttTraced.size()) /
                 static_cast<double>(kDaemonPassRequests);
    const double tracedShare =
        ratio(static_cast<double>(rttTraced.size()), requests);
    acc.memHits = (sc.memHits - sc0.memHits) * tracedShare;
    acc.inflight = (sc.inflightDedup - sc0.inflightDedup) * tracedShare;
    acc.sims = (sc.computed - sc0.computed) * tracedShare;

    std::vector<double> e2e;
    for (const auto &span : serverSpans) {
        if (span->id() <= warmRequests)
            continue;
        e2e.push_back(static_cast<double>(span->totalUs()));
        for (const obs::SpanStage &stage : span->stages())
            if (std::strcmp(stage.name, "deliver") == 0)
                acc.queueUs.push_back(
                    static_cast<double>(stage.beginUs - span->beginUs()));
    }
    LayerExtras x;
    x.overheadFrac = ratio(median(rttTraced), median(rttUntraced)) - 1.0;
    x.serverE2eP50Us = quantile(e2e, 0.5);
    x.serverE2eP99Us = quantile(e2e, 0.99);
    x.clientOverheadP50Us = quantile(rtt, 0.5) - x.serverE2eP50Us;
    addLayerMetrics(acc, x, &rep);
    writeSpansTo(cfg);
    return rep;
}

// --- interp_kernels ------------------------------------------------

namespace {

/** Seeded inputs for one Table-4 kernel (the value ranges of
 *  bench/interp_bench_util.h's generator). */
std::vector<interp::StreamData>
kernelInputs(const std::string &name, int64_t records, Prng &rng)
{
    using interp::StreamData;
    auto ints = [&](int per_record, int32_t lo, int32_t hi) {
        std::vector<int32_t> v;
        v.reserve(static_cast<size_t>(records) * per_record);
        for (int64_t i = 0; i < records * per_record; ++i)
            v.push_back(lo + static_cast<int32_t>(rng.below(
                                 static_cast<uint32_t>(hi - lo))));
        return StreamData::fromInts(v, per_record);
    };
    auto floats = [&](int per_record, float lo, float hi) {
        std::vector<float> v;
        v.reserve(static_cast<size_t>(records) * per_record);
        for (int64_t i = 0; i < records * per_record; ++i)
            v.push_back(rng.uniform(lo, hi));
        return StreamData::fromFloats(v, per_record);
    };
    if (name == "blocksad")
        return {ints(workloads::kPixelsPerRecord, 0, 255),
                ints(workloads::kPixelsPerRecord, 0, 255)};
    if (name == "convolve")
        return {ints(workloads::kPixelsPerRecord, -512, 512)};
    if (name == "update")
        return {floats(2, -2.0f, 2.0f),
                floats(workloads::kUpdateRank, -1.0f, 1.0f)};
    if (name == "fft") {
        StreamData x = floats(8, -1.0f, 1.0f);
        std::vector<float> tw;
        tw.reserve(static_cast<size_t>(records) * 6);
        for (int64_t i = 0; i < records; ++i)
            for (int q = 0; q < 3; ++q) {
                float ang = rng.uniform(0.0f, 6.283f);
                tw.push_back(std::cos(ang));
                tw.push_back(std::sin(ang));
            }
        return {x, StreamData::fromFloats(tw, 6)};
    }
    if (name == "noise")
        return {floats(2, -20.0f, 20.0f)};
    if (name == "irast")
        return {ints(5, 0, 256)};
    throw std::runtime_error("no input generator for kernel " + name);
}

struct KernelCase
{
    std::string name;
    const kernel::Kernel *kernel = nullptr;
    std::vector<interp::StreamData> inputs;
    std::vector<interp::StreamData> expected;
    int64_t words = 0;
    /** Modeled C=8 N=5 loop cycles of one run. */
    int64_t cycles = 0;
};

bool
sameOutputs(const std::vector<interp::StreamData> &a,
            const std::vector<interp::StreamData> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].recordWords != b[i].recordWords || a[i].words != b[i].words)
            return false;
    return true;
}

} // namespace

Report
interpKernels(const RunConfig &cfg)
{
    Report rep;
    constexpr int kClusters = 8;
    constexpr int64_t kRecords = 8192;
    const interp::SimdBackend backend = interp::bestSimdBackend();

    // Set-up: generate the seeded inputs, compute the reference
    // outputs, lower every kernel, and model its cycles. Repeated,
    // each time from an empty lowering cache.
    std::vector<double> setupS, lowerS;
    std::vector<KernelCase> cases;
    for (int r = 0; r < kInterpSetupRepeats; ++r) {
        pinToCpu(static_cast<size_t>(r));
        int64_t s0 = cpuNs();
        interp::LoweredCache::global().clear();
        cases.clear();
        Prng rng{cfg.seed * 0xbf58476d1ce4e5b9ull + 0xbe7c4};
        core::StreamProcessorDesign design({kClusters, 5});
        int64_t lowerNs = 0;
        for (const auto &entry : workloads::kernelSuite()) {
            KernelCase kc;
            kc.name = entry.name;
            kc.kernel = entry.kernel;
            kc.inputs = kernelInputs(entry.name, kRecords, rng);
            interp::ExecResult ref = interp::runKernelReference(
                *entry.kernel, kClusters, kc.inputs);
            kc.expected = std::move(ref.outputs);
            for (const auto &s : kc.inputs)
                kc.words += static_cast<int64_t>(s.words.size());
            for (const auto &s : kc.expected)
                kc.words += static_cast<int64_t>(s.words.size());
            kc.cycles = sched::ScheduleCache::global()
                            .get(*entry.kernel, design.machine())
                            .loopCycles(ref.iterations);
            int64_t l0 = nowNs();
            interp::LoweredCache::global().get(*entry.kernel);
            lowerNs += nowNs() - l0;
            cases.push_back(std::move(kc));
        }
        setupS.push_back(nsToS(cpuNs() - s0));
        lowerS.push_back(nsToS(lowerNs));
    }

    // Measure: passes of the six kernels, each run timed alone; the
    // outputs are checked after the pass. Traced runs alternate
    // untraced and traced passes.
    std::vector<double> passUs, untracedUs, tracedUs, bestKernelUs;
    std::vector<double> kernelUs(cases.size());
    double passWords = 0.0, passCycles = 0.0;
    for (const KernelCase &kc : cases) {
        passWords += static_cast<double>(kc.words);
        passCycles += static_cast<double>(kc.cycles);
    }
    const int64_t windowNs = static_cast<int64_t>(cfg.seconds * 1e9);
    LayerAccum acc;
    std::vector<interp::ExecResult> outs(cases.size());
    const int64_t t0 = nowNs();
    int64_t slice = -1;
    for (int pass = 0; nowNs() < t0 + windowNs; ++pass) {
        const bool tracePass = cfg.trace && pass % 2 == 1;
        if ((nowNs() - t0) / kSliceNs != slice) {
            slice = (nowNs() - t0) / kSliceNs;
            pinToCpu(static_cast<size_t>(slice));
        }
        if (tracePass) {
            clearSpans();
            setTracing(true);
        }
        PassStats st;
        st.beginNs = nowNs();
        double passS = 0.0;
        for (size_t i = 0; i < cases.size(); ++i) {
            int64_t r0 = cpuNs();
            {
                Span s(Layer::InterpRun);
                outs[i] = interp::runKernel(*cases[i].kernel, kClusters,
                                            cases[i].inputs, backend);
            }
            double dt = nsToS(cpuNs() - r0);
            passS += dt;
            kernelUs[i] = dt * 1e6;
        }
        st.endNs = nowNs();
        setTracing(false);
        if (tracePass) {
            acc.addPass(st);
            tracedUs.push_back(passS * 1e6);
        } else {
            untracedUs.push_back(passS * 1e6);
        }
        passUs.push_back(passS * 1e6);
        keepBest(kernelUs, &bestKernelUs);
        for (size_t i = 0; i < cases.size(); ++i) {
            ++rep.attempted;
            if (!sameOutputs(outs[i].outputs, cases[i].expected))
                rep.fail("interp " + cases[i].name +
                         " output differs from runKernelReference");
        }
    }
    std::printf("samples: %zu passes of %zu kernels (backend %s), "
                "pass min/p10/p50/p90 %.0f/%.0f/%.0f/%.0f us\n",
                passUs.size(), cases.size(),
                interp::simdBackendName(backend), quantile(passUs, 0.0),
                quantile(passUs, 0.1), quantile(passUs, 0.5),
                quantile(passUs, 0.9));

    if (cfg.trace) {
        LayerExtras x;
        x.overheadFrac = overheadFrac(untracedUs, tracedUs);
        x.interp.push_back({"interp.lower_s", median(lowerS), "s"});
        for (size_t i = 0; i < cases.size(); ++i) {
            x.interp.push_back(
                {"interp." + cases[i].name + ".mwords_per_s",
                 ratio(static_cast<double>(cases[i].words),
                       bestKernelUs[i]),
                 "Mwords/s"});
            x.interp.push_back(
                {"interp." + cases[i].name + ".fused_frac",
                 interp::LoweredCache::global()
                     .get(*cases[i].kernel)
                     .fusedOpFraction(interp::defaultFusionPolicy()),
                 "frac"});
        }
        addLayerMetrics(acc, x, &rep);
        writeSpansTo(cfg);
        return rep;
    }
    addBestOfMetrics(bestKernelUs, 0, static_cast<double>(cases.size()),
                     passCycles, passWords, setupS, &rep);
    return rep;
}

} // namespace perfbench
