// End-to-end telemetry tests: the conservation invariant
// (requests_total == mem + disk + compute + error, per-tier histogram
// counts matching tier counters), one counter per event (counters()
// and every series that lists an event read the same count), metrics
// that record before and after any registry lists them, snapshot
// consistency under a concurrent submit storm (TSan-covered in CI),
// the MetricsRequest round trip through server and client, the
// server-side span pipeline behind the slow-request log and the
// Chrome-trace export, a daemon scrape that types each metric family
// once, and the cache-tier rows rendered from a snapshot.
#ifndef _WIN32

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_engine.h"
#include "obs/metrics.h"
#include "sched/schedule_cache.h"
#include "svc/eval_client.h"
#include "svc/eval_server.h"
#include "svc/eval_service.h"
#include "trace/tracer.h"
#include "workloads/suite.h"

namespace sps::svc {
namespace {

std::string
freshRoot(const char *name)
{
    std::string root = ::testing::TempDir() + "sps_telemetry_" + name;
    std::filesystem::remove_all(root);
    return root;
}

std::string
freshSock(const char *name)
{
    std::string path = "/tmp/sps_evald_test_" +
                       std::to_string(::getpid()) + "_" + name +
                       ".sock";
    ::unlink(path.c_str());
    return path;
}

const EvalPoint kPoint{"DEPTH", vlsi::MachineSize{8, 5}, {}};

uint64_t
tierCounter(const obs::MetricsSnapshot &snap, const char *tier)
{
    return static_cast<uint64_t>(
        snap.value("sps_requests_tier_total",
                   std::string("tier=\"") + tier + "\""));
}

uint64_t
tierHistCount(const obs::MetricsSnapshot &snap, const char *tier)
{
    const obs::MetricSample *m =
        snap.find("sps_request_duration_us",
                  std::string("tier=\"") + tier + "\"");
    return m ? m->count : 0;
}

TEST(ServiceTelemetryTest, ConservationAcrossMemComputeAndError)
{
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    service.attachMetrics(&reg);

    service.eval(kPoint);                            // compute
    service.eval(kPoint);                            // mem
    EXPECT_THROW(service.eval({"NO_SUCH_APP", {8, 5}, {}}),
                 std::runtime_error);                // error

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_requests_total"), 3);
    EXPECT_EQ(tierCounter(snap, "compute"), 1u);
    EXPECT_EQ(tierCounter(snap, "mem"), 1u);
    EXPECT_EQ(tierCounter(snap, "error"), 1u);
    EXPECT_EQ(tierCounter(snap, "disk"), 0u);

    // Every request resolved to exactly one tier, and the per-tier
    // duration histogram saw exactly what its counter saw.
    uint64_t tier_sum = 0;
    for (const char *tier : {"mem", "disk", "compute", "error"}) {
        EXPECT_EQ(tierHistCount(snap, tier), tierCounter(snap, tier))
            << "tier " << tier;
        tier_sum += tierCounter(snap, tier);
    }
    EXPECT_EQ(tier_sum,
              static_cast<uint64_t>(snap.value("sps_requests_total")));

    // Queue wait is recorded per dispatched job: the compute and the
    // error request queued, the mem hit resolved inside submit().
    const obs::MetricSample *qw = snap.find("sps_queue_wait_us");
    ASSERT_NE(qw, nullptr);
    EXPECT_EQ(qw->count, 2u);
    const obs::MetricSample *sim = snap.find("sps_sim_duration_us");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->count, 1u);

    // The sps_service_* series read the service's own counters.
    ServiceCounters c = service.counters();
    EXPECT_EQ(snap.value("sps_service_submitted"),
              static_cast<int64_t>(c.submitted));
    EXPECT_EQ(snap.value("sps_service_mem_hits"),
              static_cast<int64_t>(c.memHits));
    EXPECT_EQ(snap.value("sps_service_sims"),
              static_cast<int64_t>(c.computed));
}

TEST(ServiceTelemetryTest, DiskTierCountsInConservation)
{
    std::string root = freshRoot("disk");
    {
        store::ResultStore cold(root);
        core::EvalEngine engine(2);
        EvalService service(&engine, &cold);
        service.eval(kPoint);
    }

    obs::MetricsRegistry reg;
    store::ResultStore warm(root);
    warm.attachMetrics(&reg);
    core::EvalEngine engine(2);
    EvalService service(&engine, &warm);
    service.attachMetrics(&reg);
    service.eval(kPoint);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_requests_total"), 1);
    EXPECT_EQ(tierCounter(snap, "disk"), 1u);
    EXPECT_EQ(tierCounter(snap, "compute"), 0u);
    EXPECT_EQ(tierHistCount(snap, "disk"), 1u);
    // No simulation ran, and the store's own instrumentation saw the
    // hit.
    const obs::MetricSample *sim = snap.find("sps_sim_duration_us");
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->count, 0u);
    const obs::MetricSample *get =
        snap.find("sps_store_get_duration_us", "result=\"hit\"");
    ASSERT_NE(get, nullptr);
    EXPECT_GE(get->count, 1u);
    EXPECT_GE(snap.value("sps_store_hits"), 1);
}

TEST(ServiceTelemetryTest, ServiceCountersAndTierSeriesAreOneCount)
{
    // A sweep that mixes disk and compute outcomes (and a memory hit):
    // sps_service_disk_hits / sps_service_sims and the disk / compute
    // tier series list the same counters, so they agree with each
    // other and with counters() exactly.
    std::string root = freshRoot("onecount");
    {
        store::ResultStore cold(root);
        core::EvalEngine engine(2);
        EvalService service(&engine, &cold);
        service.eval(kPoint);
    }
    obs::MetricsRegistry reg;
    store::ResultStore warm(root);
    core::EvalEngine engine(2);
    EvalService service(&engine, &warm);
    service.attachMetrics(&reg);
    service.eval(kPoint);                      // disk
    service.eval({"QRD", {8, 5}, {}});         // compute
    service.eval({"DEPTH", {16, 5}, {}});      // compute
    service.eval({"DEPTH", {16, 5}, {}});      // mem

    obs::MetricsSnapshot snap = reg.snapshot();
    ServiceCounters c = service.counters();
    EXPECT_EQ(c.diskHits, 1u);
    EXPECT_EQ(c.computed, 2u);
    EXPECT_EQ(snap.value("sps_service_disk_hits"),
              static_cast<int64_t>(c.diskHits));
    EXPECT_EQ(tierCounter(snap, "disk"), c.diskHits);
    EXPECT_EQ(snap.value("sps_service_sims"),
              static_cast<int64_t>(c.computed));
    EXPECT_EQ(tierCounter(snap, "compute"), c.computed);
    EXPECT_EQ(tierCounter(snap, "mem"), c.memHits + c.inflightDedup);
}

TEST(ServiceTelemetryTest, LateListedMetricsShowEarlierEvents)
{
    // Metrics record from construction, so a store and a cache that
    // worked before anything listed them show that work in the first
    // snapshot: counts and histograms alike.
    std::string root = freshRoot("late");
    store::ResultStore store(root);
    store::Key key{store::Kind::Schedule, 1, 2, 3};
    ASSERT_TRUE(store.put(key, {1, 2, 3}));
    constexpr int kGets = 3;
    std::vector<uint8_t> payload;
    for (int i = 0; i < kGets; ++i)
        ASSERT_TRUE(store.get(key, &payload));
    sched::ScheduleCache cache;
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    cache.get(workloads::convolveKernel(), m);
    cache.get(workloads::convolveKernel(), m);

    obs::MetricsRegistry reg;
    store.attachMetrics(&reg);
    cache.attachMetrics(&reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_store_hits"), kGets);
    const obs::MetricSample *hit =
        snap.find("sps_store_get_duration_us", "result=\"hit\"");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->count, static_cast<uint64_t>(kGets));
    const obs::MetricSample *put = snap.find("sps_store_put_duration_us");
    ASSERT_NE(put, nullptr);
    EXPECT_EQ(put->count, 1u);
    EXPECT_EQ(snap.value("sps_store_writes"), 1);
    EXPECT_EQ(snap.value("sps_sched_cache_compiles"), 1);
    EXPECT_EQ(snap.value("sps_sched_cache_hits"), 1);
    EXPECT_EQ(snap.value("sps_sched_cache_entries"), 1);
    const obs::MetricSample *compile =
        snap.find("sps_sched_compile_duration_us");
    ASSERT_NE(compile, nullptr);
    EXPECT_EQ(compile->count, 1u);

    // clear() restarts the cache's counts and its entry gauge.
    cache.clear();
    snap = reg.snapshot();
    EXPECT_EQ(snap.value("sps_sched_cache_compiles"), 0);
    EXPECT_EQ(snap.value("sps_sched_cache_hits"), 0);
    EXPECT_EQ(snap.value("sps_sched_cache_entries"), 0);
}

TEST(ServiceTelemetryTest, RegistryMayDieBeforeItsComponents)
{
    // Nothing points from a component into a registry: once the
    // registry is gone, gets, puts and compiles record into the
    // components' own metrics (ASan would flag any write into the
    // dead registry).
    std::string root = freshRoot("registry_dies");
    store::ResultStore store(root);
    sched::ScheduleCache cache;
    cache.attachStore(&store);
    {
        obs::MetricsRegistry reg;
        store.attachMetrics(&reg);
        cache.attachMetrics(&reg);
        EXPECT_EQ(reg.snapshot().value("sps_store_hits"), 0);
    }
    store::Key key{store::Kind::Schedule, 1, 2, 3};
    std::vector<uint8_t> payload;
    EXPECT_FALSE(store.get(key, &payload));
    EXPECT_TRUE(store.put(key, {1, 2, 3}));
    EXPECT_TRUE(store.get(key, &payload));
    sched::MachineModel m =
        sched::MachineModel::forSize(vlsi::MachineSize{8, 5});
    cache.get(workloads::convolveKernel(), m);
    cache.attachStore(nullptr);

    obs::MetricsRegistry fresh;
    store.attachMetrics(&fresh);
    cache.attachMetrics(&fresh);
    obs::MetricsSnapshot snap = fresh.snapshot();
    EXPECT_EQ(snap.value("sps_store_hits"), 1);
    // The compile's own lookup missed, and its write-back is the
    // second put.
    EXPECT_EQ(snap.value("sps_store_misses"), 2);
    EXPECT_EQ(snap.value("sps_store_writes"), 2);
    EXPECT_EQ(snap.value("sps_sched_cache_compiles"), 1);
    EXPECT_EQ(snap.find("sps_store_put_duration_us")->count, 2u);
    EXPECT_EQ(snap.find("sps_sched_compile_duration_us")->count, 1u);
}

TEST(ServiceTelemetryTest, SnapshotsStayConsistentUnderSubmitStorm)
{
    // Writers hammer submit() from several threads (dedup hits,
    // distinct computes, and errors all mixed) while this thread
    // scrapes; every scrape must satisfy the monotone invariant
    // sum(tiers) <= requests_total, and the quiescent scrape must
    // satisfy exact conservation. CI runs this under TSan.
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    service.attachMetrics(&reg);

    constexpr int kThreads = 3;
    constexpr int kRounds = 40;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
            std::vector<std::shared_future<sim::SimResult>> futures;
            for (int i = 0; i < kRounds; ++i) {
                futures.push_back(service.submit(kPoint));
                if (i % 8 == t)
                    futures.push_back(service.submit(
                        {"NO_SUCH_APP", {8, 5}, {}}));
            }
            for (auto &f : futures) {
                try {
                    f.get();
                } catch (const std::exception &) {
                    // error-tier futures resolve by throwing
                }
            }
        });

    std::thread scraper([&] {
        while (!done.load()) {
            obs::MetricsSnapshot snap = reg.snapshot();
            uint64_t tier_sum = 0;
            for (const char *tier :
                 {"mem", "disk", "compute", "error"}) {
                tier_sum += tierCounter(snap, tier);
                const obs::MetricSample *h =
                    snap.find("sps_request_duration_us",
                              std::string("tier=\"") + tier + "\"");
                ASSERT_NE(h, nullptr);
                uint64_t buckets = 0;
                for (uint64_t b : h->buckets)
                    buckets += b;
                EXPECT_LE(buckets, h->count);
            }
            EXPECT_LE(
                tier_sum,
                static_cast<uint64_t>(snap.value("sps_requests_total")))
                << "a tier outcome appeared before its request";
            std::this_thread::yield();
        }
    });

    for (auto &t : writers)
        t.join();
    done.store(true);
    scraper.join();

    obs::MetricsSnapshot snap = reg.snapshot();
    uint64_t tier_sum = 0;
    for (const char *tier : {"mem", "disk", "compute", "error"}) {
        EXPECT_EQ(tierHistCount(snap, tier), tierCounter(snap, tier))
            << "tier " << tier;
        tier_sum += tierCounter(snap, tier);
    }
    EXPECT_EQ(tier_sum,
              static_cast<uint64_t>(snap.value("sps_requests_total")));
    EXPECT_EQ(tierCounter(snap, "compute"), 1u);
    EXPECT_GE(tierCounter(snap, "error"), 1u);
}

TEST(ServerTelemetryTest, MetricsRoundTripThroughTheSocket)
{
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("metrics");
    ServerTelemetry telemetry;
    telemetry.registry = &reg;
    EvalServer server(&service, sock, telemetry);

    EvalClient client(sock);
    client.eval(kPoint);
    client.eval(kPoint);
    EXPECT_THROW(client.eval({"NO_SUCH_APP", {8, 5}, {}}),
                 std::runtime_error);

    // The scraped snapshot is the same registry the server serves
    // from, shipped over the wire structurally intact.
    obs::MetricsSnapshot snap = client.metrics();
    EXPECT_FALSE(client.dead());
    EXPECT_EQ(snap.value("sps_requests_total"), 3);
    EXPECT_EQ(tierCounter(snap, "compute"), 1u);
    EXPECT_EQ(tierCounter(snap, "mem"), 1u);
    EXPECT_EQ(tierCounter(snap, "error"), 1u);
    const obs::MetricSample *e2e =
        snap.find("sps_server_request_duration_us");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->count, 3u);
    EXPECT_GE(snap.value("sps_server_connections"), 1);
    // The decoded snapshot renders exactly like a local one.
    std::string text = obs::renderPrometheus(snap);
    EXPECT_NE(text.find("sps_requests_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE sps_request_duration_us histogram"),
              std::string::npos);

    // The server retired one span per request, each with a resolved
    // tier and a delivery stage, exportable as a Chrome trace.
    EXPECT_EQ(server.spanRecorder().retiredCount(), 3u);
    for (const auto &span : server.spanRecorder().spans()) {
        EXPECT_NE(span->tier(), obs::Tier::Unknown);
        EXPECT_NE(span->label().find("/8x5"), std::string::npos)
            << span->label();
        bool delivered = false;
        for (const auto &stage : span->stages())
            if (std::string(stage.name) == "deliver")
                delivered = true;
        EXPECT_TRUE(delivered) << span->describe();
    }
    trace::Tracer tracer;
    server.spanRecorder().toTracer(&tracer);
    EXPECT_GT(tracer.size(), 0u);

    server.stop();
}

TEST(ServerTelemetryTest, LocalSnapshotMatchesTheWire)
{
    obs::MetricsRegistry reg;
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("localsnap");
    ServerTelemetry telemetry;
    telemetry.registry = &reg;
    EvalServer server(&service, sock, telemetry);

    EvalClient client(sock);
    client.eval(kPoint);
    obs::MetricsSnapshot wire = client.metrics();
    obs::MetricsSnapshot local = server.metricsSnapshot();
    // Quiescent, so the two scrapes agree on everything that counts.
    EXPECT_EQ(local.value("sps_requests_total"),
              wire.value("sps_requests_total"));
    EXPECT_EQ(tierCounter(local, "compute"),
              tierCounter(wire, "compute"));
    server.stop();
}

TEST(ServerTelemetryTest, DaemonScrapeTypesEachFamilyOnce)
{
    // Wired as sps_evald wires it: store, schedule cache, service and
    // server on one registry. Prometheus parsers reject a family that
    // another family's samples split in two (a repeated # TYPE line),
    // so every family must be listed contiguously.
    std::string root = freshRoot("families");
    store::ResultStore store(root);
    core::EvalEngine engine(1);
    obs::MetricsRegistry reg;
    store.attachMetrics(&reg);
    engine.cache().attachStore(&store);
    engine.cache().attachMetrics(&reg);
    {
        EvalService service(&engine, &store);
        std::string sock = freshSock("families");
        ServerTelemetry telemetry;
        telemetry.registry = &reg;
        EvalServer server(&service, sock, telemetry);

        std::istringstream text(
            obs::renderPrometheus(server.metricsSnapshot()));
        std::map<std::string, int> typed;
        for (std::string line; std::getline(text, line);)
            if (line.rfind("# TYPE ", 0) == 0)
                ++typed[line.substr(7, line.find(' ', 7) - 7)];
        EXPECT_GT(typed.size(), 20u);
        for (const auto &[name, n] : typed)
            EXPECT_EQ(n, 1) << "# TYPE " << name;
        EXPECT_EQ(typed.count("sps_requests_tier_total"), 1u);
        EXPECT_EQ(typed.count("sps_request_duration_us"), 1u);
        server.stop();
    }
    engine.cache().attachStore(nullptr);
}

TEST(ServerTelemetryTest, MetricsWithoutTelemetryIsACleanError)
{
    core::EvalEngine engine(2);
    EvalService service(&engine);
    std::string sock = freshSock("nometrics");
    EvalServer server(&service, sock); // no registry

    EvalClient client(sock);
    EXPECT_THROW(client.metrics(), std::runtime_error);
    // A well-formed-but-unanswerable request keeps the conversation
    // in lockstep: the connection survives.
    EXPECT_FALSE(client.dead());
    EXPECT_GT(client.eval(kPoint).cycles, 0);
    EXPECT_EQ(server.metricsSnapshot().metrics.size(), 0u);
    server.stop();
}

using Rows = std::vector<std::vector<std::string>>;

TEST(CacheTierRowsTest, PinnedRowsOfASmallSweepWithAStore)
{
    // A deterministic sweep that moves every tier: computes, a memory
    // hit, a disk hit, and -- after the schedule cache is emptied --
    // schedules read back from the store. The expected rows (tier,
    // counter, value, order) were recorded with the renderer that
    // read the three counter structs directly.
    std::string root = freshRoot("rows");
    store::ResultStore store(root);
    core::EvalEngine engine(1);
    sched::ScheduleCache &cache = engine.cache();
    cache.clear();
    cache.attachStore(&store);
    Rows rows;
    {
        EvalService service(&engine, &store);
        service.eval(kPoint);
        service.eval(kPoint);
        service.clearMemory();
        service.eval(kPoint);
        cache.clear();
        service.eval({"QRD", {8, 5}, {}});
        sim::SimConfig slow;
        slow.memConfig.latencyCycles += 200;
        service.eval({"DEPTH", {8, 5}, slow});
        rows = cacheStatsRows(cacheTierSnapshot(service));
    }
    cache.attachStore(nullptr);
    cache.clear();
    const Rows want{
        {"schedule_cache", "mem_hits", "0"},
        {"schedule_cache", "disk_hits", "3"},
        {"schedule_cache", "compiles", "2"},
        {"result_store", "hits", "4"},
        {"result_store", "misses", "8"},
        {"result_store", "corrupt", "0"},
        {"result_store", "writes", "8"},
        {"result_store", "write_errors", "0"},
        {"result_store", "evicted", "0"},
        {"result_store", "reclaimed_bytes", "0"},
        {"eval_service", "submitted", "4"},
        {"eval_service", "mem_hits", "1"},
        {"eval_service", "inflight_dedup", "0"},
        {"eval_service", "disk_hits", "1"},
        {"eval_service", "sims", "3"},
    };
    EXPECT_EQ(rows, want);
}

TEST(CacheTierRowsTest, RowsFollowTheGaugesTheSnapshotHolds)
{
    EXPECT_TRUE(cacheStatsRows(obs::MetricsSnapshot{}).empty());
    // No store attached: schedule-cache and service rows only.
    core::EvalEngine engine(1);
    EvalService service(&engine);
    Rows rows = cacheStatsRows(cacheTierSnapshot(service));
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[2][0] + "," + rows[2][1], "schedule_cache,compiles");
    EXPECT_EQ(rows[3][0] + "," + rows[3][1], "eval_service,submitted");
    EXPECT_EQ(rows[7][0] + "," + rows[7][1], "eval_service,sims");
}

TEST(CacheTierRowsTest, AttachedRegistryRendersTheSameRows)
{
    // A daemon's registry (every component listed, histograms and all)
    // and a throwaway snapshot of the same components agree row for
    // row: the --server and in-process cache_stats.csv share one
    // source.
    std::string root = freshRoot("attached");
    store::ResultStore store(root);
    core::EvalEngine engine(1);
    sched::ScheduleCache &cache = engine.cache();
    cache.clear();
    cache.attachStore(&store);
    {
        obs::MetricsRegistry reg;
        store.attachMetrics(&reg);
        cache.attachMetrics(&reg);
        EvalService service(&engine, &store);
        service.attachMetrics(&reg);
        service.eval(kPoint);
        service.eval(kPoint);
        Rows attached = cacheStatsRows(reg.snapshot());
        EXPECT_EQ(attached.size(), 15u);
        EXPECT_EQ(attached, cacheStatsRows(cacheTierSnapshot(service)));
    }
    cache.attachStore(nullptr);
    cache.clear();
}

} // namespace
} // namespace sps::svc

#endif // !_WIN32
