#include "svc/eval_service.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "stream/program.h"
#include "workloads/suite.h"

namespace sps::svc {

EvalService::EvalService(core::EvalEngine *engine,
                         store::ResultStore *store)
    : engine_(&core::resolveEngine(engine)), store_(store),
      dispatcher_([this] { dispatchLoop(); })
{
}

EvalService::~EvalService()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    dispatcher_.join();
}

sim::SimConfig
effectiveSimConfig(const EvalPoint &pt)
{
    sim::SimConfig cfg = pt.config ? *pt.config : sim::SimConfig{};
    // The point's size always wins: a request is "this app at this
    // machine size", and the override only reshapes the rest of the
    // configuration.
    cfg.size = pt.size;
    return cfg;
}

std::string
EvalService::requestKey(const EvalPoint &pt) const
{
    // The request key dedups *requests*; the content-addressed store
    // key (program x machine x config) is derived in the worker once
    // the program is built. Both must separate the same points: two
    // requests differing only in configuration never share a key
    // because both hash the *effective* configuration -- the same
    // sim::SimConfig the worker instantiates the processor from, so
    // the request key cannot diverge from the store key.
    return pt.app + "|" + std::to_string(pt.size.clusters) + "|" +
           std::to_string(pt.size.alusPerCluster) + "|" +
           std::to_string(simConfigHash(effectiveSimConfig(pt)));
}

std::shared_future<sim::SimResult>
EvalService::submit(const EvalPoint &pt)
{
    return submit(pt, nullptr);
}

std::shared_future<sim::SimResult>
EvalService::submit(const EvalPoint &pt,
                    std::shared_ptr<obs::RequestSpan> span)
{
    uint64_t t0 = obs::monotonicMicros();
    requests_.inc();
    std::string key = requestKey(pt);
    std::shared_future<sim::SimResult> future;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = results_.find(key);
        if (it != results_.end()) {
            bool ready = it->second.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
            (ready ? memHits_ : inflightDedup_).inc();
            // Both flavors count as the memory tier: the request was
            // served without touching disk or the engine (a dedup'd
            // in-flight twin rides the winner's work).
            constexpr int kMem = static_cast<int>(obs::Tier::Mem);
            if (span)
                span->setTier(obs::Tier::Mem);
            tier_[kMem].inc();
            durationTier_[kMem].observe(obs::monotonicMicros() - t0);
            return it->second;
        }
        Job job;
        job.pt = pt;
        job.span = std::move(span);
        job.enqueueUs = obs::monotonicMicros();
        future = job.promise.get_future().share();
        results_.emplace(std::move(key), future);
        pending_.push_back(std::move(job));
        submitted_.inc();
    }
    wake_.notify_one();
    return future;
}

sim::SimResult
EvalService::eval(const EvalPoint &pt)
{
    return submit(pt).get();
}

void
EvalService::dispatchLoop()
{
    for (;;) {
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock,
                       [&] { return stop_ || !pending_.empty(); });
            if (pending_.empty() && stop_)
                return;
            // Everything submitted since the last batch dispatches as
            // one engine job set: points evaluate concurrently on the
            // pool while later submissions accumulate for the next
            // batch.
            batch.reserve(pending_.size());
            while (!pending_.empty()) {
                batch.push_back(std::move(pending_.front()));
                pending_.pop_front();
            }
        }
        try {
            engine_->forEach(batch.size(),
                             [&](size_t i) { runJob(batch[i]); });
        } catch (...) {
            // Per-job failures already reached their promises (and
            // jobs whose promise died unfulfilled deliver
            // broken_promise); keep the dispatcher alive.
        }
    }
}

void
EvalService::runJob(Job &job)
{
    obs::RequestSpan *span = job.span.get();
    uint64_t start = obs::monotonicMicros();
    if (span)
        span->stage("queue", job.enqueueUs, start);
    queueWait_.observe(start - job.enqueueUs);
    obs::Tier tier = obs::Tier::Error;
    sim::SimResult res;
    std::exception_ptr err;
    try {
        const workloads::AppEntry *entry =
            workloads::findApp(job.pt.app);
        if (!entry)
            // Delivered through the requester's future, not fatal():
            // a bad request must not take the whole service down.
            throw std::runtime_error(
                "EvalService: unknown application " + job.pt.app);

        // The processor is built from the same effective config the
        // request key hashed; StreamProcessor carries it verbatim, so
        // simConfigHash(proc.config()) below keys the store entry
        // under exactly the configuration that was simulated.
        uint64_t tBuild = obs::monotonicMicros();
        sim::StreamProcessor proc(effectiveSimConfig(job.pt));
        stream::StreamProgram prog =
            entry->build(job.pt.size, proc.srf());
        if (span)
            span->stage("build", tBuild, obs::monotonicMicros());

        store::Key key{store::Kind::SimResult,
                       stream::programFingerprint(prog),
                       sched::machineConfigHash(proc.machine()),
                       simConfigHash(proc.config())};
        bool from_disk = false;
        if (store_) {
            obs::StageTimer t(span, "store_get");
            from_disk = store_->loadSimResult(key, &res);
        }
        if (from_disk) {
            tier = obs::Tier::Disk;
        } else {
            uint64_t tSim = obs::monotonicMicros();
            res = proc.run(prog);
            uint64_t tSimEnd = obs::monotonicMicros();
            if (span)
                span->stage("sim", tSim, tSimEnd);
            simDuration_.observe(tSimEnd - tSim);
            tier = obs::Tier::Compute;
            if (store_) {
                obs::StageTimer t(span, "store_put");
                store_->storeSimResult(key, res);
            }
        }
    } catch (...) {
        err = std::current_exception();
        tier = obs::Tier::Error;
    }
    // One tier outcome per job, success or not: the conservation
    // invariant (requests == mem + disk + compute + error) counts
    // exceptional resolutions too. Recorded *before* the promise
    // resolves: the waiter's get() is the caller's quiescence point,
    // so a snapshot taken after eval() returns must already include
    // this request's outcome.
    if (span)
        span->setTier(tier);
    int ti = static_cast<int>(tier);
    tier_[ti].inc();
    durationTier_[ti].observe(obs::monotonicMicros() - job.enqueueUs);
    if (err)
        job.promise.set_exception(std::move(err));
    else
        job.promise.set_value(std::move(res));
}

AppSweepPlan
appSweepPlan(const std::vector<int> &c_values,
             const std::vector<int> &n_values)
{
    AppSweepPlan plan;
    auto apps = workloads::appSuite();
    plan.baselines.reserve(apps.size());
    for (const auto &app : apps)
        plan.baselines.push_back(
            EvalPoint{app.name, core::kBaseline, {}});
    plan.grid.reserve(apps.size() * n_values.size() * c_values.size());
    for (const auto &app : apps)
        for (int n : n_values)
            for (int c : c_values)
                plan.grid.push_back(
                    EvalPoint{app.name, vlsi::MachineSize{c, n}, {}});
    return plan;
}

std::vector<core::AppPoint>
assembleAppPoints(const AppSweepPlan &plan,
                  const std::vector<sim::SimResult> &base_by_app,
                  std::vector<sim::SimResult> grid_results)
{
    std::vector<core::AppPoint> out;
    out.reserve(grid_results.size());
    const size_t per_app = plan.baselines.empty()
                               ? 1
                               : plan.grid.size() /
                                     plan.baselines.size();
    for (size_t i = 0; i < grid_results.size(); ++i) {
        const sim::SimResult &base = base_by_app[i / per_app];
        sim::SimResult res = std::move(grid_results[i]);
        core::AppPoint pt;
        pt.app = plan.grid[i].app;
        pt.size = plan.grid[i].size;
        pt.cycles = res.cycles;
        pt.speedup = static_cast<double>(base.cycles) /
                     static_cast<double>(res.cycles);
        core::StreamProcessorDesign d(pt.size);
        pt.gops = res.gops(d.tech().clockGHz());
        pt.result = std::move(res);
        out.push_back(std::move(pt));
    }
    return out;
}

std::vector<core::AppPoint>
EvalService::appPerformance(const std::vector<int> &c_values,
                            const std::vector<int> &n_values)
{
    // Submit the whole sweep -- baselines first, then the grid in the
    // canonical app -> n -> c axis order -- and only then collect, so
    // the service batches everything into one engine dispatch and the
    // baseline dedups against its grid twin.
    AppSweepPlan plan = appSweepPlan(c_values, n_values);
    std::vector<std::shared_future<sim::SimResult>> base_futures;
    base_futures.reserve(plan.baselines.size());
    for (const auto &pt : plan.baselines)
        base_futures.push_back(submit(pt));
    std::vector<std::shared_future<sim::SimResult>> grid_futures;
    grid_futures.reserve(plan.grid.size());
    for (const auto &pt : plan.grid)
        grid_futures.push_back(submit(pt));

    std::vector<sim::SimResult> base;
    base.reserve(base_futures.size());
    for (auto &f : base_futures)
        base.push_back(f.get());
    std::vector<sim::SimResult> grid;
    grid.reserve(grid_futures.size());
    for (auto &f : grid_futures)
        grid.push_back(f.get());
    return assembleAppPoints(plan, base, std::move(grid));
}

void
EvalService::clearMemory()
{
    std::lock_guard<std::mutex> lock(mu_);
    // Only completed entries may go: an in-flight future must stay
    // mapped so later identical submissions keep deduplicating onto
    // it instead of double-computing.
    for (auto it = results_.begin(); it != results_.end();) {
        if (it->second.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
            it = results_.erase(it);
        else
            ++it;
    }
}

void
EvalService::attachMetrics(obs::MetricsRegistry *registry)
{
    // One family at a time: Prometheus parsers reject a family whose
    // samples are split by another's (a repeated # TYPE line).
    constexpr obs::Tier kTiers[] = {obs::Tier::Mem, obs::Tier::Disk,
                                    obs::Tier::Compute, obs::Tier::Error};
    auto label = [](obs::Tier t) {
        return std::string("tier=\"") + obs::tierName(t) + "\"";
    };
    for (obs::Tier t : kTiers)
        registry->add(
            tier_[static_cast<int>(t)], "sps_requests_tier_total", label(t),
            "Requests resolved per tier (mem / disk / compute / error)");
    for (obs::Tier t : kTiers)
        registry->add(durationTier_[static_cast<int>(t)],
                      "sps_request_duration_us", label(t),
                      "Submit-to-resolution request latency (us)");
    // Listed (and therefore snapshot-read) *after* the tier counters:
    // a request increments requests_total first and its tier outcome
    // later, so reading outcomes before the total keeps
    // sum(tiers) <= requests_total in every concurrent snapshot.
    registry->add(requests_, "sps_requests_total", "",
                  "Evaluation requests submitted to the service");
    registry->add(queueWait_, "sps_queue_wait_us", "",
                  "Submit-to-dispatch queue wait (us)");
    registry->add(simDuration_, "sps_sim_duration_us", "",
                  "Simulation wall time of computed requests (us)");
    registry->add(submitted_, "sps_service_submitted", "",
                  "Distinct requests queued (post-dedup)");
    registry->add(memHits_, "sps_service_mem_hits");
    registry->add(inflightDedup_, "sps_service_inflight_dedup");
    registry->add(tier_[static_cast<int>(obs::Tier::Disk)],
                  "sps_service_disk_hits");
    registry->add(tier_[static_cast<int>(obs::Tier::Compute)],
                  "sps_service_sims");
}

ServiceCounters
EvalService::counters() const
{
    return ServiceCounters{
        submitted_.value(), memHits_.value(), inflightDedup_.value(),
        tier_[static_cast<int>(obs::Tier::Disk)].value(),
        tier_[static_cast<int>(obs::Tier::Compute)].value()};
}

obs::MetricsSnapshot
cacheTierSnapshot(EvalService &service)
{
    obs::MetricsRegistry registry;
    service.engine().cache().attachMetrics(&registry);
    if (service.store())
        service.store()->attachMetrics(&registry);
    service.attachMetrics(&registry);
    return registry.snapshot();
}

std::vector<std::vector<std::string>>
cacheStatsRows(const obs::MetricsSnapshot &snap)
{
    struct TierRow
    {
        const char *tier;
        const char *counter;
        const char *metric;
    };
    static constexpr TierRow kRows[] = {
        {"schedule_cache", "mem_hits", "sps_sched_cache_hits"},
        {"schedule_cache", "disk_hits", "sps_sched_cache_disk_hits"},
        {"schedule_cache", "compiles", "sps_sched_cache_compiles"},
        {"result_store", "hits", "sps_store_hits"},
        {"result_store", "misses", "sps_store_misses"},
        {"result_store", "corrupt", "sps_store_corrupt"},
        {"result_store", "writes", "sps_store_writes"},
        {"result_store", "write_errors", "sps_store_write_errors"},
        {"result_store", "evicted", "sps_store_evicted"},
        {"result_store", "reclaimed_bytes", "sps_store_reclaimed_bytes"},
        {"eval_service", "submitted", "sps_service_submitted"},
        {"eval_service", "mem_hits", "sps_service_mem_hits"},
        {"eval_service", "inflight_dedup", "sps_service_inflight_dedup"},
        {"eval_service", "disk_hits", "sps_service_disk_hits"},
        {"eval_service", "sims", "sps_service_sims"},
    };
    std::vector<std::vector<std::string>> rows;
    for (const TierRow &r : kRows)
        if (const obs::MetricSample *m = snap.find(r.metric))
            rows.push_back(
                {r.tier, r.counter, std::to_string(m->value)});
    return rows;
}

} // namespace sps::svc
