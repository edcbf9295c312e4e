/**
 * @file
 * The benchmark's four workloads. Each runs in its own process, sets
 * itself up (timed as setup_s), measures for the configured seconds,
 * checks every output, and returns its metrics: the end-to-end set
 * from an untraced run, the per-layer set from a traced one.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig
{
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Where a traced run writes its spans (Chrome trace JSON). */
    std::string spansOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);
};

Report coldSweep(const RunConfig &cfg);
Report diskWarm(const RunConfig &cfg);
Report daemonWarm(const RunConfig &cfg);
Report interpKernels(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
