/**
 * @file
 * perfbench runner: runs one workload and prints its metrics, one per
 * line as "name value unit", then a final JSON line
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--spans-out FILE]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
 * metrics (use the perfbench_traced binary, which carries the span
 * interposers). Working files (stores, the daemon socket) live under
 * --work-dir, which is created and entered.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload cold_sweep|disk_warm|daemon_warm|"
                 "interp_kernels --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--spans-out FILE]\n",
                 argv0);
    return 2;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload, workDir = ".", seedArg, secondsArg, traceArg;
    RunConfig cfg;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seedArg = value;
        else if (flag == "--seconds")
            secondsArg = value;
        else if (flag == "--trace")
            traceArg = value;
        else if (flag == "--work-dir")
            workDir = value;
        else if (flag == "--spans-out")
            cfg.spansOut = std::filesystem::absolute(value).string();
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || workload.empty() || seedArg.empty() ||
        secondsArg.empty() || (traceArg != "0" && traceArg != "1"))
        return usage(argv[0]);
    cfg.seed = std::strtoull(seedArg.c_str(), nullptr, 10);
    cfg.seconds = std::atof(secondsArg.c_str());
    cfg.trace = traceArg == "1";
    if (cfg.seconds <= 0.0)
        return usage(argv[0]);
    if (cfg.trace && !layerWrapsLinked()) {
        std::fprintf(stderr, "%s: --trace 1 needs the perfbench_traced "
                             "binary\n",
                     argv[0]);
        return 2;
    }

    Report (*run)(const RunConfig &) = nullptr;
    if (workload == "cold_sweep")
        run = coldSweep;
    else if (workload == "disk_warm")
        run = diskWarm;
    else if (workload == "daemon_warm")
        run = daemonWarm;
    else if (workload == "interp_kernels")
        run = interpKernels;
    else
        return usage(argv[0]);

    // Relative paths keep the daemon socket path short wherever the
    // checkout lives.
    std::error_code ec;
    std::filesystem::create_directories(workDir, ec);
    std::filesystem::current_path(workDir, ec);
    if (ec) {
        std::fprintf(stderr, "%s: cannot enter %s: %s\n", argv[0],
                     workDir.c_str(), ec.message().c_str());
        return 1;
    }

    Report rep;
    try {
        rep = run(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    if (rep.attempted == 0) {
        std::fprintf(stderr, "%s: no operation was attempted\n", argv[0]);
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += rep.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
