/**
 * @file
 * Experiment runners: the kernel and cost data series behind the
 * paper's evaluation (Figures 13-14, Table 5, and the headline kernel
 * and cost comparisons), plus the Figure-15 AppPoint record. The
 * bench binaries format these; the integration tests assert their
 * shapes.
 *
 * Every runner here routes through an EvalEngine: design points
 * evaluate concurrently on its thread pool and kernel compilations
 * memoize in the shared schedule cache, while results are collected
 * in deterministic axis order. Passing nullptr (the default) uses
 * EvalEngine::global(). App simulations are not run here: every app
 * point goes through svc::EvalService, whose appPerformance builds
 * the Figure-15 grid, and harmonicMeanSpeedup() reads the headline
 * app speedups off that grid.
 */
#ifndef SPS_CORE_EXPERIMENTS_H
#define SPS_CORE_EXPERIMENTS_H

#include <map>
#include <string>
#include <vector>

#include "core/design.h"
#include "sim/stats.h"

namespace sps::core {

class EvalEngine;

/** The reference machine all speedups are measured against. */
constexpr vlsi::MachineSize kBaseline{8, 5};

/** One kernel's speedup series over an axis of machine sizes. */
struct SpeedupSeries
{
    std::string name;
    std::vector<double> values;
};

/** Kernel inner-loop speedups along one scaling axis. */
struct KernelSpeedupData
{
    /** Axis values (N for intracluster, C for intercluster). */
    std::vector<int> axis;
    /** Per-kernel series plus a final "harmonic mean" series. */
    std::vector<SpeedupSeries> series;
};

/** Figure 13: intracluster kernel speedups (C fixed). */
KernelSpeedupData kernelIntraSpeedups(
    const std::vector<int> &n_values = {2, 5, 10, 14}, int c = 8,
    EvalEngine *engine = nullptr);

/** Figure 14: intercluster kernel speedups (N fixed). */
KernelSpeedupData kernelInterSpeedups(
    const std::vector<int> &c_values = {8, 16, 32, 64, 128}, int n = 5,
    EvalEngine *engine = nullptr);

/** Table 5: kernel performance per unit area. */
struct PerfPerAreaData
{
    std::vector<int> nValues;
    std::vector<int> cValues;
    /** value[n][c]: harmonic-mean GOPS per ALU-equivalent of area. */
    std::vector<std::vector<double>> value;
};

PerfPerAreaData
table5PerfPerArea(const std::vector<int> &n_values = {2, 5, 10, 14},
                  const std::vector<int> &c_values = {8, 16, 32, 64,
                                                      128},
                  EvalEngine *engine = nullptr);

/** One application measurement at one machine size. */
struct AppPoint
{
    std::string app;
    vlsi::MachineSize size;
    int64_t cycles = 0;
    double speedup = 0.0; ///< vs the C=8 N=5 baseline
    double gops = 0.0;    ///< sustained at the 45nm 1 GHz clock
    /** Full simulation result (hardware counters, timeline). */
    sim::SimResult result;
};

/**
 * Harmonic-mean speedup of the Figure-15 grid's points at `size`, in
 * grid (app-suite) order: the headline app numbers read the grid
 * svc::EvalService::appPerformance computed instead of simulating
 * those points again. The grid must hold at least one point at
 * `size`.
 */
double harmonicMeanSpeedup(const std::vector<AppPoint> &fig15,
                           vlsi::MachineSize size);

/**
 * The paper's headline kernel and cost comparison (Abstract /
 * Section 6); the app speedups are harmonicMeanSpeedup() of the
 * Figure-15 grid.
 */
struct Headline
{
    /** C=128 N=5 (640 ALUs) vs C=8 N=5 (40 ALUs). */
    double kernelSpeedup640 = 0.0;
    double areaPerAluDegradation640 = 0.0;   // fraction, e.g. 0.02
    double energyPerOpDegradation640 = 0.0;  // fraction, e.g. 0.07
    double kernelGops640 = 0.0;
    /** C=128 N=10 (1280 ALUs) vs C=8 N=5. */
    double kernelSpeedup1280 = 0.0;
};

/** Compute the headline kernel and cost numbers. */
Headline headlineNumbers(EvalEngine *engine = nullptr);

} // namespace sps::core

#endif // SPS_CORE_EXPERIMENTS_H
