/**
 * @file
 * One full figure-suite computation: the work bench_export_all
 * formats (VLSI sweeps, Figures 13/14, Table 5 and the Figure-15 app
 * grid), with the app grid routed through the evaluation service.
 * bench_headline times it; the figure-suite count test pins what one
 * cold run of it does.
 */
#ifndef SPS_BENCH_FIGURE_SUITE_H
#define SPS_BENCH_FIGURE_SUITE_H

#include <chrono>
#include <vector>

#include "core/eval_engine.h"
#include "core/experiments.h"
#include "svc/eval_service.h"
#include "vlsi/cost_model.h"
#include "vlsi/sweep.h"

namespace sps::bench {

/** What one figure-suite run took and produced. */
struct FigureSuiteRun
{
    double seconds = 0.0; ///< wall-clock
    /** The Figure-15 grid (one point per app, C and N). */
    std::vector<core::AppPoint> fig15;
};

inline FigureSuiteRun
runFigureSuite(core::EvalEngine &eng, svc::EvalService &service)
{
    auto t0 = std::chrono::steady_clock::now();
    vlsi::CostModel model;
    vlsi::intraclusterSweep(model, 8, vlsi::defaultIntraRange(), 5,
                            &eng.pool());
    vlsi::interclusterSweep(model, 5, vlsi::defaultInterRange(), 8,
                            &eng.pool());
    core::kernelIntraSpeedups({2, 5, 10, 14}, 8, &eng);
    core::kernelInterSpeedups({8, 16, 32, 64, 128}, 5, &eng);
    core::table5PerfPerArea({2, 5, 10, 14}, {8, 16, 32, 64, 128}, &eng);
    FigureSuiteRun run;
    run.fig15 =
        service.appPerformance({8, 16, 32, 64, 128}, {2, 5, 10, 14});
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return run;
}

} // namespace sps::bench

#endif // SPS_BENCH_FIGURE_SUITE_H
