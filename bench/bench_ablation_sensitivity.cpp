/**
 * @file
 * Sensitivity ablations for the design choices DESIGN.md calls out:
 *  (1) the reconstruction calibration weights (do the paper's anchors
 *      depend delicately on them?),
 *  (2) external memory bandwidth (where do the Figure 15 apps go
 *      memory-bound?),
 *  (3) per-call overheads (what do short streams really cost?), and
 *  (4) SRF capacity (rm) -- where the QRD residency crossover lands.
 *
 * Sweeps (2)-(4) submit each app point to one svc::EvalService with
 * the swept sim::SimConfig as the point's explicit override.
 */
#include <cstdio>

#include "common/table.h"
#include "srf/srf.h"
#include "svc/eval_service.h"
#include "vlsi/cost_model.h"

namespace {

void
weightSensitivity()
{
    using namespace sps::vlsi;
    using sps::TextTable;
    TextTable t;
    t.header({"weights scaled by", "C=128 area/ALU", "C=128 energy/op",
              "N=16 energy/op"});
    for (double s : {0.5, 0.75, 1.0, 1.25, 1.5}) {
        Params p;
        p.kCommArea *= s;
        p.kCommEnergy *= s;
        p.kIntraEnergy *= s;
        p.kDistEnergy *= s;
        CostModel m(p);
        t.row({TextTable::num(s, 2),
               TextTable::num(m.areaPerAlu({128, 5}) /
                                  m.areaPerAlu({8, 5}),
                              3),
               TextTable::num(m.energyPerAluOp({128, 5}) /
                                  m.energyPerAluOp({8, 5}),
                              3),
               TextTable::num(m.energyPerAluOp({8, 16}) /
                                  m.energyPerAluOp({8, 5}),
                              3)});
    }
    std::printf("(1) calibration-weight sensitivity "
                "(paper anchors: 1.02, 1.07, 1.23)\n\n%s\n",
                t.toString().c_str());
}

void
memoryBandwidthSweep(sps::svc::EvalService &service)
{
    using namespace sps;
    using sps::TextTable;
    TextTable t;
    t.header({"mem GB/s", "DEPTH speedup", "mem busy", "CONV speedup",
              "mem busy", "RENDER speedup", "mem busy"});
    for (double gbs : {4.0, 16.0, 64.0}) {
        sim::SimConfig cfg;
        cfg.memConfig.peakWordsPerCycle = gbs / 4.0;
        std::vector<std::string> row{TextTable::num(gbs, 0)};
        for (const char *name : {"DEPTH", "CONV", "RENDER"}) {
            sim::SimResult small =
                service.eval(svc::EvalPoint{name, {8, 5}, cfg});
            sim::SimResult big =
                service.eval(svc::EvalPoint{name, {128, 10}, cfg});
            double speedup = static_cast<double>(small.cycles) /
                             static_cast<double>(big.cycles);
            row.push_back(TextTable::num(speedup, 1) + "x");
            // Memory-pin occupancy of the big machine: near 1.0 means
            // the app has gone memory-bound at this bandwidth point.
            row.push_back(TextTable::num(big.memBusyFraction(), 2));
        }
        t.row(row);
    }
    std::printf("(2) C=128 N=10 app speedup and memory occupancy vs "
                "bandwidth (paper point: 16 GB/s)\n\n%s\n",
                t.toString().c_str());
}

void
overheadSweep(sps::svc::EvalService &service)
{
    using namespace sps;
    using sps::TextTable;
    TextTable t;
    t.header({"host cycles/op", "pipe fill", "FFT1K speedup",
              "FFT4K speedup"});
    for (int host : {2, 8, 32}) {
        for (int fill : {8, 32}) {
            sim::SimConfig cfg;
            cfg.hostIssueCycles = host;
            cfg.ucConfig.pipeFillCycles = fill;
            std::vector<std::string> row{std::to_string(host),
                                         std::to_string(fill)};
            for (const char *name : {"FFT1K", "FFT4K"}) {
                auto cycles = [&](vlsi::MachineSize size) {
                    return service.eval(svc::EvalPoint{name, size, cfg})
                        .cycles;
                };
                double speedup =
                    static_cast<double>(cycles({8, 5})) /
                    static_cast<double>(cycles({128, 10}));
                row.push_back(TextTable::num(speedup, 1) + "x");
            }
            t.row(row);
        }
    }
    std::printf("(3) short-stream sensitivity to per-call overheads "
                "(C=128 N=10 vs C=8 N=5)\n\n%s\n",
                t.toString().c_str());
}

void
srfCapacitySweep(sps::svc::EvalService &service)
{
    using namespace sps;
    using sps::TextTable;
    TextTable t;
    t.header({"rm (SRF words/ALU/latency-cycle)", "SRF KB @ C=32 N=5",
              "QRD mem words", "QRD cycles"});
    for (double rm : {5.0, 10.0, 20.0, 40.0}) {
        sim::SimConfig cfg;
        cfg.size = {32, 5};
        cfg.params.rM = rm;
        sim::SimResult r =
            service.eval(svc::EvalPoint{"QRD", cfg.size, cfg});
        int64_t srf_words =
            srf::SrfModel::forMachine(cfg.size, cfg.params).capacityWords;
        t.row({TextTable::num(rm, 0),
               std::to_string(srf_words * 4 / 1024),
               std::to_string(r.memWords),
               std::to_string(r.cycles)});
    }
    std::printf("(4) SRF capacity (rm) and the QRD residency "
                "crossover at C=32 N=5 (paper rm = 20)\n\n%s\n",
                t.toString().c_str());
}

} // namespace

int
main()
{
    weightSensitivity();
    sps::svc::EvalService service;
    memoryBandwidthSweep(service);
    overheadSweep(service);
    srfCapacitySweep(service);
    return 0;
}
