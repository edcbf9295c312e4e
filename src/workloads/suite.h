/**
 * @file
 * The workload suite of Table 4: the six kernels used in the scaling
 * study (Figures 13-14, Table 5), the Table 2 census suite, and the
 * six applications of Figure 15, each exposed as a builder that
 * strip-mines itself for a concrete machine.
 */
#ifndef SPS_WORKLOADS_SUITE_H
#define SPS_WORKLOADS_SUITE_H

#include <functional>
#include <string>
#include <vector>

#include "kernel/ir.h"
#include "srf/srf.h"
#include "stream/program.h"
#include "vlsi/cost_model.h"

namespace sps::workloads {

/** Cached singleton accessors for the suite kernels. */
const kernel::Kernel &blocksadKernel();
const kernel::Kernel &convolveKernel();
const kernel::Kernel &updateKernel();
const kernel::Kernel &fftKernel();
const kernel::Kernel &noiseKernel();
const kernel::Kernel &irastKernel();
const kernel::Kernel &dctKernel();

/** One kernel-suite entry with its paper-reported Table 2 row. */
struct KernelEntry
{
    std::string name;
    const kernel::Kernel *kernel;
    /** Paper Table 2 values; -1 when the kernel is not in Table 2. */
    int paperAlu = -1;
    int paperSrf = -1;
    int paperComm = -1;
    int paperSp = -1;
};

/** The six kernels of Figures 13-14 (Table 4's kernel rows). */
std::vector<KernelEntry> kernelSuite();

/** The five kernels of Table 2 (includes DCT, excludes noise/irast). */
std::vector<KernelEntry> table2Suite();

/** One application builder. */
struct AppEntry
{
    std::string name;
    std::string description;
    /** Build the strip-mined program for a machine. */
    std::function<stream::StreamProgram(vlsi::MachineSize,
                                        const srf::SrfModel &)>
        build;
};

/** The six applications of Figure 15 (Table 4's application rows). */
std::vector<AppEntry> appSuite();

/**
 * The appSuite() entry named `name`, or nullptr for an unknown name.
 * Entries come from a function-local static suite, so the pointer
 * stays valid for the life of the process.
 */
const AppEntry *findApp(const std::string &name);

// Individual application builders (also reachable via appSuite()).
stream::StreamProgram buildRender(vlsi::MachineSize size,
                                  const srf::SrfModel &srf);
stream::StreamProgram buildDepth(vlsi::MachineSize size,
                                 const srf::SrfModel &srf);
stream::StreamProgram buildConvApp(vlsi::MachineSize size,
                                   const srf::SrfModel &srf);
stream::StreamProgram buildQrd(vlsi::MachineSize size,
                               const srf::SrfModel &srf);
stream::StreamProgram buildFftApp(vlsi::MachineSize size,
                                  const srf::SrfModel &srf, int points);

/** Kernels private to RENDER / QRD, exposed for tests. */
const kernel::Kernel &xformKernel();
const kernel::Kernel &trirastKernel();
const kernel::Kernel &housegenKernel(int clusters);

} // namespace sps::workloads

#endif // SPS_WORKLOADS_SUITE_H
