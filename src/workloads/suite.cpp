#include "workloads/suite.h"

#include "workloads/kernels/kernels.h"

namespace sps::workloads {

const kernel::Kernel &
blocksadKernel()
{
    static const kernel::Kernel k = makeBlocksad();
    return k;
}

const kernel::Kernel &
convolveKernel()
{
    static const kernel::Kernel k = makeConvolve();
    return k;
}

const kernel::Kernel &
updateKernel()
{
    static const kernel::Kernel k = makeUpdate();
    return k;
}

const kernel::Kernel &
fftKernel()
{
    static const kernel::Kernel k = makeFftStage();
    return k;
}

const kernel::Kernel &
noiseKernel()
{
    static const kernel::Kernel k = makeNoise();
    return k;
}

const kernel::Kernel &
irastKernel()
{
    static const kernel::Kernel k = makeIrast();
    return k;
}

const kernel::Kernel &
dctKernel()
{
    static const kernel::Kernel k = makeDct();
    return k;
}

std::vector<KernelEntry>
kernelSuite()
{
    return {
        {"blocksad", &blocksadKernel(), 59, 28, 10, 4},
        {"convolve", &convolveKernel(), 133, 14, 5, 2},
        {"update", &updateKernel(), 61, 4, 16, 32},
        {"fft", &fftKernel(), 145, 64, 40, 72},
        {"noise", &noiseKernel(), -1, -1, -1, -1},
        {"irast", &irastKernel(), -1, -1, -1, -1},
    };
}

std::vector<KernelEntry>
table2Suite()
{
    return {
        {"blocksad", &blocksadKernel(), 59, 28, 10, 4},
        {"convolve", &convolveKernel(), 133, 14, 5, 2},
        {"update", &updateKernel(), 61, 4, 16, 32},
        {"fft", &fftKernel(), 145, 64, 40, 72},
        {"dct", &dctKernel(), 150, 16, 7, 32},
    };
}

std::vector<AppEntry>
appSuite()
{
    return {
        {"RENDER", "polygon rendering with a procedural marble shader",
         buildRender},
        {"DEPTH", "stereo depth extraction on a 512x384 image",
         buildDepth},
        {"CONV", "convolution filter on a 512x384 image", buildConvApp},
        {"QRD", "256x256 matrix QR decomposition", buildQrd},
        {"FFT1K", "1024-point complex FFT (data in SRF)",
         [](vlsi::MachineSize s, const srf::SrfModel &m) {
             return buildFftApp(s, m, 1024);
         }},
        {"FFT4K", "4096-point complex FFT (data in SRF)",
         [](vlsi::MachineSize s, const srf::SrfModel &m) {
             return buildFftApp(s, m, 4096);
         }},
    };
}

const AppEntry *
findApp(const std::string &name)
{
    static const std::vector<AppEntry> apps = appSuite();
    for (const AppEntry &app : apps)
        if (app.name == name)
            return &app;
    return nullptr;
}

} // namespace sps::workloads
