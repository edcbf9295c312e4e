/**
 * @file
 * Span interposers for the traced binary. The linker's --wrap=SYM
 * redirects every reference to SYM made from another object file to
 * __wrap_SYM, and __real_SYM to the original, so these wrappers put a
 * span around each call that crosses a module boundary (e.g. the
 * schedule cache fingerprinting a kernel) without touching src/.
 * Calls inside one object file are not redirected.
 *
 * CMakeLists.txt passes --wrap for every mangled name below. A wrapped
 * function that is renamed or changes signature leaves its __real_
 * reference undefined, so the traced build fails to link instead of
 * silently losing the span.
 */
#include <cstdint>
#include <vector>

#include "kernel/ir.h"
#include "sched/kernel_perf.h"
#include "sched/schedule_cache.h"
#include "sim/processor.h"
#include "store/codec.h"
#include "store/result_store.h"
#include "trace.h"

#define PB_CAT(a, b) a##b
#define PB_REAL(sym) PB_CAT(__real_, sym)
#define PB_WRAP(sym) PB_CAT(__wrap_, sym)

using perfbench::Layer;
using perfbench::Span;
using sps::sched::CompiledKernel;
using sps::sim::SimResult;
using sps::store::ByteWriter;
using sps::store::Key;
using sps::store::ResultStore;
using Bytes = std::vector<uint8_t>;

// uint64_t kernel::fingerprint(const Kernel &)
#define FINGERPRINT _ZN3sps6kernel11fingerprintERKNS0_6KernelE
// const CompiledKernel &ScheduleCache::get(k, m, opts)
#define SCHED_GET                                                      \
    _ZN3sps5sched13ScheduleCache3getERKNS_6kernel6KernelERKNS0_12MachineModelERKNS0_14CompileOptionsE
// CompiledKernel sched::compileKernel(k, m, opts)
#define COMPILE                                                        \
    _ZN3sps5sched13compileKernelERKNS_6kernel6KernelERKNS0_12MachineModelERKNS0_14CompileOptionsE
// SimResult StreamProcessor::run(const StreamProgram &)
#define SIM_RUN _ZN3sps3sim15StreamProcessor3runERKNS_6stream13StreamProgramE
// bool ResultStore::load{Schedule,SimResult}(const Key &, T *)
#define LOAD_SCHEDULE                                                  \
    _ZN3sps5store11ResultStore12loadScheduleERKNS0_3KeyEPNS_5sched14CompiledKernelE
#define LOAD_SIM                                                       \
    _ZN3sps5store11ResultStore13loadSimResultERKNS0_3KeyEPNS_3sim9SimResultE
// bool ResultStore::store{Schedule,SimResult}(const Key &, const T &)
#define STORE_SCHEDULE                                                 \
    _ZN3sps5store11ResultStore13storeScheduleERKNS0_3KeyERKNS_5sched14CompiledKernelE
#define STORE_SIM                                                      \
    _ZN3sps5store11ResultStore14storeSimResultERKNS0_3KeyERKNS_3sim9SimResultE
// void store::encode{CompiledKernel,SimResult}(const T &, ByteWriter *)
#define ENCODE_SCHEDULE                                                \
    _ZN3sps5store20encodeCompiledKernelERKNS_5sched14CompiledKernelEPNS0_10ByteWriterE
#define ENCODE_SIM                                                     \
    _ZN3sps5store15encodeSimResultERKNS_3sim9SimResultEPNS0_10ByteWriterE
// bool store::decode{CompiledKernel,SimResult}(const bytes &, T *)
#define DECODE_SCHEDULE                                                \
    _ZN3sps5store20decodeCompiledKernelERKSt6vectorIhSaIhEEPNS_5sched14CompiledKernelE
#define DECODE_SIM                                                     \
    _ZN3sps5store15decodeSimResultERKSt6vectorIhSaIhEEPNS_3sim9SimResultE

extern "C" {

uint64_t PB_REAL(FINGERPRINT)(const sps::kernel::Kernel &);
uint64_t
PB_WRAP(FINGERPRINT)(const sps::kernel::Kernel &k)
{
    Span s(Layer::KernelFingerprint);
    return PB_REAL(FINGERPRINT)(k);
}

const CompiledKernel &PB_REAL(SCHED_GET)(sps::sched::ScheduleCache *,
                                         const sps::kernel::Kernel &,
                                         const sps::sched::MachineModel &,
                                         const sps::sched::CompileOptions &);
const CompiledKernel &
PB_WRAP(SCHED_GET)(sps::sched::ScheduleCache *self,
                   const sps::kernel::Kernel &k,
                   const sps::sched::MachineModel &m,
                   const sps::sched::CompileOptions &opts)
{
    Span s(Layer::SchedLookup);
    return PB_REAL(SCHED_GET)(self, k, m, opts);
}

CompiledKernel PB_REAL(COMPILE)(const sps::kernel::Kernel &,
                                const sps::sched::MachineModel &,
                                const sps::sched::CompileOptions &);
CompiledKernel
PB_WRAP(COMPILE)(const sps::kernel::Kernel &k,
                 const sps::sched::MachineModel &m,
                 const sps::sched::CompileOptions &opts)
{
    Span s(Layer::SchedCompile);
    return PB_REAL(COMPILE)(k, m, opts);
}

SimResult PB_REAL(SIM_RUN)(sps::sim::StreamProcessor *,
                           const sps::stream::StreamProgram &);
SimResult
PB_WRAP(SIM_RUN)(sps::sim::StreamProcessor *self,
                 const sps::stream::StreamProgram &prog)
{
    Span s(Layer::SimRun);
    SimResult res = PB_REAL(SIM_RUN)(self, prog);
    s.setSim(res.cycles, res.counters.dramAccesses,
             res.counters.dramRowHits, res.counters.dramBankConflicts);
    return res;
}

bool PB_REAL(LOAD_SCHEDULE)(ResultStore *, const Key &, CompiledKernel *);
bool
PB_WRAP(LOAD_SCHEDULE)(ResultStore *self, const Key &key,
                       CompiledKernel *out)
{
    Span s(Layer::StoreGet);
    return PB_REAL(LOAD_SCHEDULE)(self, key, out);
}

bool PB_REAL(LOAD_SIM)(ResultStore *, const Key &, SimResult *);
bool
PB_WRAP(LOAD_SIM)(ResultStore *self, const Key &key, SimResult *out)
{
    Span s(Layer::StoreGet);
    return PB_REAL(LOAD_SIM)(self, key, out);
}

bool PB_REAL(STORE_SCHEDULE)(ResultStore *, const Key &,
                             const CompiledKernel &);
bool
PB_WRAP(STORE_SCHEDULE)(ResultStore *self, const Key &key,
                        const CompiledKernel &in)
{
    Span s(Layer::StorePut);
    return PB_REAL(STORE_SCHEDULE)(self, key, in);
}

bool PB_REAL(STORE_SIM)(ResultStore *, const Key &, const SimResult &);
bool
PB_WRAP(STORE_SIM)(ResultStore *self, const Key &key, const SimResult &in)
{
    Span s(Layer::StorePut);
    return PB_REAL(STORE_SIM)(self, key, in);
}

void PB_REAL(ENCODE_SCHEDULE)(const CompiledKernel &, ByteWriter *);
void
PB_WRAP(ENCODE_SCHEDULE)(const CompiledKernel &in, ByteWriter *w)
{
    Span s(Layer::CodecEncode);
    size_t before = w->bytes().size();
    PB_REAL(ENCODE_SCHEDULE)(in, w);
    s.setBytes(w->bytes().size() - before);
}

void PB_REAL(ENCODE_SIM)(const SimResult &, ByteWriter *);
void
PB_WRAP(ENCODE_SIM)(const SimResult &in, ByteWriter *w)
{
    Span s(Layer::CodecEncode);
    size_t before = w->bytes().size();
    PB_REAL(ENCODE_SIM)(in, w);
    s.setBytes(w->bytes().size() - before);
}

bool PB_REAL(DECODE_SCHEDULE)(const Bytes &, CompiledKernel *);
bool
PB_WRAP(DECODE_SCHEDULE)(const Bytes &bytes, CompiledKernel *out)
{
    Span s(Layer::CodecDecode);
    s.setBytes(bytes.size());
    return PB_REAL(DECODE_SCHEDULE)(bytes, out);
}

bool PB_REAL(DECODE_SIM)(const Bytes &, SimResult *);
bool
PB_WRAP(DECODE_SIM)(const Bytes &bytes, SimResult *out)
{
    Span s(Layer::CodecDecode);
    s.setBytes(bytes.size());
    return PB_REAL(DECODE_SIM)(bytes, out);
}

} // extern "C"
