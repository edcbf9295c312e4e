/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span marks one call into a module of the program (a layer): its
 * layer, begin and end, the span that caused it, and the request it
 * belongs to. Spans are recorded by the benchmark's own code -- around
 * the calls it makes, and, in the traced binary, around cross-module
 * calls redirected to the interposers in wraps.cpp -- never by code
 * under src/. Each thread appends to its own buffer; the buffers are
 * read only after the recording threads have quiesced.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

enum class Layer : uint8_t {
    VlsiSweep,         ///< vlsi::intra/interclusterSweep
    CoreKernelFigs,    ///< core Fig 13/14 + Table 5 experiment runners
    SvcRequest,        ///< one request, client side (svc)
    KernelFingerprint, ///< kernel::fingerprint
    SchedLookup,       ///< sched::ScheduleCache::get
    SchedCompile,      ///< sched::compileKernel
    SimRun,            ///< sim::StreamProcessor::run (controller + mem)
    StoreGet,          ///< store::ResultStore::load*
    StorePut,          ///< store::ResultStore::store*
    CodecEncode,       ///< store::encode*
    CodecDecode,       ///< store::decode*
    InterpRun,         ///< interp::runKernel
    Count
};

constexpr size_t kLayerCount = static_cast<size_t>(Layer::Count);

/** Dotted layer name, e.g. "kernel.fingerprint". */
const char *layerName(Layer l);

/** Monotonic nanoseconds (steady clock). */
int64_t nowNs();

/** Turn recording on or off. Spans opened while off record nothing. */
void setTracing(bool on);
bool tracing();

/** RAII span: records [construction, destruction) when tracing. */
class Span
{
  public:
    explicit Span(Layer layer);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Payload bytes this call moved (codec spans). */
    void setBytes(uint64_t bytes);
    /** Simulated statistics of a SimRun span. */
    void setSim(int64_t cycles, int64_t dramAccesses, int64_t rowHits,
                int64_t bankConflicts);

  private:
    friend class AdoptScope;
    uint32_t buf_ = 0;
    uint32_t idx_ = 0;
    bool live_ = false;
};

/**
 * While alive, spans opened on other threads with no open span of
 * their own become children of `parent` and share its request id.
 * Used for lockstep requests, where exactly one request is in flight
 * and the service runs it on its dispatcher thread.
 */
class AdoptScope
{
  public:
    explicit AdoptScope(const Span &parent);
    ~AdoptScope();
    AdoptScope(const AdoptScope &) = delete;
    AdoptScope &operator=(const AdoptScope &) = delete;
};

/** While alive, spans opened on this thread record nothing (the
 *  benchmark's own checks call wrapped functions too). */
class Untraced
{
  public:
    Untraced();
    ~Untraced();
    Untraced(const Untraced &) = delete;
    Untraced &operator=(const Untraced &) = delete;
};

/** Drop every recorded span and free its memory. No span may be
 *  open. */
void clearSpans();

/** Totals over the recorded spans of one layer. */
struct LayerTotals
{
    uint64_t calls = 0;
    int64_t inclusiveNs = 0;
    /** Duration minus the part covered by child spans. */
    int64_t selfNs = 0;
    uint64_t bytes = 0;
    int64_t cycles = 0;
    int64_t dramAccesses = 0;
    int64_t rowHits = 0;
    int64_t bankConflicts = 0;
};

struct TraceSummary
{
    std::array<LayerTotals, kLayerCount> layers{};
    /** Codec bytes split by the layer of the parent span. */
    uint64_t decodeBytesUnderStoreGet = 0;
    uint64_t encodeBytesUnderStorePut = 0;
    uint64_t decodeBytesUnderRequest = 0;
    uint64_t decodesUnderRequest = 0;

    const LayerTotals &operator[](Layer l) const
    {
        return layers[static_cast<size_t>(l)];
    }
};

/** Per-layer totals over the spans recorded so far. */
TraceSummary summarize();

/** Nanoseconds of [beginNs, endNs) that no recorded span covers. */
int64_t uncoveredNs(int64_t beginNs, int64_t endNs);

/** Write the recorded spans as a Chrome trace (one track per
 *  thread, request id and bytes as args). False on I/O failure. */
bool writeSpans(const std::string &path);

/** True in the binary linked with the cross-module interposers. */
bool layerWrapsLinked();

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
