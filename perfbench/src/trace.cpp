#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "trace/chrome_trace.h"
#include "trace/tracer.h"

namespace perfbench {

namespace {

constexpr uint64_t kNoParent = UINT64_MAX;

struct SpanRecord
{
    int64_t beginNs = 0;
    int64_t endNs = 0;
    /** (thread buffer id << 32) | index, or kNoParent. */
    uint64_t parent = kNoParent;
    uint64_t request = 0;
    uint64_t bytes = 0;
    int64_t cycles = 0;
    int64_t dramAccesses = 0;
    int64_t rowHits = 0;
    int64_t bankConflicts = 0;
    Layer layer = Layer::Count;
};

/** One thread's spans; written only by its thread, read by
 *  summarize()/writeSpans() after that thread has quiesced. */
struct ThreadBuf
{
    uint32_t id = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint32_t> open;
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_nextRequest{0};
std::atomic<uint64_t> g_adoptRequest{0};
std::atomic<uint64_t> g_adoptParent{kNoParent};

std::mutex g_mu; ///< guards g_bufs (the vector, not the buffers)
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

thread_local ThreadBuf *t_buf = nullptr;
thread_local int t_untraced = 0;

ThreadBuf &
threadBuf()
{
    if (!t_buf) {
        std::lock_guard<std::mutex> lock(g_mu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        t_buf = g_bufs.back().get();
        t_buf->id = static_cast<uint32_t>(g_bufs.size() - 1);
    }
    return *t_buf;
}

uint64_t
ref(uint32_t buf, uint32_t idx)
{
    return (static_cast<uint64_t>(buf) << 32) | idx;
}

} // namespace

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::VlsiSweep: return "vlsi.sweep";
    case Layer::CoreKernelFigs: return "core.kernel_figs";
    case Layer::SvcRequest: return "svc.request";
    case Layer::KernelFingerprint: return "kernel.fingerprint";
    case Layer::SchedLookup: return "sched.lookup";
    case Layer::SchedCompile: return "sched.compile";
    case Layer::SimRun: return "sim.run";
    case Layer::StoreGet: return "store.get";
    case Layer::StorePut: return "store.put";
    case Layer::CodecEncode: return "store.codec_encode";
    case Layer::CodecDecode: return "store.codec_decode";
    case Layer::InterpRun: return "interp.run";
    case Layer::Count: break;
    }
    return "?";
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setTracing(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_on.load(std::memory_order_relaxed);
}

Span::Span(Layer layer)
{
    if (!g_on.load(std::memory_order_relaxed) || t_untraced > 0)
        return;
    ThreadBuf &b = threadBuf();
    SpanRecord r;
    r.layer = layer;
    if (!b.open.empty()) {
        r.parent = ref(b.id, b.open.back());
        r.request = b.spans[b.open.back()].request;
    } else if (uint64_t adopted =
                   g_adoptParent.load(std::memory_order_acquire);
               adopted != kNoParent) {
        r.parent = adopted;
        r.request = g_adoptRequest.load(std::memory_order_relaxed);
    } else {
        r.request = g_nextRequest.fetch_add(1) + 1;
    }
    buf_ = b.id;
    idx_ = static_cast<uint32_t>(b.spans.size());
    live_ = true;
    b.open.push_back(idx_);
    b.spans.push_back(r);
    b.spans.back().beginNs = nowNs();
}

Span::~Span()
{
    if (!live_)
        return;
    int64_t end = nowNs();
    t_buf->spans[idx_].endNs = end;
    t_buf->open.pop_back();
}

void
Span::setBytes(uint64_t bytes)
{
    if (live_)
        t_buf->spans[idx_].bytes = bytes;
}

void
Span::setSim(int64_t cycles, int64_t dramAccesses, int64_t rowHits,
             int64_t bankConflicts)
{
    if (!live_)
        return;
    SpanRecord &r = t_buf->spans[idx_];
    r.cycles = cycles;
    r.dramAccesses = dramAccesses;
    r.rowHits = rowHits;
    r.bankConflicts = bankConflicts;
}

AdoptScope::AdoptScope(const Span &parent)
{
    if (!parent.live_)
        return;
    g_adoptRequest.store(t_buf->spans[parent.idx_].request,
                         std::memory_order_relaxed);
    g_adoptParent.store(ref(parent.buf_, parent.idx_),
                        std::memory_order_release);
}

AdoptScope::~AdoptScope()
{
    g_adoptParent.store(kNoParent, std::memory_order_release);
}

Untraced::Untraced()
{
    ++t_untraced;
}

Untraced::~Untraced()
{
    --t_untraced;
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    // Free the buffers too, so span memory from one traced pass does
    // not show up as heap growth in the next.
    for (auto &b : g_bufs)
        std::vector<SpanRecord>().swap(b->spans);
}

TraceSummary
summarize()
{
    std::lock_guard<std::mutex> lock(g_mu);
    auto at = [&](uint64_t r) -> const SpanRecord & {
        return g_bufs[r >> 32]->spans[r & 0xffffffffu];
    };

    // Child time per span, across threads (adopted children too).
    std::vector<std::vector<int64_t>> childNs(g_bufs.size());
    for (size_t b = 0; b < g_bufs.size(); ++b)
        childNs[b].assign(g_bufs[b]->spans.size(), 0);
    for (const auto &b : g_bufs)
        for (const SpanRecord &s : b->spans)
            if (s.parent != kNoParent)
                childNs[s.parent >> 32][s.parent & 0xffffffffu] +=
                    s.endNs - s.beginNs;

    TraceSummary out;
    for (size_t b = 0; b < g_bufs.size(); ++b) {
        const auto &spans = g_bufs[b]->spans;
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &s = spans[i];
            int64_t dur = s.endNs - s.beginNs;
            LayerTotals &t = out.layers[static_cast<size_t>(s.layer)];
            ++t.calls;
            t.inclusiveNs += dur;
            t.selfNs += dur - childNs[b][i];
            t.bytes += s.bytes;
            t.cycles += s.cycles;
            t.dramAccesses += s.dramAccesses;
            t.rowHits += s.rowHits;
            t.bankConflicts += s.bankConflicts;
            Layer parent = s.parent == kNoParent ? Layer::Count
                                                 : at(s.parent).layer;
            if (s.layer == Layer::CodecDecode &&
                parent == Layer::StoreGet)
                out.decodeBytesUnderStoreGet += s.bytes;
            if (s.layer == Layer::CodecEncode &&
                parent == Layer::StorePut)
                out.encodeBytesUnderStorePut += s.bytes;
            if (s.layer == Layer::CodecDecode &&
                parent == Layer::SvcRequest) {
                out.decodeBytesUnderRequest += s.bytes;
                ++out.decodesUnderRequest;
            }
        }
    }
    return out;
}

int64_t
uncoveredNs(int64_t beginNs, int64_t endNs)
{
    std::vector<std::pair<int64_t, int64_t>> cover;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        for (const auto &b : g_bufs)
            for (const SpanRecord &s : b->spans) {
                int64_t lo = std::max(s.beginNs, beginNs);
                int64_t hi = std::min(s.endNs, endNs);
                if (lo < hi)
                    cover.emplace_back(lo, hi);
            }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, reach = beginNs;
    for (const auto &[lo, hi] : cover) {
        if (hi <= reach)
            continue;
        covered += hi - std::max(lo, reach);
        reach = hi;
    }
    return std::max<int64_t>(0, endNs - beginNs - covered);
}

bool
writeSpans(const std::string &path)
{
    sps::trace::Tracer tracer;
    std::lock_guard<std::mutex> lock(g_mu);
    int64_t base = INT64_MAX;
    for (const auto &b : g_bufs)
        for (const SpanRecord &s : b->spans)
            base = std::min(base, s.beginNs);
    for (const auto &b : g_bufs) {
        if (b->spans.empty())
            continue;
        int tid = static_cast<int>(b->id);
        tracer.setTrackName(tid, "thread " + std::to_string(tid));
        for (const SpanRecord &s : b->spans)
            tracer.complete(
                "perfbench", layerName(s.layer), (s.beginNs - base) / 1000,
                (s.endNs - base) / 1000, tid,
                {{"request", static_cast<int64_t>(s.request)},
                 {"bytes", static_cast<int64_t>(s.bytes)}});
    }
    return sps::trace::writeChromeTrace(tracer, path);
}

} // namespace perfbench
