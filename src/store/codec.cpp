#include "store/codec.h"

#include <mutex>
#include <unordered_set>

#include "common/fnv.h"

namespace sps::store {

uint64_t
fnv1aBytes(const uint8_t *data, size_t n)
{
    Fnv f;
    f.mix(data, n);
    return f.h;
}

void
ByteReader::get(const char *&s)
{
    // Node-based set: c_str() pointers stay valid across inserts.
    static std::mutex mu;
    static std::unordered_set<std::string> interned;
    std::string text;
    get(text);
    if (!ok_)
        return;
    std::lock_guard<std::mutex> lock(mu);
    s = interned.insert(std::move(text)).first->c_str();
}

namespace {

// --- Field walkers, one per record, in wire order. ---

template <MaybeConst<sim::OpInterval> R, class V>
void
walk(R &iv, V &v)
{
    v(iv.start, iv.end, iv.label, iv.opId);
    v.tag(iv.kind, sim::OpClass::Load, sim::OpClass::Other);
    v(iv.sbWaitStart, iv.issueStart, iv.issueEnd, iv.readyCycle);
}

template <MaybeConst<sim::SimCounters> R, class V>
void
walk(R &c, V &v)
{
    v(c.kernelOnlyCycles, c.memOnlyCycles, c.overlapCycles, c.idleCycles,
      c.kernelCalls, c.loads, c.stores, c.hostIssueBusyCycles,
      c.scoreboardStallCycles, c.depStallCycles, c.memPipeStallCycles,
      c.ucPipeStallCycles, c.ucOverheadCycles, c.aluIssueSlots,
      c.kernelAluSlots, c.clusterFuOps, c.clusterSpOps, c.interCommWords,
      c.srfReadWords, c.srfWriteWords, c.memStoreWords,
      c.srfBwStallCycles, c.dramAccesses, c.dramRowHits, c.dramRowMisses,
      c.dramBankConflicts, c.dramReorderSum, c.dramReorderMax,
      c.memAliasStallCycles);
    v.seq(c.dramChannelBusyCycles, [&v](auto &busy) { v(busy); });
}

template <MaybeConst<energy::ComponentEnergy> R, class V>
void
walk(R &c, V &v)
{
    v(c.dynamicEw, c.idleEw);
}

template <MaybeConst<energy::EnergyReport> R, class V>
void
walk(R &e, V &v)
{
    v.tag(e.valid, false, true);
    for (auto *c : {&e.srf, &e.clusters, &e.microcontroller,
                    &e.interclusterComm, &e.dram})
        walk(*c, v);
    v(e.cycles, e.aluOps, e.outputWords, e.ewToJoules, e.clockGHz);
}

template <MaybeConst<analysis::BottleneckReport> R, class V>
void
walk(R &b, V &v)
{
    v.tag(b.valid, false, true);
    v(b.kernelBoundCycles, b.memoryBoundCycles, b.dependenceCycles,
      b.scoreboardCycles, b.hostIssueCycles, b.idleCycles);
}

template <MaybeConst<sim::SimResult> R, class V>
void
walk(R &res, V &v)
{
    v(res.cycles, res.aluOps, res.gopsOps, res.memWords, res.memBusy,
      res.ucBusy, res.srfHighWater);
    v.seq(res.timeline, [&v](auto &iv) { walk(iv, v); });
    walk(res.counters, v);
    walk(res.energy, v);
    walk(res.bottleneck, v);
}

template <MaybeConst<sched::CompiledKernel> R, class V>
void
walk(R &ck, V &v)
{
    v(ck.unroll, ck.ii, ck.stages, ck.length, ck.listLength, ck.ii1,
      ck.stages1, ck.length1, ck.aluOpsPerIteration,
      ck.gopsOpsPerIteration, ck.commOpsPerIteration,
      ck.spOpsPerIteration, ck.srfAccessesPerIteration);
}

} // namespace

void
encodeCompiledKernel(const sched::CompiledKernel &ck, ByteWriter *w)
{
    walk(ck, *w);
}

bool
decodeCompiledKernel(const std::vector<uint8_t> &bytes,
                     sched::CompiledKernel *out)
{
    ByteReader r(bytes);
    sched::CompiledKernel ck;
    walk(ck, r);
    return commit(r, ck, out);
}

void
encodeSimResult(const sim::SimResult &res, ByteWriter *w)
{
    walk(res, *w);
}

bool
decodeSimResult(const std::vector<uint8_t> &bytes, sim::SimResult *out)
{
    ByteReader r(bytes);
    sim::SimResult res;
    walk(res, r);
    return commit(r, res, out);
}

} // namespace sps::store
