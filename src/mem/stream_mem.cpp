#include "mem/stream_mem.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"

namespace sps::mem {

namespace {
/** Words beyond which a transfer is extrapolated from a prefix. */
constexpr int64_t kSimCap = 8192;

/**
 * Append channel-local addresses start, start + 1, ..., count of
 * them to one transfer's runs on one channel (its runs are runs[first]
 * on), extending the last run when they continue its progression.
 */
void
appendRun(std::vector<AddrRun> &runs, size_t first,
          int64_t start, int64_t count)
{
    if (runs.size() > first) {
        AddrRun &last = runs.back();
        int64_t step = last.count == 1 ? start - last.start : last.step;
        if (start == last.start + last.count * step &&
            (count == 1 || step == 1)) {
            last.step = step;
            last.count += count;
            return;
        }
    }
    runs.push_back(AddrRun{start, count, 1});
}

/** How many of the run's addresses from offset `off` on share the DRAM
 *  row of the one at `off` (rows are aligned rowWords-word blocks of
 *  channel-local addresses). */
int64_t
sameRowCount(const AddrRun &run, int64_t off,
             int64_t row_words)
{
    const int64_t left = run.count - off;
    if (run.step == 0)
        return left;
    const int64_t addr = run.start + off * run.step;
    const int64_t row_lo = addr - addr % row_words;
    const int64_t n =
        run.step > 0 ? (row_lo + row_words - 1 - addr) / run.step + 1
                     : (addr - row_lo) / -run.step + 1;
    return std::min(left, n);
}

/** Round-to-nearest scaling used by the extrapolation path. */
int64_t
scaleCount(int64_t sim_value, double factor)
{
    return std::llround(static_cast<double>(sim_value) * factor);
}
} // namespace

StreamMemSystem::StreamMemSystem(StreamMemConfig cfg) : cfg_(cfg)
{
    SPS_ASSERT(cfg_.channels >= 1, "need at least one channel");
    SPS_ASSERT(cfg_.peakWordsPerCycle > 0, "bad peak bandwidth");
    SPS_ASSERT(cfg_.schedWindow >= 1 && cfg_.schedMaxBypass >= 1,
               "bad scheduler window");
    // Column access time so that all channels together sustain the
    // configured aggregate peak on row hits.
    double tcol = cfg_.channels / cfg_.peakWordsPerCycle;
    cfg_.timing.tCol = std::max(1, static_cast<int>(tcol + 0.5));
    beginProgram();
}

void
StreamMemSystem::beginProgram()
{
    SPS_ASSERT(pending_.empty(),
               "beginProgram with unresolved transfers");
    ch_.clear();
    win_.clear();
    chStats_.clear();
    for (int c = 0; c < cfg_.channels; ++c) {
        ch_.push_back(Channel{DramChannel(cfg_.timing), 0});
        chStats_.push_back(ChannelStats{});
    }
    for (Channel &chan : ch_)
        win_.emplace_back(chan.dram, cfg_.schedWindow,
                          cfg_.schedMaxBypass);
    results_.clear();
    busyIvs_.clear();
}

int
StreamMemSystem::submit(const TransferDesc &desc,
                        const TransferTrace *tr)
{
    SPS_ASSERT(desc.words >= 0, "bad transfer size %lld",
               static_cast<long long>(desc.words));
    SPS_ASSERT(desc.baseWord >= 0 && desc.recordWords >= 1 &&
                   desc.strideWords >= 0,
               "bad transfer addressing (base %lld stride %lld rec %lld)",
               static_cast<long long>(desc.baseWord),
               static_cast<long long>(desc.strideWords),
               static_cast<long long>(desc.recordWords));
    int ticket = static_cast<int>(results_.size());
    results_.push_back(TransferResult{});
    results_[static_cast<size_t>(ticket)].startCycle = desc.startCycle;
    Pending p;
    p.desc = desc;
    if (tr != nullptr && SPS_TRACE_ENABLED(tr->tracer)) {
        p.trace = *tr;
        p.traced = true;
    }
    p.ticket = ticket;
    pending_.push_back(std::move(p));
    return ticket;
}

bool
StreamMemSystem::resolved(int ticket) const
{
    for (const Pending &p : pending_)
        if (p.ticket == ticket)
            return false;
    return ticket >= 0 &&
           ticket < static_cast<int>(results_.size());
}

const TransferResult &
StreamMemSystem::result(int ticket)
{
    if (!resolved(ticket))
        resolveAll();
    SPS_ASSERT(ticket >= 0 &&
                   ticket < static_cast<int>(results_.size()),
               "bad transfer ticket %d", ticket);
    return results_[static_cast<size_t>(ticket)];
}

std::vector<BusyInterval>
StreamMemSystem::takeBusyIntervals()
{
    std::vector<BusyInterval> out = std::move(busyIvs_);
    busyIvs_.clear();
    return out;
}

void
StreamMemSystem::resolveAll()
{
    if (pending_.empty())
        return;
    const int C = cfg_.channels;
    const auto nc = static_cast<size_t>(C);
    const size_t nt = pending_.size();
    constexpr int64_t kFar = std::numeric_limits<int64_t>::max();
    BatchScratch &sc = scratch_;

    // --- Address generation: walk each transfer (capped at the
    // simulation prefix) and assign its words to channels by word
    // address. Channel-local addresses (wordAddr / channels) are what
    // the per-channel DRAM geometry sees, the classic interleaved
    // decomposition. Each channel's runs stay grouped by transfer so
    // the service loop can interleave concurrent transfers.
    sc.runs.resize(nc);
    for (auto &r : sc.runs)
        r.clear();
    sc.runBegin.assign(nc * (nt + 1), 0);
    sc.factor.assign(nt, 1.0);
    for (size_t t = 0; t < nt; ++t) {
        const TransferDesc &d = pending_[t].desc;
        int64_t sim = std::min(d.words, kSimCap);
        sc.factor[t] = sim > 0 ? static_cast<double>(d.words) /
                                     static_cast<double>(sim)
                               : 1.0;
        for (size_t c = 0; c < nc; ++c)
            sc.runBegin[c * (nt + 1) + t] = sc.runs[c].size();
        // Word i sits at base + (i / rec) * stride + i % rec; records
        // that abut are one long record. A record of len words at
        // global address A gives channel (A + j) % C, for each lane
        // j < min(len, C), the consecutive channel-local addresses
        // from (A + j) / C on, one per C words of the record. A cursor
        // walks (A + j) as (channel-local address, channel) pairs:
        // +1 per lane, +stride from one record start to the next.
        int64_t rec = std::max<int64_t>(1, d.recordWords);
        int64_t stride = d.strideWords > 0 ? d.strideWords : rec;
        if (stride == rec)
            rec = std::max<int64_t>(1, sim);
        const int64_t stride_q = stride / C, stride_r = stride % C;
        const int64_t rec_per = rec / C, rec_extra = rec % C;
        int64_t rec_q = d.baseWord / C, rec_r = d.baseWord % C;
        for (int64_t left = sim; left > 0;) {
            int64_t len = std::min(rec, left), per = rec_per,
                    extra = rec_extra;
            if (len < rec) {
                per = len / C;
                extra = len % C;
            }
            left -= len;
            int64_t q = rec_q, r = rec_r;
            for (int64_t j = 0, lanes = per > 0 ? C : extra; j < lanes;
                 ++j) {
                auto rc = static_cast<size_t>(r);
                appendRun(sc.runs[rc], sc.runBegin[rc * (nt + 1) + t], q,
                          per + (j < extra ? 1 : 0));
                if (++r == C) {
                    r = 0;
                    ++q;
                }
            }
            rec_q += stride_q;
            rec_r += stride_r;
            if (rec_r >= C) {
                rec_r -= C;
                ++rec_q;
            }
        }
    }
    for (size_t c = 0; c < nc; ++c)
        sc.runBegin[c * (nt + 1) + nt] = sc.runs[c].size();

    // --- Joint service: one FR-FCFS window per channel over all
    // transfers in the batch.
    sc.busy.assign(nt * nc, 0);
    sc.lastEnd.assign(nt * nc, -1);
    sc.done.assign(nt * nc, -1);
    sc.svcStart.assign(nt, kFar);
    sc.hits.assign(nt, 0);
    sc.conflicts.assign(nt, 0);
    sc.reorderSum.assign(nt, 0);

    for (size_t c = 0; c < nc; ++c) {
        const std::vector<AddrRun> &runs = sc.runs[c];
        if (runs.empty())
            continue;
        const size_t *first = &sc.runBegin[c * (nt + 1)];
        Channel &chan = ch_[c];
        ChannelStats &cs = chStats_[c];
        AccessWindow &window = win_[c];
        DramChannel &dram = chan.dram;
        const int64_t tcol = dram.timing().tCol;
        const int64_t row_words = dram.timing().rowWords;
        int64_t now = chan.freeCycle;
        sc.next.assign(first, first + nt);
        sc.nextOff.assign(nt, 0);
        // Transfers with requests left on this channel.
        size_t live = 0;
        for (size_t t = 0; t < nt; ++t)
            live += sc.next[t] < first[t + 1] ? 1 : 0;
        auto has_more = [&](size_t t) { return sc.next[t] < first[t + 1]; };
        // Move transfer t's cursor n requests on, within its run.
        auto advance = [&](size_t t, int64_t n) {
            sc.nextOff[t] += n;
            if (sc.nextOff[t] == runs[sc.next[t]].count) {
                sc.nextOff[t] = 0;
                if (++sc.next[t] == first[t + 1])
                    --live;
            }
        };
        // Charge n serviced requests of transfer t, starting now.
        auto account = [&](size_t t, int64_t cycles, int64_t n,
                           int64_t hits, int64_t conflicts) {
            sc.svcStart[t] = std::min(sc.svcStart[t], now);
            now += cycles;
            sc.busy[t * nc + c] += cycles;
            sc.lastEnd[t * nc + c] = now;
            sc.hits[t] += hits;
            sc.conflicts[t] += conflicts;
            cs.busyCycles += cycles;
            cs.accesses += n;
            cs.rowHits += hits;
            cs.bankConflicts += conflicts;
        };
        size_t rr = 0; // round-robin admission cursor
        int64_t runStart = -1;
        auto close_run = [&] {
            if (runStart >= 0 && now > runStart)
                busyIvs_.push_back(BusyInterval{runStart, now});
            runStart = -1;
        };
        while (!window.empty() || live > 0) {
            // Admit requests round-robin across transfers that have
            // started, one per sweep, so concurrent transfers
            // interleave through the shared window instead of
            // queueing whole-transfer-at-a-time.
            bool admitted = true;
            while (window.wantsMore() && admitted) {
                admitted = false;
                for (size_t k = 0; k < nt; ++k) {
                    size_t t = (rr + k) % nt;
                    if (has_more(t) &&
                        pending_[t].desc.startCycle <= now) {
                        const AddrRun &run = runs[sc.next[t]];
                        window.push(
                            MemRequest{run.start +
                                           sc.nextOff[t] * run.step,
                                       pending_[t].desc.write},
                            static_cast<int>(t));
                        advance(t, 1);
                        rr = (t + 1) % nt;
                        admitted = true;
                        break;
                    }
                }
            }
            if (window.empty()) {
                // Idle until the next transfer becomes ready.
                int64_t nxt = kFar;
                for (size_t t = 0; t < nt; ++t)
                    if (has_more(t))
                        nxt = std::min(nxt,
                                       pending_[t].desc.startCycle);
                close_run();
                now = std::max(now, nxt);
                continue;
            }
            if (runStart < 0)
                runStart = now;
            auto streak = static_cast<int64_t>(window.hitStreak());
            if (streak == 0) {
                // Row miss at the head: the per-request FR-FCFS pick.
                WindowService s = window.serviceNext();
                auto t = static_cast<size_t>(s.tag);
                account(t, s.cycles, 1, s.rowHit ? 1 : 0,
                        s.bankConflict ? 1 : 0);
                sc.reorderSum[t] += s.pickIndex;
                TransferResult &r =
                    results_[static_cast<size_t>(pending_[t].ticket)];
                r.dramReorderMax =
                    std::max(r.dramReorderMax, s.pickIndex);
                continue;
            }
            // Head row hits go in order at pick index 0. Serviced one
            // at a time, each would be followed by an admission sweep;
            // the next sweep admits the same requests instead, as no
            // waiting transfer becomes ready before the streak ends
            // (the streak is cut short so; a streak of one is the
            // per-request step itself).
            int64_t ready = kFar;
            for (size_t t = 0; t < nt; ++t)
                if (has_more(t) && pending_[t].desc.startCycle > now)
                    ready = std::min(ready, pending_[t].desc.startCycle);
            if (ready != kFar)
                streak = std::min(
                    streak, std::max<int64_t>(1, (ready - now - 1) / tcol));
            const auto head = static_cast<size_t>(window.headTag());
            account(head,
                    window.serviceHitStreak(static_cast<size_t>(streak)),
                    streak, streak, 0);
            // Drained window, one started transfer left: it alone
            // would refill the window, so its requests are serviced in
            // order while they hit, a row's worth at a time.
            while (window.empty() && live == 1) {
                size_t t = 0;
                while (!has_more(t))
                    ++t;
                if (pending_[t].desc.startCycle > now)
                    break;
                const AddrRun &run = runs[sc.next[t]];
                const int64_t off = sc.nextOff[t];
                const int64_t addr = run.start + off * run.step;
                if (!dram.isRowHit(dram.decode(addr)))
                    break;
                const int64_t n = sameRowCount(run, off, row_words);
                account(t, dram.serviceHits(n), n, n, 0);
                advance(t, n);
            }
        }
        close_run();

        // Extrapolation stretch: capped transfers own f-times their
        // simulated pin time, so later service on this channel (and
        // the channel's free cursor) shifts by the accumulated extra,
        // ordered by when each transfer's prefix finished.
        sc.stretch.clear();
        int64_t total_extra = 0;
        for (size_t t = 0; t < nt; ++t) {
            if (sc.lastEnd[t * nc + c] < 0)
                continue;
            int64_t extra =
                scaleCount(sc.busy[t * nc + c], sc.factor[t] - 1.0);
            sc.stretch.push_back(
                Stretch{t, sc.lastEnd[t * nc + c], extra});
            total_extra += extra;
        }
        std::stable_sort(sc.stretch.begin(), sc.stretch.end(),
                         [](const Stretch &a, const Stretch &b) {
                             return a.lastEnd < b.lastEnd;
                         });
        int64_t prefix = 0;
        for (const Stretch &s : sc.stretch) {
            prefix += s.extra;
            sc.done[s.t * nc + c] = s.lastEnd + prefix;
        }
        if (total_extra > 0) {
            chan.freeCycle = now + total_extra;
            cs.busyCycles += total_extra;
            if (!busyIvs_.empty())
                busyIvs_.back().end += total_extra;
        } else {
            chan.freeCycle = now;
        }
    }

    // --- Per-transfer results.
    for (size_t t = 0; t < nt; ++t) {
        const Pending &p = pending_[t];
        const TransferDesc &d = p.desc;
        TransferResult &r =
            results_[static_cast<size_t>(p.ticket)];
        r.startCycle = d.startCycle;
        if (d.words <= 0) {
            r.serviceStart = d.startCycle;
            r.doneCycle = d.startCycle;
            continue;
        }
        double f = sc.factor[t];
        int64_t busy_total = 0, busy_max = 0, done = d.startCycle;
        for (size_t c = 0; c < nc; ++c) {
            int64_t true_busy = scaleCount(sc.busy[t * nc + c], f);
            busy_total += true_busy;
            busy_max = std::max(busy_max, true_busy);
            if (sc.done[t * nc + c] >= 0)
                done = std::max(done, sc.done[t * nc + c]);
        }
        r.serviceStart = sc.svcStart[t] == kFar ? d.startCycle
                                                : sc.svcStart[t];
        r.doneCycle = done + cfg_.latencyCycles;
        r.cycles = r.doneCycle - r.startCycle;
        r.busyCycles = busy_max;
        r.aliasStallCycles = C * busy_max - busy_total;
        // Counters: exact identities under extrapolation
        // (hits + misses == accesses == words).
        r.dramAccesses = d.words;
        r.dramRowHits = std::clamp<int64_t>(scaleCount(sc.hits[t], f),
                                            0, d.words);
        r.dramRowMisses = d.words - r.dramRowHits;
        r.bankConflicts = std::clamp<int64_t>(
            scaleCount(sc.conflicts[t], f), 0, r.dramRowMisses);
        r.dramReorderSum = scaleCount(sc.reorderSum[t], f);
        r.wordsPerCycle =
            r.cycles > 0 ? static_cast<double>(d.words) /
                               static_cast<double>(r.cycles)
                         : 0.0;
        if (p.traced) {
            p.trace.tracer->span(
                "mem",
                p.trace.label.empty() ? "transfer" : p.trace.label,
                r.serviceStart, r.doneCycle, p.trace.opId,
                trace::kTrackMem,
                {{"words", d.words},
                 {"stride", d.strideWords},
                 {"busy_cycles", r.busyCycles},
                 {"row_hits", r.dramRowHits},
                 {"row_misses", r.dramRowMisses},
                 {"bank_conflicts", r.bankConflicts},
                 {"alias_stall_cycles", r.aliasStallCycles},
                 {"reorder_max", r.dramReorderMax}});
        }
    }
    pending_.clear();
}

TransferResult
StreamMemSystem::transfer(int64_t words, int64_t stride,
                          const TransferTrace *tr)
{
    SPS_ASSERT(stride >= 1, "bad stride %lld",
               static_cast<long long>(stride));
    resolveAll();
    // Standalone semantics: idle channels, closed rows, cycle 0 --
    // results do not depend on earlier standalone calls.
    beginProgram();
    if (words <= 0)
        return TransferResult{};
    TransferDesc d;
    d.words = words;
    d.baseWord = 0;
    d.strideWords = stride;
    d.recordWords = 1;
    d.startCycle = 0;
    int ticket = submit(d, tr);
    resolveAll();
    return results_[static_cast<size_t>(ticket)];
}

int64_t
StreamMemSystem::transferCycles(int64_t words)
{
    return transfer(words, 1).cycles;
}

} // namespace sps::mem
