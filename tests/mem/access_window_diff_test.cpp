// Differential tests for the FR-FCFS request path. The ring-buffer
// AccessWindow must pick, report and service exactly as the original
// deque implementation did (kept below as a reference, test-only), and
// StreamMemSystem's incremental address cursor must route every word
// to the channel and channel-local address that `addr % C` and
// `addr / C` give, including channel counts that are not powers of
// two.
#include "mem/access_sched.h"
#include "mem/stream_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/prng.h"

namespace sps::mem {
namespace {

/** The original AccessWindow: a deque, addresses decoded per use. */
class ReferenceWindow
{
  public:
    ReferenceWindow(DramChannel &channel, int window, int max_bypass)
        : channel_(channel), window_(window), maxBypass_(max_bypass)
    {}

    bool wantsMore() const
    {
        return static_cast<int>(win_.size()) < window_;
    }
    bool empty() const { return win_.empty(); }
    void push(const MemRequest &req, int tag)
    {
        win_.push_back(Entry{req, tag, 0});
    }

    WindowService
    serviceNext()
    {
        size_t pick = 0;
        if (win_.front().bypassed < maxBypass_) {
            for (size_t i = 0; i < win_.size(); ++i) {
                if (channel_.isRowHit(win_[i].req)) {
                    pick = i;
                    break;
                }
            }
        }
        for (size_t i = 0; i < pick; ++i)
            ++win_[i].bypassed;
        Entry e = win_[pick];
        WindowService s;
        s.tag = e.tag;
        s.pickIndex = static_cast<int64_t>(pick);
        s.bypassed = e.bypassed;
        s.rowHit = channel_.isRowHit(e.req);
        s.bankConflict = !s.rowHit && channel_.isBankOpen(e.req);
        s.cycles = channel_.service(e.req);
        win_.erase(win_.begin() + static_cast<long>(pick));
        return s;
    }

  private:
    struct Entry
    {
        MemRequest req;
        int tag = 0;
        int64_t bypassed = 0;
    };
    DramChannel &channel_;
    std::deque<Entry> win_;
    int window_;
    int maxBypass_;
};

/**
 * StreamMemSystem's original per-request resolve loop, over the
 * reference window: every word becomes one MemRequest and every
 * service runs one FR-FCFS pick. Same addressing, extrapolation and
 * result assembly as the model; no tracing.
 */
class ReferenceStreamMem
{
  public:
    explicit ReferenceStreamMem(StreamMemConfig cfg) : cfg_(cfg)
    {
        double tcol = cfg_.channels / cfg_.peakWordsPerCycle;
        cfg_.timing.tCol = std::max(1, static_cast<int>(tcol + 0.5));
        for (int c = 0; c < cfg_.channels; ++c)
            dram_.emplace_back(cfg_.timing);
        freeCycle_.assign(dram_.size(), 0);
        stats_.assign(dram_.size(), ChannelStats{});
    }

    int
    submit(const TransferDesc &d)
    {
        pending_.push_back(d);
        tickets_.push_back(static_cast<int>(results_.size()));
        results_.push_back(TransferResult{});
        return tickets_.back();
    }

    const TransferResult &result(int ticket) const
    {
        return results_[static_cast<size_t>(ticket)];
    }
    const std::vector<ChannelStats> &channelStats() const
    {
        return stats_;
    }
    std::vector<BusyInterval>
    takeBusyIntervals()
    {
        return std::exchange(busyIvs_, {});
    }

    void
    resolveAll()
    {
        constexpr int64_t kSimCap = 8192;
        constexpr int64_t kFar = std::numeric_limits<int64_t>::max();
        const int64_t C = cfg_.channels;
        const size_t nc = dram_.size(), nt = pending_.size();
        if (nt == 0)
            return;
        auto scale = [](int64_t v, double f) {
            return std::llround(static_cast<double>(v) * f);
        };
        // Per channel, per transfer: the transfer's requests there.
        std::vector<std::vector<std::vector<MemRequest>>> q(
            nc, std::vector<std::vector<MemRequest>>(nt));
        std::vector<double> factor(nt, 1.0);
        for (size_t t = 0; t < nt; ++t) {
            const TransferDesc &d = pending_[t];
            int64_t sim = std::min(d.words, kSimCap);
            if (sim > 0)
                factor[t] = static_cast<double>(d.words) /
                            static_cast<double>(sim);
            int64_t rec = std::max<int64_t>(1, d.recordWords);
            int64_t stride = d.strideWords > 0 ? d.strideWords : rec;
            for (int64_t i = 0; i < sim; ++i) {
                int64_t addr = d.baseWord + (i / rec) * stride + i % rec;
                q[static_cast<size_t>(addr % C)][t].push_back(
                    MemRequest{addr / C, d.write});
            }
        }
        std::vector<int64_t> busy(nt * nc, 0), lastEnd(nt * nc, -1),
            done(nt * nc, -1);
        std::vector<int64_t> svcStart(nt, kFar), hits(nt, 0),
            conflicts(nt, 0), reorderSum(nt, 0), reorderMax(nt, 0);
        for (size_t c = 0; c < nc; ++c) {
            ReferenceWindow window(dram_[c], cfg_.schedWindow,
                                   cfg_.schedMaxBypass);
            std::vector<size_t> next(nt, 0);
            auto has_more = [&](size_t t) {
                return next[t] < q[c][t].size();
            };
            auto any_left = [&] {
                for (size_t t = 0; t < nt; ++t)
                    if (has_more(t))
                        return true;
                return false;
            };
            int64_t now = freeCycle_[c];
            size_t rr = 0;
            int64_t runStart = -1;
            auto close_run = [&] {
                if (runStart >= 0 && now > runStart)
                    busyIvs_.push_back(BusyInterval{runStart, now});
                runStart = -1;
            };
            while (!window.empty() || any_left()) {
                bool admitted = true;
                while (window.wantsMore() && admitted) {
                    admitted = false;
                    for (size_t k = 0; k < nt; ++k) {
                        size_t t = (rr + k) % nt;
                        if (has_more(t) && pending_[t].startCycle <= now) {
                            window.push(q[c][t][next[t]++],
                                        static_cast<int>(t));
                            rr = (t + 1) % nt;
                            admitted = true;
                            break;
                        }
                    }
                }
                if (window.empty()) {
                    int64_t nxt = kFar;
                    for (size_t t = 0; t < nt; ++t)
                        if (has_more(t))
                            nxt = std::min(nxt, pending_[t].startCycle);
                    close_run();
                    now = std::max(now, nxt);
                    continue;
                }
                if (runStart < 0)
                    runStart = now;
                WindowService s = window.serviceNext();
                auto t = static_cast<size_t>(s.tag);
                svcStart[t] = std::min(svcStart[t], now);
                now += s.cycles;
                busy[t * nc + c] += s.cycles;
                lastEnd[t * nc + c] = now;
                hits[t] += s.rowHit ? 1 : 0;
                conflicts[t] += s.bankConflict ? 1 : 0;
                reorderSum[t] += s.pickIndex;
                reorderMax[t] = std::max(reorderMax[t], s.pickIndex);
                ChannelStats &cs = stats_[c];
                cs.busyCycles += s.cycles;
                ++cs.accesses;
                cs.rowHits += s.rowHit ? 1 : 0;
                cs.bankConflicts += s.bankConflict ? 1 : 0;
            }
            close_run();
            // Extrapolation stretch, in prefix-completion order.
            std::vector<std::pair<int64_t, size_t>> order;
            std::vector<int64_t> extra(nt, 0);
            int64_t total_extra = 0;
            for (size_t t = 0; t < nt; ++t) {
                if (lastEnd[t * nc + c] < 0)
                    continue;
                extra[t] = scale(busy[t * nc + c], factor[t] - 1.0);
                order.emplace_back(lastEnd[t * nc + c], t);
                total_extra += extra[t];
            }
            std::stable_sort(order.begin(), order.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            int64_t prefix = 0;
            for (const auto &[end, t] : order) {
                prefix += extra[t];
                done[t * nc + c] = end + prefix;
            }
            freeCycle_[c] = now + total_extra;
            stats_[c].busyCycles += total_extra;
            if (total_extra > 0 && !busyIvs_.empty())
                busyIvs_.back().end += total_extra;
        }
        for (size_t t = 0; t < nt; ++t) {
            const TransferDesc &d = pending_[t];
            TransferResult &r = results_[static_cast<size_t>(tickets_[t])];
            r.startCycle = d.startCycle;
            r.dramReorderMax = reorderMax[t];
            if (d.words <= 0) {
                r.serviceStart = d.startCycle;
                r.doneCycle = d.startCycle;
                continue;
            }
            int64_t busy_total = 0, busy_max = 0, end = d.startCycle;
            for (size_t c = 0; c < nc; ++c) {
                int64_t b = scale(busy[t * nc + c], factor[t]);
                busy_total += b;
                busy_max = std::max(busy_max, b);
                end = std::max(end, done[t * nc + c]);
            }
            r.serviceStart = svcStart[t] == kFar ? d.startCycle
                                                 : svcStart[t];
            r.doneCycle = end + cfg_.latencyCycles;
            r.cycles = r.doneCycle - r.startCycle;
            r.busyCycles = busy_max;
            r.aliasStallCycles = C * busy_max - busy_total;
            r.dramAccesses = d.words;
            r.dramRowHits =
                std::clamp<int64_t>(scale(hits[t], factor[t]), 0, d.words);
            r.dramRowMisses = d.words - r.dramRowHits;
            r.bankConflicts = std::clamp<int64_t>(
                scale(conflicts[t], factor[t]), 0, r.dramRowMisses);
            r.dramReorderSum = scale(reorderSum[t], factor[t]);
            r.wordsPerCycle = r.cycles > 0
                                  ? static_cast<double>(d.words) /
                                        static_cast<double>(r.cycles)
                                  : 0.0;
        }
        pending_.clear();
        tickets_.clear();
    }

  private:
    StreamMemConfig cfg_;
    std::vector<DramChannel> dram_;
    std::vector<int64_t> freeCycle_;
    std::vector<ChannelStats> stats_;
    std::vector<TransferDesc> pending_;
    std::vector<int> tickets_;
    std::vector<TransferResult> results_;
    std::vector<BusyInterval> busyIvs_;
};

/** How a case draws its request addresses. */
enum class Mix {
    Uniform,  ///< any bank, any of a few rows
    HotRows,  ///< mostly a few hot rows, some random misses
    MissFlood ///< a row-hit stream with periodic same-bank misses
};

int64_t
drawAddr(Prng &rng, Mix mix, const DramTiming &tm, int64_t i)
{
    const int64_t row_span = static_cast<int64_t>(tm.rowWords) * tm.banks;
    switch (mix) {
      case Mix::Uniform:
        return rng.below(static_cast<uint32_t>(row_span * 4));
      case Mix::HotRows:
        if (rng.below(10) < 8)
            return rng.below(3) * (row_span + tm.rowWords) +
                   rng.below(static_cast<uint32_t>(tm.rowWords));
        return rng.below(static_cast<uint32_t>(row_span * 16));
      case Mix::MissFlood:
        if (i % 13 == 5)
            return (1 + rng.below(7)) * row_span; // bank 0, other row
        return i % tm.rowWords;                   // bank 0, row 0
    }
    return 0;
}

TEST(AccessWindowDiffTest, MatchesDequeReferenceOnRandomStreams)
{
    const DramTiming timings[] = {
        DramTiming{},
        DramTiming{8, 6, 2, 3, 24}, // 3 banks, 24-word rows
        DramTiming{5, 3, 1, 1, 7},  // one bank: every miss conflicts
    };
    int cases = 0;
    int64_t age_capped = 0;
    for (const DramTiming &tm : timings) {
        for (int window : {1, 2, 3, 5, 16, 17, 32}) {
            for (int max_bypass : {1, 2, 4, 64, 100000}) {
                for (Mix mix :
                     {Mix::Uniform, Mix::HotRows, Mix::MissFlood}) {
                    uint64_t seed = 0x5eed0000u + 977u * cases;
                    ++cases;
                    Prng rng(seed);
                    DramChannel new_chan(tm), ref_chan(tm);
                    AccessWindow win(new_chan, window, max_bypass);
                    ReferenceWindow ref(ref_chan, window, max_bypass);
                    const int64_t n = 600;
                    int64_t pushed = 0, served = 0;
                    while (served < n) {
                        // Admit a random number of arrivals, so the
                        // window is seen at every occupancy.
                        int64_t admit = 1 + rng.below(4);
                        while (admit-- > 0 && win.wantsMore() &&
                               pushed < n) {
                            ASSERT_TRUE(ref.wantsMore());
                            MemRequest req{
                                drawAddr(rng, mix, tm, pushed),
                                rng.below(2) == 1};
                            win.push(req, static_cast<int>(pushed));
                            ref.push(req, static_cast<int>(pushed));
                            ++pushed;
                        }
                        ASSERT_EQ(win.wantsMore(), ref.wantsMore());
                        ASSERT_EQ(win.empty(), ref.empty());
                        WindowService a = win.serviceNext();
                        WindowService b = ref.serviceNext();
                        SCOPED_TRACE(testing::Message()
                                     << "seed " << seed << " window "
                                     << window << " maxBypass "
                                     << max_bypass << " pick " << served);
                        ASSERT_EQ(a.tag, b.tag);
                        ASSERT_EQ(a.cycles, b.cycles);
                        ASSERT_EQ(a.pickIndex, b.pickIndex);
                        ASSERT_EQ(a.bypassed, b.bypassed);
                        ASSERT_EQ(a.rowHit, b.rowHit);
                        ASSERT_EQ(a.bankConflict, b.bankConflict);
                        if (a.bypassed >= max_bypass && !a.rowHit)
                            ++age_capped;
                        ++served;
                    }
                    EXPECT_TRUE(win.empty());
                    EXPECT_EQ(new_chan.rowHits(), ref_chan.rowHits());
                    EXPECT_EQ(new_chan.rowMisses(), ref_chan.rowMisses());
                }
            }
        }
    }
    // The miss floods must actually drive requests into the age cap.
    EXPECT_GT(age_capped, 100);
}

/** A batch of 2-6 concurrent transfers for the resolve-loop diff. */
std::vector<TransferDesc>
resolveBatch(Prng &rng, int channels, int64_t now)
{
    std::vector<TransferDesc> out;
    const int n = 2 + static_cast<int>(rng.below(5));
    for (int t = 0; t < n; ++t) {
        TransferDesc d;
        d.write = rng.below(2) == 1;
        // Staggered starts: some before the channels free up, some
        // far enough out to leave idle gaps.
        d.startCycle = now + rng.below(3) * rng.below(3000);
        switch (rng.below(4)) {
          case 0: // long unit-stride: many rows and banks per channel
            d.words = 2000 + rng.below(12000);
            d.baseWord = rng.below(1 << 20);
            break;
          case 1: // records with gaps between them
            d.recordWords = 1 + rng.below(12);
            d.strideWords = d.recordWords + rng.below(30);
            d.words = 1 + rng.below(5000);
            d.baseWord = rng.below(1 << 18);
            break;
          case 2: // a stride that is a multiple of C: aliased channels
            d.recordWords = 1 + rng.below(2);
            d.strideWords = channels * (1 + rng.below(4));
            d.words = 1 + rng.below(4000);
            d.baseWord = rng.below(1 << 16);
            break;
          default: // short transfers, overlapping records too
            d.recordWords = 1 + rng.below(4);
            d.strideWords = rng.below(2) == 0 ? 0 : 1 + rng.below(9);
            d.words = rng.below(300);
            d.baseWord = rng.below(4096);
            break;
        }
        out.push_back(d);
    }
    return out;
}

TEST(StreamMemDiffTest, RunLengthServiceMatchesPerRequestReference)
{
    int cases = 0;
    int64_t reordered = 0, extrapolated = 0;
    for (int channels : {3, 5, 7, 8}) {
        for (int window : {1, 2, 16}) {
            for (int max_bypass : {1, 64}) {
                StreamMemConfig cfg;
                cfg.channels = channels;
                cfg.schedWindow = window;
                cfg.schedMaxBypass = max_bypass;
                const uint64_t seed = 0xd1ff0000u + 131u * cases++;
                Prng rng(seed);
                StreamMemSystem sys(cfg);
                ReferenceStreamMem ref(cfg);
                int64_t now = 0;
                for (int batch = 0; batch < 6; ++batch) {
                    SCOPED_TRACE(testing::Message()
                                 << "seed 0x" << std::hex << seed
                                 << std::dec << " C " << channels
                                 << " window " << window << " maxBypass "
                                 << max_bypass << " batch " << batch);
                    std::vector<int> tickets, ref_tickets;
                    for (const TransferDesc &d :
                         resolveBatch(rng, channels, now)) {
                        tickets.push_back(sys.submit(d));
                        ref_tickets.push_back(ref.submit(d));
                        extrapolated += d.words > 8192 ? 1 : 0;
                    }
                    sys.resolveAll();
                    ref.resolveAll();
                    for (size_t i = 0; i < tickets.size(); ++i) {
                        const TransferResult &a = sys.result(tickets[i]);
                        const TransferResult &b =
                            ref.result(ref_tickets[i]);
                        SCOPED_TRACE(testing::Message() << "transfer " << i);
                        EXPECT_EQ(a.startCycle, b.startCycle);
                        EXPECT_EQ(a.serviceStart, b.serviceStart);
                        EXPECT_EQ(a.doneCycle, b.doneCycle);
                        EXPECT_EQ(a.cycles, b.cycles);
                        EXPECT_EQ(a.busyCycles, b.busyCycles);
                        EXPECT_EQ(a.wordsPerCycle, b.wordsPerCycle);
                        EXPECT_EQ(a.dramAccesses, b.dramAccesses);
                        EXPECT_EQ(a.dramRowHits, b.dramRowHits);
                        EXPECT_EQ(a.dramRowMisses, b.dramRowMisses);
                        EXPECT_EQ(a.bankConflicts, b.bankConflicts);
                        EXPECT_EQ(a.dramReorderSum, b.dramReorderSum);
                        EXPECT_EQ(a.dramReorderMax, b.dramReorderMax);
                        EXPECT_EQ(a.aliasStallCycles, b.aliasStallCycles);
                        reordered += b.dramReorderSum > 0 ? 1 : 0;
                        now = std::max(now, b.doneCycle);
                    }
                    for (int c = 0; c < channels; ++c) {
                        const ChannelStats &a =
                            sys.channelStats()[static_cast<size_t>(c)];
                        const ChannelStats &b =
                            ref.channelStats()[static_cast<size_t>(c)];
                        EXPECT_EQ(a.busyCycles, b.busyCycles) << "channel " << c;
                        EXPECT_EQ(a.accesses, b.accesses) << "channel " << c;
                        EXPECT_EQ(a.rowHits, b.rowHits) << "channel " << c;
                        EXPECT_EQ(a.bankConflicts, b.bankConflicts)
                            << "channel " << c;
                    }
                    std::vector<BusyInterval> a = sys.takeBusyIntervals();
                    std::vector<BusyInterval> b = ref.takeBusyIntervals();
                    ASSERT_EQ(a.size(), b.size());
                    for (size_t i = 0; i < a.size(); ++i) {
                        EXPECT_EQ(a[i].start, b[i].start) << "interval " << i;
                        EXPECT_EQ(a[i].end, b[i].end) << "interval " << i;
                    }
                    if (HasFailure())
                        return;
                    // Next batch: sometimes back to back, sometimes
                    // after the channels have gone idle.
                    now = rng.below(2) == 0 ? now / 2 : now + 500;
                }
            }
        }
    }
    // The batches must reach the reordering and extrapolation paths.
    EXPECT_GT(reordered, 20);
    EXPECT_GT(extrapolated, 10);
}

/** One batch of overlapping transfers with varied addressing. */
std::vector<TransferDesc>
mixedBatch(uint64_t seed)
{
    Prng rng(seed);
    std::vector<TransferDesc> out;
    for (int t = 0; t < 6; ++t) {
        TransferDesc d;
        d.words = 1 + rng.below(3000);
        d.baseWord = rng.below(100000);
        d.recordWords = 1 + rng.below(6);
        d.strideWords = rng.below(3) == 0 ? 0
                                           : d.recordWords + rng.below(40);
        d.startCycle = rng.below(400);
        d.write = rng.below(2) == 1;
        out.push_back(d);
    }
    // One transfer beyond the simulation cap, so the batch also takes
    // the extrapolation path.
    TransferDesc big;
    big.words = 20000;
    big.baseWord = 7;
    big.recordWords = 3;
    big.strideWords = 11;
    out.push_back(big);
    return out;
}

TEST(StreamMemCursorTest, NonPowerOfTwoChannelsRouteEveryWord)
{
    constexpr int64_t kSimCap = 8192; // stream_mem.cpp's prefix cap
    Fnv digest;
    for (int channels : {3, 5, 6, 7, 8}) {
        StreamMemConfig cfg;
        cfg.channels = channels;
        StreamMemSystem sys(cfg);
        sys.beginProgram();
        std::vector<int64_t> expect(static_cast<size_t>(channels), 0);
        for (uint64_t batch = 0; batch < 3; ++batch) {
            std::vector<int> tickets;
            for (const TransferDesc &d :
                 mixedBatch(31 * batch + static_cast<uint64_t>(channels))) {
                tickets.push_back(sys.submit(d));
                int64_t rec = d.recordWords;
                int64_t stride = d.strideWords > 0 ? d.strideWords : rec;
                for (int64_t i = 0; i < std::min(d.words, kSimCap); ++i) {
                    int64_t addr = d.baseWord + (i / rec) * stride + i % rec;
                    ++expect[static_cast<size_t>(addr % channels)];
                }
            }
            sys.resolveAll();
            for (int tk : tickets) {
                const TransferResult &r = sys.result(tk);
                for (int64_t v :
                     {r.startCycle, r.serviceStart, r.doneCycle, r.cycles,
                      r.busyCycles, r.dramAccesses, r.dramRowHits,
                      r.dramRowMisses, r.bankConflicts, r.dramReorderSum,
                      r.dramReorderMax, r.aliasStallCycles})
                    digest.mix(static_cast<uint64_t>(v));
            }
        }
        for (int c = 0; c < channels; ++c) {
            const ChannelStats &cs =
                sys.channelStats()[static_cast<size_t>(c)];
            EXPECT_EQ(cs.accesses, expect[static_cast<size_t>(c)])
                << channels << " channels, channel " << c;
            for (int64_t v : {cs.busyCycles, cs.accesses, cs.rowHits,
                              cs.bankConflicts})
                digest.mix(static_cast<uint64_t>(v));
        }
    }
    // Every resolved field and channel counter, as the original
    // per-word `/` and `%` generator and deque window produced them.
    EXPECT_EQ(digest.h, 0x2329a77916fcee5eull) << std::hex << "0x" << digest.h;
}

} // namespace
} // namespace sps::mem
