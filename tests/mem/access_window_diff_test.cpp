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
#include <cstdint>
#include <deque>
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
