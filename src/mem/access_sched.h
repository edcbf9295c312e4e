/**
 * @file
 * Memory access scheduling (after Rixner et al., ISCA 2000, the
 * streaming memory system the paper builds on): requests are reordered
 * within a window to favor open-row accesses (FR-FCFS), which is what
 * lets strided stream accesses approach peak DRAM bandwidth. An age
 * cap bounds starvation: once the oldest request has been bypassed
 * maxBypass times, it is serviced next regardless of row state.
 *
 * AccessWindow is the reusable scheduling core: callers (the
 * list-based AccessScheduler here, and StreamMemSystem's interleaved
 * per-channel service loop) push requests in arrival order and pop
 * them in scheduled order, so concurrent stream transfers share one
 * window per channel. A row hit at the head is always the pick, so a
 * streak of leading row hits can be serviced at once
 * (serviceHitStreak) without running the pick once per request.
 */
#ifndef SPS_MEM_ACCESS_SCHED_H
#define SPS_MEM_ACCESS_SCHED_H

#include <cstddef>
#include <vector>

#include "common/log.h"
#include "mem/dram.h"

namespace sps::mem {

/** Default FR-FCFS reorder window (requests). */
constexpr int kSchedWindow = 16;
/** Default starvation bound: a request is serviced after being
 *  bypassed at most this many times. */
constexpr int kSchedMaxBypass = 64;

/** One serviced request, as reported by AccessWindow::serviceNext. */
struct WindowService
{
    /** Caller-supplied tag of the serviced request (e.g. which
     *  transfer it belongs to). */
    int tag = 0;
    /** Cycles the channel's pins were busy servicing it. */
    int cycles = 0;
    /** Arrival-order index within the window at pick time (how many
     *  older requests this pick bypassed). */
    int64_t pickIndex = 0;
    /** Times this request itself was bypassed before being serviced. */
    int64_t bypassed = 0;
    bool rowHit = false;
    /** Row miss that had to precharge another open row first. */
    bool bankConflict = false;
};

/**
 * FR-FCFS pick window over one channel. Requests enter in arrival
 * order; serviceNext() picks the oldest row hit (oldest request if
 * none), services it on the channel, and reports the reorder
 * bookkeeping. The age cap forces the oldest request once it has been
 * bypassed maxBypass times, so a row-hit flood cannot starve an old
 * miss indefinitely.
 *
 * Each request's bank and row are decoded once, at push. Entries live
 * in a ring buffer sized at construction to hold the whole window, so
 * push and serviceNext never allocate and removing the usual pick
 * (the oldest entry) is O(1).
 */
class AccessWindow
{
  public:
    AccessWindow(DramChannel &channel, int window = kSchedWindow,
                 int max_bypass = kSchedMaxBypass);

    /** True while the window has room for more arrivals. */
    bool wantsMore() const
    {
        return size_ < static_cast<size_t>(window_);
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Add a request at the back (arrival order); the window must
     *  want more. */
    void push(const MemRequest &req, int tag)
    {
        SPS_ASSERT(wantsMore(), "push into a full access window");
        at(size_++) = Entry{channel_.decode(req.wordAddr), tag, 0};
    }

    /** Service the scheduled pick; the window must be non-empty. */
    WindowService serviceNext();

    /** Tag of the oldest entry; the window must be non-empty. */
    int headTag() const { return at(0).tag; }

    /**
     * How many of the oldest entries share the head's tag and hit an
     * open row. Each of them would be serviceNext()'s pick in turn, at
     * pick index 0 and bypassing nobody: a head row hit is first-ready
     * and also the age cap's choice, and servicing a hit changes no
     * row state.
     */
    size_t hitStreak() const;

    /**
     * Service the `k` oldest entries, k <= hitStreak(): the closed
     * form of k serviceNext() calls. Returns their pin cycles.
     */
    int64_t serviceHitStreak(size_t k);

  private:
    struct Entry
    {
        DramAddr addr;
        int tag = 0;
        int64_t bypassed = 0;
    };
    /** The i-th oldest entry. */
    Entry &at(size_t i) { return ring_[(head_ + i) & mask_]; }
    const Entry &at(size_t i) const { return ring_[(head_ + i) & mask_]; }

    DramChannel &channel_;
    std::vector<Entry> ring_; ///< power-of-two size >= window
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
    int window_;
    int maxBypass_;
};

/** Statistics of one scheduled request-list run. */
struct SchedRunStats
{
    /** Total busy cycles on the channel's pins. */
    int64_t busyCycles = 0;
    /** Sum over picks of how many older requests each bypassed. */
    int64_t reorderSum = 0;
    /** Largest number of older requests one pick bypassed. */
    int64_t reorderMax = 0;
    /** Most times any single request was bypassed before service (the
     *  observed starvation bound; <= the scheduler's maxBypass). */
    int64_t maxBypassed = 0;
    /** Row misses that had to precharge an open row first. */
    int64_t bankConflicts = 0;
};

/**
 * FR-FCFS scheduler over one channel: first-ready (row hit) requests
 * are serviced before older row misses, within a bounded window and
 * subject to the starvation age cap.
 */
class AccessScheduler
{
  public:
    AccessScheduler(DramChannel &channel, int window = kSchedWindow,
                    int max_bypass = kSchedMaxBypass)
        : channel_(channel), window_(window), maxBypass_(max_bypass)
    {}

    /**
     * Run the request list to completion in scheduled order; returns
     * total busy cycles on the channel's pins.
     */
    int64_t run(const std::vector<MemRequest> &requests);

    /**
     * Like run(), but also reports how far the scheduler reordered
     * requests (its pick's index within the in-order window).
     */
    SchedRunStats runStats(const std::vector<MemRequest> &requests);

  private:
    DramChannel &channel_;
    int window_;
    int maxBypass_;
};

} // namespace sps::mem

#endif // SPS_MEM_ACCESS_SCHED_H
