#include "mem/access_sched.h"

#include <algorithm>
#include <cstddef>

namespace sps::mem {

using std::size_t;

AccessWindow::AccessWindow(DramChannel &channel, int window,
                           int max_bypass)
    : channel_(channel), window_(window), maxBypass_(max_bypass)
{
    SPS_ASSERT(window_ >= 1, "bad access window %d", window_);
    size_t cap = 1;
    while (cap < static_cast<size_t>(window_))
        cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
}

WindowService
AccessWindow::serviceNext()
{
    // First-ready: oldest row hit, else oldest request. The window is
    // in arrival order, so the pick's index is the number of older
    // requests it bypasses. The age cap overrides first-ready: once
    // the oldest request has been bypassed maxBypass_ times it goes
    // next, bounding starvation under a row-hit flood (the oldest
    // entry always has the largest bypass count, so checking the head
    // suffices).
    size_t pick = 0;
    if (at(0).bypassed < maxBypass_) {
        for (size_t i = 0; i < size_; ++i) {
            if (channel_.isRowHit(at(i).addr)) {
                pick = i;
                break;
            }
        }
    }

    const Entry e = at(pick);
    WindowService s;
    s.tag = e.tag;
    s.pickIndex = static_cast<int64_t>(pick);
    s.bypassed = e.bypassed;
    s.rowHit = channel_.isRowHit(e.addr);
    s.bankConflict = !s.rowHit && channel_.isBankOpen(e.addr);
    s.cycles = channel_.service(e.addr);

    // Remove the pick: every older entry was bypassed once more and
    // moves one slot back, then the head slot is dropped.
    for (size_t i = pick; i > 0; --i) {
        at(i) = at(i - 1);
        ++at(i).bypassed;
    }
    head_ = (head_ + 1) & mask_;
    --size_;
    return s;
}

size_t
AccessWindow::hitStreak() const
{
    size_t k = 0;
    const int tag = at(0).tag;
    while (k < size_ && at(k).tag == tag &&
           channel_.isRowHit(at(k).addr))
        ++k;
    return k;
}

int64_t
AccessWindow::serviceHitStreak(size_t k)
{
    SPS_ASSERT(k <= size_, "hit streak of %zu from %zu entries", k,
               size_);
    head_ = (head_ + k) & mask_;
    size_ -= k;
    return channel_.serviceHits(static_cast<int64_t>(k));
}

SchedRunStats
AccessScheduler::runStats(const std::vector<MemRequest> &requests)
{
    SchedRunStats stats;
    size_t next = 0;
    AccessWindow window(channel_, window_, maxBypass_);
    auto fill = [&] {
        while (window.wantsMore() && next < requests.size())
            window.push(requests[next++], 0);
    };
    fill();
    while (!window.empty()) {
        WindowService s = window.serviceNext();
        stats.busyCycles += s.cycles;
        stats.reorderSum += s.pickIndex;
        stats.reorderMax = std::max(stats.reorderMax, s.pickIndex);
        stats.maxBypassed = std::max(stats.maxBypassed, s.bypassed);
        stats.bankConflicts += s.bankConflict ? 1 : 0;
        fill();
    }
    return stats;
}

int64_t
AccessScheduler::run(const std::vector<MemRequest> &requests)
{
    return runStats(requests).busyCycles;
}

} // namespace sps::mem
