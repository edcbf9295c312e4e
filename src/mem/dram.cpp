#include "mem/dram.h"

#include "common/log.h"

namespace sps::mem {

DramChannel::DramChannel(DramTiming timing) : timing_(timing)
{
    SPS_ASSERT(timing_.banks >= 1 && timing_.rowWords >= 1,
               "bad DRAM geometry");
    openRow_.assign(static_cast<size_t>(timing_.banks), -1);
}

int
DramChannel::bankOf(int64_t word_addr) const
{
    return decode(word_addr).bank;
}

int64_t
DramChannel::rowOf(int64_t word_addr) const
{
    return decode(word_addr).row;
}

int
DramChannel::service(const DramAddr &a)
{
    auto &open = openRow_[static_cast<size_t>(a.bank)];
    int cycles = timing_.tCol;
    if (open != a.row) {
        cycles += (open >= 0 ? timing_.tPre : 0) + timing_.tRas;
        open = a.row;
        ++rowMisses_;
    } else {
        ++rowHits_;
    }
    return cycles;
}

void
DramChannel::reset()
{
    openRow_.assign(static_cast<size_t>(timing_.banks), -1);
}

} // namespace sps::mem
