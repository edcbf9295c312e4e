/**
 * @file
 * FNV-1a incremental hasher shared by the structural caches (the
 * schedule cache and the lowered-kernel cache), the store and frame
 * checksums, and simConfigHash. 64-bit, byte-at-a-time, deterministic
 * across platforms.
 */
#ifndef SPS_COMMON_FNV_H
#define SPS_COMMON_FNV_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sps {

/** Incremental FNV-1a over byte ranges, 64-bit words and strings. */
struct Fnv
{
    static constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr uint64_t kPrime = 0x100000001b3ull;

    uint64_t h = kOffset;

    void
    mix(const uint8_t *data, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            h ^= data[i];
            h *= kPrime;
        }
    }

    /** The 8 little-endian bytes of v. */
    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kPrime;
        }
    }

    /** Length-prefixed, so ("ab","c") and ("a","bc") differ. */
    void
    mix(std::string_view s)
    {
        mix(static_cast<uint64_t>(s.size()));
        mix(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }
};

} // namespace sps

#endif // SPS_COMMON_FNV_H
