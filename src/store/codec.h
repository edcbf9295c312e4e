/**
 * @file
 * Versioned binary serialization for the persistent result store:
 * encode/decode of sched::CompiledKernel and sim::SimResult. The wire
 * format is little-endian, written byte-at-a-time so encodings are
 * deterministic across platforms, and doubles are carried as raw
 * IEEE-754 bit patterns so a decoded result is *bit-identical* to the
 * computed one (warm runs reproduce cold-run CSVs byte for byte).
 *
 * Every record's fields are listed exactly once, by a field walker
 * `walk(record, visitor)` that names them in wire order (codec.cpp for
 * the store records, svc/protocol.cpp for the wire records). Encoding
 * is that walk with a ByteWriter and decoding the same walk with a
 * ByteReader, so the two cannot disagree on a field's order or width.
 * A walker may call, on its visitor `v`:
 *  - `v(fields...)`: each field by its C++ type -- int32_t 4 bytes,
 *    int64_t/uint64_t 8, uint32_t 4, uint8_t 1, double its 8 raw bits,
 *    std::string / const char * a u64 length then the bytes;
 *  - `v.tag(x, first, last)`: an enum (carried as its underlying type)
 *    or a bool (one byte); decoding rejects a value outside
 *    [first, last];
 *  - `v.seq(vector, each)`: a u64 count, then each(element);
 *  - `v.opt(optional, each)`: a presence tag, then each(value).
 *
 * Decoding is reject-or-truth: the reader is sticky (after the first
 * short read, bad tag or bad count every later read fails), every
 * decoded count is bounded by the bytes left, and commit() hands a
 * record out only if the walk consumed the whole buffer without
 * error. So a truncated, oversized or garbled buffer never yields a
 * partially-filled result, and the store treats any damaged entry as
 * a miss. kStoreSchemaVersion is stamped into every store entry
 * header; bump it whenever a walker adds, removes or reorders a
 * field, or a walked field changes its C++ type (the wire width
 * follows the type), which silently invalidates (misses) all
 * previously persisted entries. CodecFormatTest pins every encoding,
 * so such a change cannot land unnoticed.
 */
#ifndef SPS_STORE_CODEC_H
#define SPS_STORE_CODEC_H

#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/kernel_perf.h"
#include "sim/stats.h"

namespace sps::store {

/**
 * Schema version of the serialized payloads. History:
 *  1 = initial format (CompiledKernel, SimResult with counters,
 *      energy report, bottleneck report, full timeline).
 */
inline constexpr uint32_t kStoreSchemaVersion = 1;

/** FNV-1a over a raw byte range (per-entry payload checksum). */
uint64_t fnv1aBytes(const uint8_t *data, size_t n);

/** R is T or const T: one walker serves the encoder (which walks a
 *  const record) and the decoder (which fills a mutable one). */
template <class R, class T>
concept MaybeConst = std::same_as<std::remove_const_t<R>, T>;

/** Wire integer of a tag: an enum's underlying type, a byte for a
 *  bool. */
template <class T>
struct TagWire
{
    using type = std::underlying_type_t<T>;
};
template <>
struct TagWire<bool>
{
    using type = uint8_t;
};

/** Little-endian byte-at-a-time encoder (the walkers' write visitor). */
class ByteWriter
{
  public:
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    template <class... T>
    void
    operator()(const T &...fields)
    {
        (put(fields), ...);
    }

    template <class T>
    void
    tag(T v, T, T)
    {
        put(static_cast<typename TagWire<T>::type>(v));
    }

    template <class T, class Each>
    void
    seq(const std::vector<T> &xs, Each each)
    {
        put(static_cast<uint64_t>(xs.size()));
        for (const T &x : xs)
            each(x);
    }

    template <class T, class Each>
    void
    opt(const std::optional<T> &x, Each each)
    {
        tag(x.has_value(), false, true);
        if (x)
            each(*x);
    }

  private:
    template <std::integral U>
    void
    put(U v)
    {
        uint8_t le[sizeof v];
        for (size_t i = 0; i < sizeof v; ++i)
            le[i] = static_cast<uint8_t>(v >> (8 * i));
        bytes_.insert(bytes_.end(), le, le + sizeof v);
    }

    /** Raw IEEE-754 bit pattern (preserves -0.0, NaN payloads). */
    void put(double v) { put(std::bit_cast<uint64_t>(v)); }

    void
    put(std::string_view s)
    {
        put(static_cast<uint64_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    std::vector<uint8_t> bytes_;
};

/**
 * Bounds-checked little-endian decoder (the walkers' read visitor).
 * Sticky: once a read runs past the buffer or a tag or count is out
 * of range, ok() is false and every later read fails without
 * consuming. done() is true only when every byte was consumed without
 * error, so trailing garbage is also rejected.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t n) : data_(data), n_(n) {}
    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    bool ok() const { return ok_; }
    bool done() const { return ok_ && pos_ == n_; }

    template <class... T>
    void
    operator()(T &...fields)
    {
        (get(fields), ...);
    }

    template <class T>
    void
    tag(T &v, T first, T last)
    {
        using Wire = typename TagWire<T>::type;
        Wire raw = 0;
        get(raw);
        if (raw < static_cast<Wire>(first) || raw > static_cast<Wire>(last))
            ok_ = false;
        else
            v = static_cast<T>(raw);
    }

    /** Every element takes at least one byte, so a count beyond the
     *  bytes left is malformed: it fails before it can size an
     *  allocation. */
    template <class T, class Each>
    void
    seq(std::vector<T> &xs, Each each)
    {
        uint64_t n = 0;
        get(n);
        if (n > n_ - pos_) {
            ok_ = false;
            n = 0;
        }
        xs.resize(static_cast<size_t>(n));
        for (T &x : xs)
            each(x);
    }

    template <class T, class Each>
    void
    opt(std::optional<T> &x, Each each)
    {
        bool present = false;
        tag(present, false, true);
        if (present)
            each(x.emplace());
        else
            x.reset();
    }

  private:
    template <std::integral U>
    void
    get(U &v)
    {
        std::make_unsigned_t<U> u = 0;
        if (take(sizeof u))
            for (size_t i = 0; i < sizeof u; ++i)
                u |= static_cast<decltype(u)>(data_[pos_ - sizeof u + i])
                     << (8 * i);
        v = static_cast<U>(u);
    }

    void
    get(double &v)
    {
        uint64_t bits = 0;
        get(bits);
        v = std::bit_cast<double>(bits);
    }

    void
    get(std::string &s)
    {
        uint64_t len = 0;
        get(len);
        if (take(len))
            s.assign(reinterpret_cast<const char *>(data_ + pos_ - len),
                     static_cast<size_t>(len));
    }

    /** A C-string field (vlsi::Technology::name): the decoded text is
     *  interned into process-lifetime storage the record can point
     *  at. */
    void get(const char *&s);

    bool
    take(uint64_t k)
    {
        if (!ok_ || n_ - pos_ < k) {
            ok_ = false;
            return false;
        }
        pos_ += static_cast<size_t>(k);
        return true;
    }

    const uint8_t *data_;
    size_t n_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * The reject-or-truth rule every decoder ends with: `rec`, decoded
 * into a local, reaches *out only if the walk read every byte of the
 * buffer without error.
 */
template <class T>
bool
commit(const ByteReader &r, T &rec, T *out)
{
    if (!r.done())
        return false;
    *out = std::move(rec);
    return true;
}

// --- Typed codecs (walker field order is part of the schema version). ---

void encodeCompiledKernel(const sched::CompiledKernel &ck,
                          ByteWriter *w);
/** False on truncation, trailing bytes, or any malformed field. */
bool decodeCompiledKernel(const std::vector<uint8_t> &bytes,
                          sched::CompiledKernel *out);

void encodeSimResult(const sim::SimResult &r, ByteWriter *w);
bool decodeSimResult(const std::vector<uint8_t> &bytes,
                     sim::SimResult *out);

} // namespace sps::store

#endif // SPS_STORE_CODEC_H
