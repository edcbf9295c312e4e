#include "svc/protocol.h"

#include "common/fnv.h"

#ifndef _WIN32
#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace sps::svc {

namespace {

bool
knownKind(uint32_t kind)
{
    switch (static_cast<FrameKind>(kind)) {
    case FrameKind::EvalRequest:
    case FrameKind::EvalResult:
    case FrameKind::Error:
    case FrameKind::MetricsRequest:
    case FrameKind::MetricsReply:
        return true;
    }
    return false;
}

/**
 * FNV-1a over the header prefix (magic through length, 24 bytes)
 * chained with the payload. Covering the header means a bit flip in
 * the *kind* field breaks the checksum too -- a damaged EvalResult
 * can never decode as a well-formed Error (or vice versa), which a
 * payload-only checksum would allow.
 */
uint64_t
frameChecksum(const uint8_t *prefix, const std::vector<uint8_t> &payload)
{
    Fnv f;
    f.mix(prefix, kFrameHeaderBytes - 8);
    f.mix(payload.data(), payload.size());
    return f.h;
}

void
putFrameHeader(FrameKind kind, const std::vector<uint8_t> &payload,
               store::ByteWriter *w)
{
    size_t base = w->bytes().size();
    (*w)(kProtocolMagic, kProtocolVersion, static_cast<uint32_t>(kind),
         uint32_t{0} /* reserved */, uint64_t{payload.size()});
    (*w)(frameChecksum(w->bytes().data() + base, payload));
}

/**
 * Validate the six header fields. On success fills kind/length/
 * checksum; the caller still verifies the checksum once the payload
 * is in hand.
 */
bool
parseFrameHeader(const uint8_t *header, FrameKind *kind,
                 uint64_t *length, uint64_t *checksum)
{
    store::ByteReader r(header, kFrameHeaderBytes);
    uint32_t magic = 0, version = 0, kind_raw = 0, reserved = 0;
    r(magic, version, kind_raw, reserved, *length, *checksum);
    if (!r.done() || magic != kProtocolMagic ||
        version != kProtocolVersion ||
        !knownKind(kind_raw) || *length > kMaxFramePayloadBytes)
        return false;
    *kind = static_cast<FrameKind>(kind_raw);
    return true;
}

// --- Field walkers, one per record, in wire order. ---
//
// The SimConfig walk is the wire format *and* the store-key hash, so a
// field it skips would let differently configured results alias. Each
// struct it visits has its own walker naming every field, and a
// static_assert beside the walker checks the struct's field count. A
// size check could not: a new field can land in padding.

/** Converts to any field type; only ever used unevaluated. */
struct AnyField
{
    template <class T>
    operator T() const;
};

/** Field count of aggregate T: the most initializers T{...} takes. */
template <class T, class... Fields>
consteval size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

template <store::MaybeConst<vlsi::MachineSize> R, class V>
void
walk(R &size, V &v)
{
    v(size.clusters, size.alusPerCluster);
}
static_assert(fieldCount<vlsi::MachineSize>() == 2,
              "vlsi::MachineSize changed: walk the new field");

template <store::MaybeConst<vlsi::Params> R, class V>
void
walk(R &p, V &v)
{
    v(p.aSram, p.aSb, p.wAlu, p.wLrf, p.wSp, p.h, p.v0, p.tCyc, p.tMux,
      p.eW, p.eAlu, p.eSram, p.eSb, p.eLrf, p.eSp, p.tMem, p.gSrf, p.gSb,
      p.gComm, p.gSp, p.i0, p.iN, p.lC, p.lO, p.lN, p.rM, p.rUc,
      p.kCommArea, p.kCommEnergy, p.kIntraEnergy, p.kDistEnergy,
      p.xbarConnectivity, p.b);
}
static_assert(fieldCount<vlsi::Params>() == 33,
              "vlsi::Params changed: walk the new field");

template <store::MaybeConst<vlsi::Technology> R, class V>
void
walk(R &t, V &v)
{
    v(t.name, t.trackPitchUm, t.fo4Ps, t.ewFj, t.clockFo4, t.memBwGBs,
      t.hostBwGBs);
}
static_assert(fieldCount<vlsi::Technology>() == 7,
              "vlsi::Technology changed: walk the new field");

template <store::MaybeConst<mem::DramTiming> R, class V>
void
walk(R &t, V &v)
{
    v(t.tRas, t.tPre, t.tCol, t.banks, t.rowWords);
}
static_assert(fieldCount<mem::DramTiming>() == 5,
              "mem::DramTiming changed: walk the new field");

template <store::MaybeConst<mem::StreamMemConfig> R, class V>
void
walk(R &m, V &v)
{
    v(m.channels, m.peakWordsPerCycle, m.latencyCycles);
    walk(m.timing, v);
    v(m.schedWindow, m.schedMaxBypass);
}
static_assert(fieldCount<mem::StreamMemConfig>() == 6,
              "mem::StreamMemConfig changed: walk the new field");

template <store::MaybeConst<sim::UcConfig> R, class V>
void
walk(R &uc, V &v)
{
    v(uc.pipeFillCycles, uc.loadCyclesPerInstruction);
}
static_assert(fieldCount<sim::UcConfig>() == 2,
              "sim::UcConfig changed: walk the new field");

template <store::MaybeConst<energy::DramEnergyParams> R, class V>
void
walk(R &d, V &v)
{
    v(d.rowHitEnergyEw, d.rowMissEnergyEw, d.channelBusyEnergyEw);
}
static_assert(fieldCount<energy::DramEnergyParams>() == 3,
              "energy::DramEnergyParams changed: walk the new field");

template <store::MaybeConst<energy::AccountantConfig> R, class V>
void
walk(R &e, V &v)
{
    v(e.idleFraction);
    walk(e.dram, v);
}
static_assert(fieldCount<energy::AccountantConfig>() == 2,
              "energy::AccountantConfig changed: walk the new field");

template <store::MaybeConst<sim::SimConfig> R, class V>
void
walk(R &cfg, V &v)
{
    walk(cfg.size, v);
    walk(cfg.params, v);
    walk(cfg.tech, v);
    walk(cfg.memConfig, v);
    walk(cfg.ucConfig, v);
    v(cfg.hostIssueCycles, cfg.scoreboardDepth);
    walk(cfg.energyConfig, v);
}
static_assert(fieldCount<sim::SimConfig>() == 8,
              "sim::SimConfig changed: walk the new field");

template <store::MaybeConst<EvalPoint> R, class V>
void
walk(R &pt, V &v)
{
    v(pt.app);
    walk(pt.size, v);
    v.opt(pt.config, [&v](auto &cfg) { walk(cfg, v); });
}

template <store::MaybeConst<obs::MetricSample> R, class V>
void
walk(R &m, V &v)
{
    v(m.name, m.labels, m.help);
    v.tag(m.kind, obs::MetricKind::Counter, obs::MetricKind::Histogram);
    if (m.kind == obs::MetricKind::Histogram) {
        v.seq(m.buckets, [&v](auto &count) { v(count); });
        v(m.count, m.sum);
    } else {
        v(m.value);
    }
}

template <store::MaybeConst<obs::MetricsSnapshot> R, class V>
void
walk(R &snap, V &v)
{
    v.seq(snap.metrics, [&v](auto &m) { walk(m, v); });
}

/**
 * simConfigHash's visitor: FNV-1a over the SimConfig walk, the same
 * bytes as the wire except that an i32 field mixes as its
 * sign-extended 8 bytes (the store-key hash predates the wire format,
 * and changing it would orphan every persisted entry).
 */
struct ConfigHasher
{
    Fnv f;

    template <class... T>
    void
    operator()(const T &...fields)
    {
        (mix(fields), ...);
    }

    void mix(int32_t v) { f.mix(static_cast<uint64_t>(int64_t{v})); }
    void mix(double v) { f.mix(std::bit_cast<uint64_t>(v)); }
    void mix(const char *s) { f.mix(std::string_view(s)); }
};

} // namespace

void
encodeFrame(FrameKind kind, const std::vector<uint8_t> &payload,
            std::vector<uint8_t> *out)
{
    store::ByteWriter header;
    putFrameHeader(kind, payload, &header);
    out->insert(out->end(), header.bytes().begin(),
                header.bytes().end());
    out->insert(out->end(), payload.begin(), payload.end());
}

bool
decodeFrame(const std::vector<uint8_t> &bytes, Frame *out)
{
    if (bytes.size() < kFrameHeaderBytes)
        return false;
    FrameKind kind;
    uint64_t length = 0, checksum = 0;
    if (!parseFrameHeader(bytes.data(), &kind, &length, &checksum))
        return false;
    if (bytes.size() != kFrameHeaderBytes + length)
        return false; // truncated payload or trailing bytes
    std::vector<uint8_t> payload(bytes.begin() + kFrameHeaderBytes,
                                 bytes.end());
    if (checksum != frameChecksum(bytes.data(), payload))
        return false;
    out->kind = kind;
    out->payload = std::move(payload);
    return true;
}

uint64_t
simConfigHash(const sim::SimConfig &cfg)
{
    ConfigHasher h;
    walk(cfg, h);
    return h.f.h;
}

void
encodeEvalRequest(const EvalPoint &pt, store::ByteWriter *w)
{
    walk(pt, *w);
}

bool
decodeEvalRequest(const std::vector<uint8_t> &bytes, EvalPoint *out)
{
    store::ByteReader r(bytes);
    EvalPoint pt;
    walk(pt, r);
    return commit(r, pt, out);
}

void
encodeErrorString(const std::string &message, store::ByteWriter *w)
{
    (*w)(message);
}

bool
decodeErrorString(const std::vector<uint8_t> &bytes, std::string *out)
{
    store::ByteReader r(bytes);
    std::string message;
    r(message);
    return commit(r, message, out);
}

void
encodeMetricsSnapshot(const obs::MetricsSnapshot &snap,
                      store::ByteWriter *w)
{
    walk(snap, *w);
}

bool
decodeMetricsSnapshot(const std::vector<uint8_t> &bytes,
                      obs::MetricsSnapshot *out)
{
    store::ByteReader r(bytes);
    obs::MetricsSnapshot snap;
    walk(snap, r);
    return commit(r, snap, out);
}

#ifndef _WIN32

namespace {

bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    while (n > 0) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not
        // kill the daemon with SIGPIPE.
        ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

/** Read exactly n bytes; returns bytes read (short only at EOF/error). */
size_t
readAll(int fd, uint8_t *data, size_t n)
{
    size_t got = 0;
    while (got < n) {
        ssize_t k = ::read(fd, data + got, n - got);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (k == 0)
            break;
        got += static_cast<size_t>(k);
    }
    return got;
}

} // namespace

bool
writeFrame(int fd, FrameKind kind, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    encodeFrame(kind, payload, &frame);
    return writeAll(fd, frame.data(), frame.size());
}

ReadStatus
readFrame(int fd, Frame *out)
{
    uint8_t header[kFrameHeaderBytes];
    size_t got = readAll(fd, header, sizeof header);
    if (got == 0)
        return ReadStatus::Eof;
    if (got != sizeof header)
        return ReadStatus::Malformed;
    FrameKind kind;
    uint64_t length = 0, checksum = 0;
    if (!parseFrameHeader(header, &kind, &length, &checksum))
        return ReadStatus::Malformed;
    std::vector<uint8_t> payload(static_cast<size_t>(length));
    if (readAll(fd, payload.data(), payload.size()) != payload.size())
        return ReadStatus::Malformed;
    if (checksum != frameChecksum(header, payload))
        return ReadStatus::Malformed;
    out->kind = kind;
    out->payload = std::move(payload);
    return ReadStatus::Ok;
}

#endif // !_WIN32

} // namespace sps::svc
