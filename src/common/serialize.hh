/**
 * @file
 * Binary serialization primitives for the checkpoint subsystem.
 *
 * A Writer appends fixed-width little-endian fields to an in-memory
 * buffer; a Reader consumes the same encoding with strict bounds
 * checking (every truncation or tag mismatch throws serial::Error with
 * a message naming the offset).  A scalar field is one append or one
 * checked load; a table is one span(): one append or one bounds check
 * for all its records, which the component then encodes or decodes
 * in a tight loop with storeLe/loadLe.  Components implement
 * `save(serial::Writer &)` / `restore(serial::Reader &)` pairs against
 * these primitives; the versioned container format lives one layer up
 * in sim/checkpoint.{hh,cc}.
 */

#ifndef SCIQ_COMMON_SERIALIZE_HH
#define SCIQ_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace sciq {
namespace serial {

/** Malformed/truncated stream.  Checkpoint layers wrap it with context. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Incremental FNV-1a (64-bit) used for content keys and fingerprints:
 * cache keys, workload fingerprints and small structured records.
 */
class Fnv64
{
  public:
    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ULL;
        }
    }

    void
    update(std::uint64_t v)
    {
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        update(bytes, 8);
    }

    void update(std::string_view s) { update(s.data(), s.size()); }

    std::uint64_t digest() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

inline std::uint64_t
fnv1a(const void *data, std::size_t len)
{
    Fnv64 h;
    h.update(data, len);
    return h.digest();
}

/**
 * Fixed-width little-endian load/store for 1-, 4- and 8-byte unsigned
 * fields: one memcpy on little-endian hosts, a byte loop elsewhere.
 */
template <typename T>
inline T
loadLe(const void *src)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, src, sizeof v);
    } else {
        const auto *b = static_cast<const std::uint8_t *>(src);
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
    }
    return v;
}

template <typename T>
inline void
storeLe(void *dst, T v)
{
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, &v, sizeof v);
    } else {
        auto *b = static_cast<std::uint8_t *>(dst);
        for (std::size_t i = 0; i < sizeof v; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/**
 * Four-lane word-at-a-time 64-bit hash for bulk byte ranges: the
 * checkpoint trailer and the data-segment bytes in Program::checksum.
 *
 * Each 8-byte little-endian word w updates a 64-bit state as
 * h = f(h ^ w), where f(x) = m ^ (m >> 32) with m = x * K for an odd
 * K.  Both halves of f are bijections, so every step is a bijection of
 * the word for a fixed state and of the state for a fixed word.
 *
 * Whole 32-byte blocks feed four independent lanes, word j of each
 * block into lane j, so four multiplies are in flight at once.  The
 * lanes start from distinct seeds that fold in the length, and are
 * then folded into one state with the same step, lane 0 as the state
 * and lanes 1..3 as words.  The remaining 0..3 whole words and a
 * zero-padded word of the trailing 1..7 bytes are stepped into that
 * state, and a murmur3 finaliser (a bijection) spreads it into every
 * bit.
 *
 * Two inputs of equal length that differ only inside one word always
 * hash differently: the changed word alters its own lane (or the tail
 * state), every later step of that lane is a bijection of the state,
 * the fold is a bijection of each lane with the others fixed, and so
 * is everything after it (DESIGN.md §12).  Any single-bit flip is such
 * a change.
 */
inline std::uint64_t
hashBytes(const void *data, std::size_t len)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    const auto *p = static_cast<const std::uint8_t *>(data);
    auto step = [](std::uint64_t h, std::uint64_t w) {
        h = (h ^ w) * kMul;
        return h ^ (h >> 32);
    };

    const std::uint64_t seed = 0x243f6a8885a308d3ULL ^ (len * kMul);
    std::uint64_t l0 = seed;
    std::uint64_t l1 = seed ^ 0x13198a2e03707344ULL;
    std::uint64_t l2 = seed ^ 0xa4093822299f31d0ULL;
    std::uint64_t l3 = seed ^ 0x082efa98ec4e6c89ULL;
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        l0 = step(l0, loadLe<std::uint64_t>(p + i));
        l1 = step(l1, loadLe<std::uint64_t>(p + i + 8));
        l2 = step(l2, loadLe<std::uint64_t>(p + i + 16));
        l3 = step(l3, loadLe<std::uint64_t>(p + i + 24));
    }
    std::uint64_t h = step(step(step(l0, l1), l2), l3);

    for (; i + 8 <= len; i += 8)
        h = step(h, loadLe<std::uint64_t>(p + i));
    if (i < len) {
        std::uint8_t tail[8] = {};
        std::memcpy(tail, p + i, len - i);
        h = step(h, loadLe<std::uint64_t>(tail));
    }

    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/**
 * Bounds checks made by every Reader on this thread, ever: one per
 * fixed-width field, one per span().  Tests read the difference across
 * a restore to pin how many checks it costs.
 */
inline thread_local std::uint64_t readerBoundsChecks = 0;

/**
 * Append-only little-endian encoder over a std::string buffer.  Each
 * fixed-width field is one append; a table is one span() filled in a
 * tight loop with storeLe.
 */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) { fixed(v); }
    void u64(std::uint64_t v) { fixed(v); }
    void f64(double v) { fixed(std::bit_cast<std::uint64_t>(v)); }

    void
    bytes(const void *data, std::size_t len)
    {
        buf.append(static_cast<const char *>(data), len);
    }

    /**
     * Append `count` records of `width` bytes and return where the
     * first one starts, for the caller to fill.  The pointer is valid
     * until the next append.
     */
    char *
    span(std::size_t count, std::size_t width = 1)
    {
        const std::size_t at = buf.size();
        buf.resize(at + count * width);
        return buf.data() + at;
    }

    /** Grow the buffer once ahead of a known amount of output. */
    void reserve(std::size_t total) { buf.reserve(total); }

    /** Length-prefixed string. */
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** 4-character section marker ("L1D_", "BPRD", ...). */
    void
    tag(const char (&t)[5])
    {
        bytes(t, 4);
    }

    const std::string &buffer() const { return buf; }
    std::string take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    template <typename T>
    void
    fixed(T v)
    {
        char b[sizeof v];
        storeLe(b, v);
        buf.append(b, sizeof v);
    }

    std::string buf;
};

/**
 * Bounds-checked little-endian decoder over a borrowed buffer.  Every
 * fixed-width field costs one bounds check; span() checks a whole
 * table once, which the caller then decodes with loadLe.
 */
class Reader
{
  public:
    explicit Reader(std::string_view data_) : data(data_) {}

    std::uint8_t u8() { return fixed<std::uint8_t>(); }
    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(fixed<std::uint64_t>()); }

    /**
     * Consume `count` records of `width` bytes after one bounds check
     * and return where the first one starts.  The check cannot
     * overflow, so a count read from the stream is safe to pass.
     */
    const char *
    span(std::size_t count, std::size_t width = 1)
    {
        need(count, width);
        const char *p = data.data() + pos;
        pos += count * width;
        return p;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        return std::string(span(len), len);
    }

    /** Consume a 4-character section marker; mismatch is an Error. */
    void
    expectTag(const char (&t)[5])
    {
        need(4);
        if (data.compare(pos, 4, t, 4) != 0) {
            throw Error("expected section '" + std::string(t) +
                        "' at offset " + std::to_string(pos) + ", found '" +
                        std::string(data.substr(pos, 4)) + "'");
        }
        pos += 4;
    }

    /**
     * Read a table's u64 entry count and check it against the
     * configured one; Error "<what> mismatch: snapshot N, configured
     * M" otherwise.
     */
    void
    expectCount(std::size_t configured, const char *what)
    {
        const std::uint64_t n = u64();
        if (n != configured) {
            throw Error(std::string(what) + " mismatch: snapshot " +
                        std::to_string(n) + ", configured " +
                        std::to_string(configured));
        }
    }

    std::size_t offset() const { return pos; }
    std::size_t remaining() const { return data.size() - pos; }

  private:
    template <typename T>
    T
    fixed()
    {
        need(sizeof(T));
        const T v = loadLe<T>(data.data() + pos);
        pos += sizeof(T);
        return v;
    }

    void
    need(std::size_t count, std::size_t width = 1)
    {
        ++readerBoundsChecks;
        if (count > (data.size() - pos) / width) {
            throw Error("truncated stream: need " + std::to_string(count) +
                        (width == 1 ? "" : " x " + std::to_string(width)) +
                        " bytes at offset " + std::to_string(pos) +
                        ", have " + std::to_string(data.size() - pos));
        }
    }

    std::string_view data;
    std::size_t pos = 0;
};

} // namespace serial
} // namespace sciq

#endif // SCIQ_COMMON_SERIALIZE_HH
