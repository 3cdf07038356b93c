/**
 * @file
 * Binary serialization primitives for the checkpoint subsystem.
 *
 * A Writer appends fixed-width little-endian fields to an in-memory
 * buffer; a Reader consumes the same encoding with strict bounds
 * checking (every truncation or tag mismatch throws serial::Error with
 * a message naming the offset).  Components implement
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
 * Word-at-a-time 64-bit hash for bulk byte ranges: the checkpoint
 * trailer and the data-segment bytes in Program::checksum.
 *
 * Each 8-byte little-endian word w updates the state as
 * h = f(h ^ w), where f(x) = m ^ (m >> 32) with m = x * K for an odd
 * K.  Both halves of f are bijections, so every step is a bijection of
 * the word for a fixed state and of the state for a fixed word: two
 * inputs of equal length that differ in one word, and hence any
 * single-bit flip, always hash differently.  The trailing 1..7 bytes
 * form one zero-padded word, the length is folded into the initial
 * state, and a murmur3 finaliser spreads the last word into every bit.
 * One multiply per 8 bytes replaces FNV-1a's one per byte.
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
    auto loadLe = [](const std::uint8_t *b, std::size_t n) {
        std::uint64_t w = 0;
        for (std::size_t i = 0; i < n; ++i)
            w |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return w;
    };

    std::uint64_t h = 0x243f6a8885a308d3ULL ^ (len * kMul);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        if constexpr (std::endian::native == std::endian::little)
            std::memcpy(&w, p + i, 8);
        else
            w = loadLe(p + i, 8);
        h = step(h, w);
    }
    if (i < len)
        h = step(h, loadLe(p + i, len - i));

    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/** Append-only little-endian encoder over a std::string buffer. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t len)
    {
        buf.append(static_cast<const char *>(data), len);
    }

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
    std::string buf;
};

/** Bounds-checked little-endian decoder over a borrowed buffer. */
class Reader
{
  public:
    explicit Reader(std::string_view data_) : data(data_) {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(data[pos++]);
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, data.data() + pos, len);
        pos += len;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        need(len);
        std::string s(data.substr(pos, len));
        pos += len;
        return s;
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

    std::size_t offset() const { return pos; }
    std::size_t remaining() const { return data.size() - pos; }

  private:
    void
    need(std::size_t n)
    {
        if (data.size() - pos < n) {
            throw Error("truncated stream: need " + std::to_string(n) +
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
