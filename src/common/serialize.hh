/**
 * @file
 * Content hashes: FNV-1a for keys and fingerprints (cache keys,
 * workload fingerprints, small structured records) and a four-lane
 * word hash for bulk byte ranges (the program checksum, golden
 * hashes).
 */

#ifndef SCIQ_COMMON_SERIALIZE_HH
#define SCIQ_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace sciq {
namespace serial {

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
 * Fixed-width little-endian load of an unsigned field: one memcpy on
 * little-endian hosts, a byte loop elsewhere.
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

/**
 * Four-lane word-at-a-time 64-bit hash for bulk byte ranges: the
 * data-segment bytes in Program::checksum.
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

} // namespace serial
} // namespace sciq

#endif // SCIQ_COMMON_SERIALIZE_HH
