/** @file Tests for the sparse simulated memory. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/sparse_memory.hh"

using namespace sciq;

namespace {

constexpr Addr kPage = SparseMemory::kPageSize;

/** `len` bytes of a recognisable non-zero pattern. */
std::vector<std::uint8_t>
pattern(std::size_t len, std::uint8_t salt = 0)
{
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>(i * 131 + salt + 1) | 1;
    return v;
}

/** Per-byte reference for writeBlob: one write() per byte. */
void
refWriteBlob(SparseMemory &m, Addr addr, const std::uint8_t *data,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        m.write(addr + i, 1, data[i]);
}

/** Per-byte reference for readBlob: one read() per byte. */
std::vector<std::uint8_t>
refReadBlob(const SparseMemory &m, Addr addr, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(m.read(addr + i, 1));
    return out;
}

std::vector<std::uint8_t>
readBlob(const SparseMemory &m, Addr addr, std::size_t len)
{
    std::vector<std::uint8_t> out(len, 0xee);
    m.readBlob(addr, out.data(), len);
    return out;
}

} // namespace

TEST(SparseMemory, UntouchedReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.read(0xFFFFFFFFFFFFFF00ULL, 4), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(SparseMemory, ReadWriteWidths)
{
    SparseMemory m;
    m.write(0x100, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x100, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x100, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x104, 4), 0x11223344u);
    EXPECT_EQ(m.read(0x100, 1), 0x88u);
    EXPECT_EQ(m.read(0x107, 1), 0x11u);
}

TEST(SparseMemory, PartialWritePreservesNeighbours)
{
    SparseMemory m;
    m.write(0x200, 8, ~0ULL);
    m.write(0x202, 2, 0);
    EXPECT_EQ(m.read(0x200, 8), 0xFFFFFFFF0000FFFFULL);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr boundary = SparseMemory::kPageSize;
    m.write(boundary - 4, 8, 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(m.read(boundary - 4, 8), 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(SparseMemory, WrapAroundAddressSpaceIsSafe)
{
    SparseMemory m;
    // Wrong-path execution can produce addresses near 2^64.
    m.write(~0ULL - 3, 8, 0x1234567890ABCDEFULL);
    EXPECT_EQ(m.read(~0ULL - 3, 8), 0x1234567890ABCDEFULL);
}

TEST(SparseMemory, Blobs)
{
    SparseMemory m;
    std::uint8_t data[5] = {1, 2, 3, 4, 5};
    m.writeBlob(0x300, data, 5);
    std::uint8_t out[5] = {};
    m.readBlob(0x300, out, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST(SparseMemory, Doubles)
{
    SparseMemory m;
    m.writeDouble(0x400, 3.14159);
    EXPECT_DOUBLE_EQ(m.readDouble(0x400), 3.14159);
    m.writeDouble(0x408, -0.0);
    EXPECT_EQ(m.read(0x408, 8), 0x8000000000000000ULL);
}

TEST(SparseMemory, EqualContentsIgnoresZeroPages)
{
    SparseMemory a, b;
    EXPECT_TRUE(a.equalContents(b));
    a.write(0x100, 8, 0);  // allocates a page of zeros
    EXPECT_TRUE(a.equalContents(b));
    EXPECT_TRUE(b.equalContents(a));
    a.write(0x100, 1, 7);
    EXPECT_FALSE(a.equalContents(b));
    b.write(0x100, 1, 7);
    EXPECT_TRUE(a.equalContents(b));
    b.write(0x5000, 4, 9);
    EXPECT_FALSE(a.equalContents(b));
}

TEST(SparseMemory, BadSizePanics)
{
    SparseMemory m;
    EXPECT_THROW(m.read(0, 0), PanicError);
    EXPECT_THROW(m.read(0, 9), PanicError);
    EXPECT_THROW(m.write(0, 16, 1), PanicError);
}

TEST(SparseMemoryBlob, MidPageRunSpanningThreePages)
{
    // Starts 100 bytes before the end of page 1 and ends 50 bytes into
    // page 3: a partial head page, one whole page and a partial tail.
    const Addr start = 2 * kPage - 100;
    const std::size_t len = 100 + kPage + 50;
    const std::vector<std::uint8_t> data = pattern(len);

    SparseMemory m;
    m.writeBlob(start, data.data(), len);
    EXPECT_EQ(m.numPages(), 3u);
    EXPECT_EQ(readBlob(m, start, len), data);
    EXPECT_EQ(refReadBlob(m, start, len), data);
    // Neighbours on both sides are untouched.
    EXPECT_EQ(m.read(start - 1, 1), 0u);
    EXPECT_EQ(m.read(start + len, 1), 0u);

    SparseMemory ref;
    refWriteBlob(ref, start, data.data(), len);
    EXPECT_TRUE(m.equalContents(ref));
    EXPECT_EQ(m.numPages(), ref.numPages());
}

TEST(SparseMemoryBlob, ZeroLengthIsANoOp)
{
    SparseMemory m;
    m.writeBlob(0x1000, nullptr, 0);
    EXPECT_EQ(m.numPages(), 0u);
    m.readBlob(0x1000, nullptr, 0);
    EXPECT_EQ(m.numPages(), 0u);

    std::uint8_t sentinel = 0x5a;
    m.readBlob(0x1000, &sentinel, 0);
    EXPECT_EQ(sentinel, 0x5a);
}

TEST(SparseMemoryBlob, RangeNearTopOfAddressSpaceWraps)
{
    // 40 bytes starting 16 below 2^64: the last 24 land at address 0,
    // exactly where the per-byte address arithmetic puts them.
    const Addr start = ~0ULL - 15;
    const std::size_t len = 40;
    const std::vector<std::uint8_t> data = pattern(len, 7);

    SparseMemory m, ref;
    m.writeBlob(start, data.data(), len);
    refWriteBlob(ref, start, data.data(), len);
    EXPECT_TRUE(m.equalContents(ref));
    EXPECT_EQ(m.numPages(), 2u);
    EXPECT_EQ(m.read(0, 1), data[16]);
    EXPECT_EQ(readBlob(m, start, len), data);
    EXPECT_EQ(refReadBlob(m, start, len), data);
}

TEST(SparseMemoryBlob, ReadOfAbsentPagesIsZeroAndAllocatesNothing)
{
    SparseMemory m;
    const std::vector<std::uint8_t> zeros(3 * kPage, 0);
    EXPECT_EQ(readBlob(m, kPage / 2, zeros.size()), zeros);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(SparseMemoryBlob, ReadOfPartlyPresentRangeAllocatesNothing)
{
    // Only the middle of three pages exists.
    SparseMemory m;
    m.write(5 * kPage + 10, 8, 0x0102030405060708ULL);
    ASSERT_EQ(m.numPages(), 1u);

    const Addr start = 4 * kPage + 3;
    const std::size_t len = 2 * kPage + 20;
    const std::vector<std::uint8_t> got = readBlob(m, start, len);
    EXPECT_EQ(m.numPages(), 1u);
    EXPECT_EQ(got, refReadBlob(m, start, len));
    for (std::size_t i = 0; i < len; ++i) {
        const Addr a = start + i;
        const bool inWord = a >= 5 * kPage + 10 && a < 5 * kPage + 18;
        if (!inWord) {
            ASSERT_EQ(got[i], 0u) << "offset " << i;
        }
    }
    EXPECT_EQ(got[5 * kPage + 10 - start], 0x08u);
    EXPECT_EQ(got[5 * kPage + 17 - start], 0x01u);
}

TEST(SparseMemoryBlob, RandomizedDifferentialAgainstPerByteReference)
{
    // Random bulk writes, scalar writes and bulk reads over a few pages
    // (and a window that wraps past 2^64), checked byte for byte against
    // a memory driven only through per-byte write()/read().
    Random rng(0x5eed'b10bULL);
    SparseMemory m, ref;
    const Addr bases[] = {0, 7 * kPage, ~0ULL - 2 * kPage};
    for (int iter = 0; iter < 400; ++iter) {
        const Addr addr = bases[rng.next() % 3] + rng.next() % (4 * kPage);
        const std::size_t len = rng.next() % (3 * kPage);
        switch (rng.next() % 3) {
          case 0: {
            const std::vector<std::uint8_t> data =
                pattern(len, static_cast<std::uint8_t>(iter));
            m.writeBlob(addr, data.data(), len);
            refWriteBlob(ref, addr, data.data(), len);
            break;
          }
          case 1: {
            const unsigned size = 1 + rng.next() % 8;
            const std::uint64_t val = rng.next();
            m.write(addr, size, val);
            ref.write(addr, size, val);
            break;
          }
          default: {
            const std::size_t pages = m.numPages();
            ASSERT_EQ(readBlob(m, addr, len), refReadBlob(ref, addr, len))
                << "iter " << iter << " addr " << addr << " len " << len;
            ASSERT_EQ(m.numPages(), pages);
            break;
          }
        }
        ASSERT_EQ(m.numPages(), ref.numPages()) << "iter " << iter;
    }
    EXPECT_TRUE(m.equalContents(ref));
}
