#include "sparse_memory.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace sciq {

const SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    auto it = pages.find(addr >> kPageShift);
    return it == pages.end() ? nullptr : &it->second;
}

SparseMemory::Page &
SparseMemory::getPage(Addr addr)
{
    auto [it, inserted] = pages.try_emplace(addr >> kPageShift);
    if (inserted)
        it->second.fill(0);  // the one write a new page's bytes get
    return it->second;
}

std::uint64_t
SparseMemory::read(Addr addr, unsigned size) const
{
    SCIQ_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    std::uint64_t val = 0;
    if (((addr ^ (addr + size - 1)) >> kPageShift) == 0) {
        // Fast path: the access stays within one page, so one map
        // lookup serves every byte.
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        const std::size_t off = addr & (kPageSize - 1);
        for (unsigned i = 0; i < size; ++i)
            val |= static_cast<std::uint64_t>((*p)[off + i]) << (8 * i);
        return val;
    }
    for (unsigned i = 0; i < size; ++i) {
        Addr a = addr + i;
        const Page *p = findPage(a);
        std::uint8_t byte = p ? (*p)[a & (kPageSize - 1)] : 0;
        val |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return val;
}

void
SparseMemory::write(Addr addr, unsigned size, std::uint64_t val)
{
    SCIQ_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    if (((addr ^ (addr + size - 1)) >> kPageShift) == 0) {
        Page &p = getPage(addr);
        const std::size_t off = addr & (kPageSize - 1);
        for (unsigned i = 0; i < size; ++i)
            p[off + i] = static_cast<std::uint8_t>(val >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i) {
        Addr a = addr + i;
        getPage(a)[a & (kPageSize - 1)] =
            static_cast<std::uint8_t>(val >> (8 * i));
    }
}

void
SparseMemory::writeBlob(Addr addr, const std::uint8_t *data, std::size_t len)
{
    // One page lookup and one copy per page run.  `addr` wraps modulo
    // 2^64 exactly as the per-byte address arithmetic in write() does.
    while (len > 0) {
        const std::size_t off = addr & (kPageSize - 1);
        const std::size_t n = std::min<std::size_t>(len, kPageSize - off);
        std::memcpy(getPage(addr).data() + off, data, n);
        addr += n;
        data += n;
        len -= n;
    }
}

void
SparseMemory::readBlob(Addr addr, std::uint8_t *data, std::size_t len) const
{
    // Absent pages read as zero and stay absent.
    while (len > 0) {
        const std::size_t off = addr & (kPageSize - 1);
        const std::size_t n = std::min<std::size_t>(len, kPageSize - off);
        if (const Page *p = findPage(addr))
            std::memcpy(data, p->data() + off, n);
        else
            std::memset(data, 0, n);
        addr += n;
        data += n;
        len -= n;
    }
}

bool
SparseMemory::equalContents(const SparseMemory &other) const
{
    static const Page kZeroPage = [] {
        Page p;
        p.fill(0);
        return p;
    }();

    auto covers = [](const SparseMemory &a, const SparseMemory &b) {
        for (const auto &[page_no, page] : a.pages) {
            auto it = b.pages.find(page_no);
            const Page &theirs = it == b.pages.end() ? kZeroPage
                                                     : it->second;
            if (std::memcmp(page.data(), theirs.data(), kPageSize) != 0)
                return false;
        }
        return true;
    };
    return covers(*this, other) && covers(other, *this);
}

double
SparseMemory::readDouble(Addr addr) const
{
    return std::bit_cast<double>(read(addr, 8));
}

void
SparseMemory::writeDouble(Addr addr, double v)
{
    write(addr, 8, std::bit_cast<std::uint64_t>(v));
}

} // namespace sciq
