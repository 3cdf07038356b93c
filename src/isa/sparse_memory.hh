/**
 * @file
 * Sparse byte-addressable simulated memory backed by 4 KiB pages.
 * Untouched locations read as zero, and any 64-bit address is legal,
 * which matters because wrong-path execution may compute wild addresses.
 */

#ifndef SCIQ_ISA_SPARSE_MEMORY_HH
#define SCIQ_ISA_SPARSE_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "common/types.hh"

namespace sciq {

class SparseMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr Addr kPageSize = 1ULL << kPageShift;

    /** Read `size` (1..8) bytes little-endian; zero for untouched. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low `size` (1..8) bytes of val little-endian. */
    void write(Addr addr, unsigned size, std::uint64_t val);

    /** Bulk write (used to load program data segments). */
    void writeBlob(Addr addr, const std::uint8_t *data, std::size_t len);

    /** Bulk read. */
    void readBlob(Addr addr, std::uint8_t *data, std::size_t len) const;

    /** Convenience: read/write an IEEE-754 double. */
    double readDouble(Addr addr) const;
    void writeDouble(Addr addr, double v);

    /** Number of allocated pages (for tests). */
    std::size_t numPages() const { return pages.size(); }

    /**
     * Host pointer to the page holding `addr`, or nullptr when the
     * page is untouched.  Never allocates: a read of an absent page
     * must stay invisible to numPages() (a warm state's image holds
     * exactly the allocated pages).
     * The pointer stays valid until clear() or an assignment: unordered_map
     * never moves mapped values on insertion.
     */
    std::uint8_t *
    pageData(Addr addr)
    {
        auto it = pages.find(addr >> kPageShift);
        return it == pages.end() ? nullptr : it->second.data();
    }

    const std::uint8_t *
    pageData(Addr addr) const
    {
        auto it = pages.find(addr >> kPageShift);
        return it == pages.end() ? nullptr : it->second.data();
    }

    /** Host pointer to the page holding `addr`, zero-filled on demand. */
    std::uint8_t *
    pageDataForWrite(Addr addr)
    {
        return getPage(addr).data();
    }

    /**
     * Content equality: untouched pages compare equal to all-zero
     * pages, so two memories match iff every byte matches.
     */
    bool equalContents(const SparseMemory &other) const;

    void clear() { pages.clear(); }

  private:
    /**
     * A page's bytes.  Construction leaves them unwritten, so each
     * byte is written once: getPage() zero-fills a new page.
     */
    struct Page : std::array<std::uint8_t, kPageSize>
    {
        Page() {}
    };

    const Page *findPage(Addr addr) const;
    Page &getPage(Addr addr);

    std::unordered_map<Addr, Page> pages;
};

} // namespace sciq

#endif // SCIQ_ISA_SPARSE_MEMORY_HH
