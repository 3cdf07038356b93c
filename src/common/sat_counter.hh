/**
 * @file
 * Saturating counter, the workhorse of every table-based predictor.
 */

#ifndef SCIQ_COMMON_SAT_COUNTER_HH
#define SCIQ_COMMON_SAT_COUNTER_HH

#include <cstdint>
#include <vector>

#include "logging.hh"
#include "serialize.hh"

namespace sciq {

/**
 * An n-bit saturating up/down counter.
 *
 * Used by the branch predictor (2- and 3-bit counters), the left/right
 * operand predictor (2-bit) and the hit/miss predictor (4-bit).
 */
class SatCounter
{
  public:
    SatCounter() = default;

    /**
     * @param num_bits Width of the counter (1..16).
     * @param initial Initial value (clamped to the maximum).
     */
    explicit SatCounter(unsigned num_bits, unsigned initial = 0)
        : maxVal((1u << num_bits) - 1),
          value(initial > maxVal ? maxVal : initial)
    {
        SCIQ_ASSERT(num_bits >= 1 && num_bits <= 16,
                    "counter width %u out of range", num_bits);
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        if (value < maxVal)
            ++value;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (value > 0)
            --value;
    }

    /** Reset to zero (the hit/miss predictor clears on a miss). */
    void reset() { value = 0; }

    /** Set to an explicit value (clamped). */
    void set(unsigned v) { value = v > maxVal ? maxVal : v; }

    /** Current count. */
    unsigned read() const { return value; }

    /** Maximum representable count. */
    unsigned max() const { return maxVal; }

    /** True if the counter is in its upper half (taken / hit / left). */
    bool isSet() const { return value > maxVal / 2; }

  private:
    unsigned maxVal = 3;
    unsigned value = 0;
};

/**
 * Save a counter table as its u64 size and one byte per counter, the
 * bytes written through one span.
 */
inline void
saveCounters(serial::Writer &w, const std::vector<SatCounter> &table)
{
    w.u64(table.size());
    char *p = w.span(table.size());
    for (const SatCounter &c : table)
        *p++ = static_cast<char>(c.read());
}

/**
 * Restore what saveCounters wrote; the size must match the configured
 * one (serial::Error "<what> mismatch: ...").  One bounds check for
 * the whole table.
 */
inline void
restoreCounters(serial::Reader &r, std::vector<SatCounter> &table,
                const char *what)
{
    r.expectCount(table.size(), what);
    const char *p = r.span(table.size());
    for (SatCounter &c : table)
        c.set(static_cast<std::uint8_t>(*p++));
}

} // namespace sciq

#endif // SCIQ_COMMON_SAT_COUNTER_HH
