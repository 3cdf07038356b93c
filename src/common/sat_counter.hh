/**
 * @file
 * Saturating counter, the workhorse of every table-based predictor.
 */

#ifndef SCIQ_COMMON_SAT_COUNTER_HH
#define SCIQ_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "logging.hh"

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
        : maxVal(static_cast<std::uint16_t>((1u << num_bits) - 1)),
          value(static_cast<std::uint16_t>(initial > maxVal ? maxVal
                                                            : initial))
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
    void
    set(unsigned v)
    {
        value = v > maxVal ? maxVal : static_cast<std::uint16_t>(v);
    }

    /** Current count. */
    unsigned read() const { return value; }

    /** Maximum representable count. */
    unsigned max() const { return maxVal; }

    /** True if the counter is in its upper half (taken / hit / left). */
    bool isSet() const { return value > maxVal / 2; }

    bool operator==(const SatCounter &) const = default;

  private:
    // Two bytes each (widths up to 16 bits) keeps the predictor
    // tables, and every shared warm state's copy of them, small.
    std::uint16_t maxVal = 3;
    std::uint16_t value = 0;
};

} // namespace sciq

#endif // SCIQ_COMMON_SAT_COUNTER_HH
