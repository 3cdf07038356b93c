/**
 * @file
 * Fixed-capacity circular FIFO used for the ROB, LSQ and pipeline
 * latches.  Supports removal from the tail (squash) as well as the head
 * (commit), which std::deque would allow but without the capacity bound
 * these structures model.  Logs whose bound is not modelled (undo logs,
 * drain queues) append with pushBackGrow(), which doubles the storage
 * when full; either way the storage is kept, so a queue in steady
 * state never allocates.
 */

#ifndef SCIQ_COMMON_CIRCULAR_QUEUE_HH
#define SCIQ_COMMON_CIRCULAR_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "logging.hh"

namespace sciq {

template <typename T>
class CircularQueue
{
  public:
    explicit CircularQueue(std::size_t capacity = 0)
        : buf(capacity ? capacity : 1), cap(capacity)
    {
    }

    void
    setCapacity(std::size_t capacity)
    {
        SCIQ_ASSERT(empty(), "resizing a non-empty queue");
        cap = capacity;
        buf.assign(capacity ? capacity : 1, T{});
        head = 0;
        count = 0;
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    std::size_t freeEntries() const { return cap - count; }

    /** Append at the tail (youngest end). */
    void
    pushBack(T v)
    {
        SCIQ_ASSERT(!full(), "push to full queue");
        buf[wrap(head + count)] = std::move(v);
        ++count;
    }

    /** Raise the capacity to at least `capacity`, keeping the contents. */
    void
    reserve(std::size_t capacity)
    {
        if (capacity <= cap)
            return;
        std::vector<T> grown(capacity);
        for (std::size_t i = 0; i < count; ++i)
            grown[i] = std::move(buf[wrap(head + i)]);
        buf = std::move(grown);
        cap = capacity;
        head = 0;
    }

    /** Append at the tail, doubling the capacity first if full. */
    void
    pushBackGrow(T v)
    {
        if (full())
            reserve(std::max<std::size_t>(2 * cap, 8));
        pushBack(std::move(v));
    }

    /** Remove from the head (oldest end). */
    T
    popFront()
    {
        SCIQ_ASSERT(!empty(), "pop from empty queue");
        T v = std::move(buf[head]);
        head = wrap(head + 1);
        --count;
        return v;
    }

    /** Remove from the tail (youngest end) - used when squashing. */
    T
    popBack()
    {
        SCIQ_ASSERT(!empty(), "popBack from empty queue");
        --count;
        return std::move(buf[wrap(head + count)]);
    }

    T &front() { return at(0); }
    const T &front() const { return at(0); }
    T &back() { return at(count - 1); }
    const T &back() const { return at(count - 1); }

    /** Element i positions from the head (0 = oldest). */
    T &
    at(std::size_t i)
    {
        SCIQ_ASSERT(i < count, "index %zu out of range (size %zu)", i,
                    count);
        return buf[wrap(head + i)];
    }

    const T &
    at(std::size_t i) const
    {
        SCIQ_ASSERT(i < count, "index %zu out of range (size %zu)", i,
                    count);
        return buf[wrap(head + i)];
    }

    /** Unchecked element access for bounds-established hot loops. */
    T &operator[](std::size_t i) { return buf[wrap(head + i)]; }
    const T &operator[](std::size_t i) const { return buf[wrap(head + i)]; }

    void
    clear()
    {
        // Resetting the live slots (not just the indices) matters for
        // owning element types: a CircularQueue<DynInstPtr> that only
        // forgot its indices would pin every DynInstPool slot it ever
        // held until the same position was overwritten again.
        for (std::size_t i = 0; i < count; ++i)
            buf[wrap(head + i)] = T{};
        head = 0;
        count = 0;
    }

  private:
    /**
     * Buffer position of logical index `i`.  Every caller passes head
     * plus an offset below the buffer size, so i < 2 * buf.size() and
     * one conditional subtract replaces the modulo's division.
     */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf.size() ? i - buf.size() : i;
    }

    std::vector<T> buf;
    std::size_t cap = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace sciq

#endif // SCIQ_COMMON_CIRCULAR_QUEUE_HH
