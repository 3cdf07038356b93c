/**
 * @file
 * A cycle-ordered event queue used by the memory hierarchy to schedule
 * lookups, fill completions, bandwidth slots and MSHR retries.
 */

#ifndef SCIQ_COMMON_EVENT_QUEUE_HH
#define SCIQ_COMMON_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <queue>
#include <type_traits>
#include <vector>

#include "logging.hh"
#include "types.hh"

namespace sciq {

/**
 * Receiver of typed events.  An event names its target, a kind that
 * only the target interprets and one argument word; handleEvent runs
 * when the event fires.  Memory replies (MemReply, mem/cache.hh) reach
 * their sink through the same entry point.
 */
class EventTarget
{
  public:
    virtual void handleEvent(Cycle when, unsigned kind,
                             std::uint64_t arg) = 0;

  protected:
    ~EventTarget() = default;
};

/**
 * Min-heap of (cycle, target, kind, argument) event records.
 *
 * Events scheduled for the same cycle fire in FIFO order of scheduling,
 * which keeps the simulation deterministic.  schedule() returns a ticket
 * naming the event's place in that order; isLastScheduledFor() asks
 * whether an event is still the newest one for its cycle, which lets a
 * client append work to an already-scheduled event instead of
 * scheduling another one right behind it, without changing what runs
 * in which order.  Records are plain data, so scheduling never
 * allocates once the heap's storage has grown to the peak population.
 */
class EventQueue
{
  public:
    /** Scheduling-order position of an event; unique and increasing. */
    using Ticket = std::uint64_t;

    /**
     * Schedule `target->handleEvent(when, kind, arg)` at the given
     * absolute cycle.  A null target still takes its ticket and fires
     * as a no-op, so discarded replies keep the order of everything
     * scheduled after them.
     */
    Ticket
    schedule(Cycle when, EventTarget *target, unsigned kind,
             std::uint64_t arg = 0)
    {
        SCIQ_ASSERT(when >= now, "scheduling event in the past (%llu < %llu)",
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(now));
        const Ticket ticket = nextTieBreaker++;
        lastFor[when % kLastSlots] = LastScheduled{when, ticket};
        heap.push(Event{when, ticket, target, arg, kind});
        return ticket;
    }

    /**
     * True if `ticket`, scheduled for `when`, is the most recently
     * scheduled event for that cycle, so that an event scheduled now
     * for `when` would run immediately after it.  The bookkeeping is a
     * small direct-mapped table keyed by cycle: when another cycle
     * aliasing `when` has been scheduled since, the answer is a
     * conservative false, never a wrong true.  It says nothing about
     * whether the event has already run.
     */
    bool
    isLastScheduledFor(Cycle when, Ticket ticket) const
    {
        const LastScheduled &last = lastFor[when % kLastSlots];
        return last.when == when && last.ticket == ticket;
    }

    /** Run all events scheduled at or before `upto`, advancing time. */
    void
    runUntil(Cycle upto)
    {
        while (!heap.empty() && heap.top().when <= upto) {
            // Copy out before pop: the handler may schedule new events.
            const Event ev = heap.top();
            heap.pop();
            now = ev.when;
            if (ev.target)
                ev.target->handleEvent(ev.when, ev.kind, ev.arg);
        }
        now = upto;
    }

    /** Current simulated cycle (last advanced-to point). */
    Cycle curCycle() const { return now; }

    bool empty() const { return heap.empty(); }
    std::size_t size() const { return heap.size(); }

    /** Cycle of the earliest pending event (kCycleNever if empty). */
    Cycle
    nextEventCycle() const
    {
        return heap.empty() ? kCycleNever : heap.top().when;
    }

  private:
    struct Event
    {
        Cycle when;
        Ticket order;
        EventTarget *target;
        std::uint64_t arg;
        unsigned kind;

        bool
        operator>(const Event &o) const
        {
            if (when != o.when)
                return when > o.when;
            return order > o.order;
        }
    };

    static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 40);

    /** Newest ticket scheduled for a cycle, in slot `when % kLastSlots`. */
    struct LastScheduled
    {
        Cycle when = kCycleNever;
        Ticket ticket = 0;
    };

    static constexpr std::size_t kLastSlots = 64;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    std::array<LastScheduled, kLastSlots> lastFor{};
    Cycle now = 0;
    Ticket nextTieBreaker = 0;
};

} // namespace sciq

#endif // SCIQ_COMMON_EVENT_QUEUE_HH
