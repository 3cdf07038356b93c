/**
 * @file
 * Event targets for the event-queue and memory tests: a sink that
 * records what reaches it, and a target that runs test code as events.
 */

#ifndef SCIQ_TESTS_EVENT_HARNESS_HH
#define SCIQ_TESTS_EVENT_HARNESS_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/event_queue.hh"

namespace sciq::test {

/** Records every event it receives, in firing order. */
class Recorder : public EventTarget
{
  public:
    struct Fired
    {
        Cycle when;
        unsigned kind;
        std::uint64_t arg;
    };

    void
    handleEvent(Cycle when, unsigned kind, std::uint64_t arg) override
    {
        fired.push_back({when, kind, arg});
    }

    /** The arguments of the events received, in order. */
    std::vector<std::uint64_t>
    args() const
    {
        std::vector<std::uint64_t> out;
        for (const Fired &f : fired)
            out.push_back(f.arg);
        return out;
    }

    std::vector<Fired> fired;
};

/** Runs test code as events; an event's argument names its action. */
class Actions : public EventTarget
{
  public:
    /** Schedule `fn` on `ev` at `when`; returns the event's ticket. */
    EventQueue::Ticket
    at(EventQueue &ev, Cycle when, std::function<void()> fn)
    {
        fns.push_back(std::move(fn));
        return ev.schedule(when, this, 0, fns.size() - 1);
    }

    void
    handleEvent(Cycle, unsigned, std::uint64_t arg) override
    {
        fns[arg]();
    }

  private:
    std::deque<std::function<void()>> fns;  ///< stable across at()
};

} // namespace sciq::test

#endif // SCIQ_TESTS_EVENT_HARNESS_HH
