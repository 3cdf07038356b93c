/**
 * @file
 * Return address stack with checkpoint/restore for squash recovery.
 */

#ifndef SCIQ_BRANCH_RAS_HH
#define SCIQ_BRANCH_RAS_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sciq {

class ReturnAddressStack
{
  public:
    /** Snapshot = (top-of-stack index, value at top). */
    struct Snapshot
    {
        unsigned tos = 0;
        Addr topValue = 0;
    };

    explicit ReturnAddressStack(unsigned entries = 32)
        : stack(entries, 0)
    {
    }

    void
    push(Addr return_pc)
    {
        tos = (tos + 1) % stack.size();
        stack[tos] = return_pc;
    }

    Addr
    pop()
    {
        Addr v = stack[tos];
        tos = (tos + stack.size() - 1) % stack.size();
        return v;
    }

    Addr peek() const { return stack[tos]; }

    Snapshot
    snapshot() const
    {
        return {tos, stack[tos]};
    }

    void
    restore(const Snapshot &snap)
    {
        tos = snap.tos;
        stack[tos] = snap.topValue;
    }

    /** The warm state: the full stack and the top-of-stack index. */
    struct State
    {
        std::vector<Addr> stack;
        unsigned tos = 0;

        bool operator==(const State &) const = default;
    };

    State capture() const { return {stack, tos}; }

    /** Replace the warm state with `s`, of the same depth. */
    void
    adopt(const State &s)
    {
        SCIQ_ASSERT(s.stack.size() == stack.size(),
                    "RAS warm state of depth %zu, configured %zu",
                    s.stack.size(), stack.size());
        stack = s.stack;
        tos = s.tos;
    }

  private:
    std::vector<Addr> stack;
    unsigned tos = 0;
};

} // namespace sciq

#endif // SCIQ_BRANCH_RAS_HH
