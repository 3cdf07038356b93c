/**
 * @file
 * Return address stack with checkpoint/restore for squash recovery.
 */

#ifndef SCIQ_BRANCH_RAS_HH
#define SCIQ_BRANCH_RAS_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
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

    /** Serialize the full stack contents and top-of-stack index. */
    void
    save(serial::Writer &w) const
    {
        w.u64(stack.size());
        char *p = w.span(stack.size(), 8);
        for (Addr a : stack) {
            serial::storeLe<std::uint64_t>(p, a);
            p += 8;
        }
        w.u32(tos);
    }

    /** Restore a full snapshot; the depth must match (serial::Error). */
    void
    restore(serial::Reader &r)
    {
        r.expectCount(stack.size(), "RAS depth");
        const char *p = r.span(stack.size(), 8);
        for (Addr &a : stack) {
            a = serial::loadLe<std::uint64_t>(p);
            p += 8;
        }
        tos = r.u32();
    }

  private:
    std::vector<Addr> stack;
    unsigned tos = 0;
};

} // namespace sciq

#endif // SCIQ_BRANCH_RAS_HH
