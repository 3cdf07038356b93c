/**
 * @file
 * Slab/free-list recycler for DynInst storage.  Every core owns one
 * pool; instructions retired at commit or killed by a squash return
 * their storage to the free list and the next fetch reuses it, so the
 * steady-state fetch path performs no heap allocation at all.
 *
 * The pool is deliberately not thread-safe: a DynInst never leaves the
 * core that fetched it, and concurrent sweep workers each drive their
 * own core (and therefore their own pool).
 */

#ifndef SCIQ_CORE_DYN_INST_POOL_HH
#define SCIQ_CORE_DYN_INST_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/logging.hh"
#include "core/dyn_inst.hh"

namespace sciq {

class DynInstPool
{
  public:
    explicit DynInstPool(std::size_t insts_per_slab = 256)
        : slabInsts_(insts_per_slab ? insts_per_slab : 1)
    {
    }

    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    ~DynInstPool()
    {
        if (live_ != 0) {
            // Ownership bug: a DynInstPtr outlived its pool.  Leak the
            // slabs so the outstanding pointers stay readable rather
            // than dangling into freed memory.
            warn("DynInstPool destroyed with %zu live instructions",
                 live_);
            for (auto &slab : slabs_)
                slab.release();
        }
    }

    /** Hand out a default-constructed instruction, reusing storage. */
    DynInstPtr
    create()
    {
        void *slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            ++reused_;
        } else {
            slot = freshSlot();
            ++allocated_;
        }
        DynInst *inst = new (slot) DynInst;
        inst->pool_ = this;
        ++live_;
        return DynInstPtr(inst);
    }

    /**
     * Hand out a recycled fetch checkpoint, or null when none is
     * banked.  Checkpoints are salvaged from dying instructions in
     * recycle(), so the steady-state mispredict fetch path reuses
     * the ~0.5 KiB register-snapshot allocation instead of paying
     * new/delete per mispredicted branch.  Every field is overwritten by the
     * caller, so no clearing is needed here.
     */
    std::unique_ptr<FetchCheckpoint>
    takeCheckpoint()
    {
        if (ckptFree_.empty())
            return nullptr;
        auto ckpt = std::move(ckptFree_.back());
        ckptFree_.pop_back();
        return ckpt;
    }

    std::size_t liveCount() const { return live_; }
    std::size_t slabCount() const { return slabs_.size(); }
    std::uint64_t slotsAllocated() const { return allocated_; }
    std::uint64_t slotsReused() const { return reused_; }

  private:
    friend class DynInstPtr;

    /** Called by DynInstPtr when the last reference dies. */
    void
    recycle(DynInst *inst)
    {
        if (inst->checkpoint && ckptFree_.size() < kCkptFreeCap)
            ckptFree_.push_back(std::move(inst->checkpoint));
        inst->~DynInst();
        free_.push_back(inst);
        SCIQ_ASSERT(live_ > 0, "DynInstPool recycle underflow");
        --live_;
    }

    void *
    freshSlot()
    {
        if (nextInSlab_ == slabInsts_ || slabs_.empty()) {
            slabs_.emplace_back(
                new std::byte[slabInsts_ * sizeof(DynInst)]);
            nextInSlab_ = 0;
        }
        std::byte *base = slabs_.back().get();
        return base + (nextInSlab_++) * sizeof(DynInst);
    }

    /** Bound on banked checkpoints: more in-flight control insts than
     *  this implies an ROB far larger than any swept configuration. */
    static constexpr std::size_t kCkptFreeCap = 512;

    std::size_t slabInsts_;
    std::size_t nextInSlab_ = 0;
    std::vector<std::unique_ptr<std::byte[]>> slabs_;
    std::vector<void *> free_;
    std::vector<std::unique_ptr<FetchCheckpoint>> ckptFree_;
    std::size_t live_ = 0;
    std::uint64_t allocated_ = 0;
    std::uint64_t reused_ = 0;
};

} // namespace sciq

#endif // SCIQ_CORE_DYN_INST_POOL_HH
