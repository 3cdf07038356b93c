#include "audit.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/errors.hh"
#include "common/logging.hh"
#include "core/ooo_core.hh"
#include "iq/ideal_iq.hh"
#include "iq/segmented_iq.hh"

namespace sciq {

Auditor::Auditor(bool panic_on_violation)
    : panicOnViolation_(panic_on_violation), group_("audit")
{
    group_.addScalar("cycles_audited", &cyclesAudited,
                     "cycles the invariant auditor ran");
    group_.addScalar("negative_delay", &negativeDelay,
                     "chain-member delay values below zero");
    group_.addScalar("segment_overflow", &segmentOverflow,
                     "segment occupancy above capacity");
    group_.addScalar("promotion_bound", &promotionBound,
                     "promotions above the prev-cycle free bound");
    group_.addScalar("issue_over_width", &issueOverWidth,
                     "cycles issuing more than the issue width");
    group_.addScalar("wire_delivery", &wireDelivery,
                     "chain-wire signals missed past their arrival cycle");
    group_.addScalar("pool_bound", &poolBound,
                     "cycles with leaked DynInstPool slots");
    group_.addScalar("occ_index", &occIndex,
                     "O(1) occupancy counters disagreeing with a rescan");
    group_.addScalar("promo_index", &promoIndex,
                     "promotion-candidate indices disagreeing with a rescan");
    group_.addScalar("sub_index", &subIndex,
                     "chain subscriber indices disagreeing with a rescan");
    group_.addScalar("countdown_index", &countdownIndex,
                     "self-timed countdown lists disagreeing with a rescan");
    group_.addScalar("ready_index", &readyIndex,
                     "ideal ready-list entries disagreeing with a rescan");
    group_.addScalar("wb_ring_bound", &wbRingBound,
                     "writeback-ring population diverging from in-flight");
    group_.addScalar("mshr_wait_index", &mshrWaitIndex,
                     "bulk-failed MSHR waiters a per-miss retry would not "
                     "have failed");
    group_.addScalar("arrival_index", &arrivalIndex,
                     "chain-wire listeners not due by their next signal's "
                     "arrival");
    group_.addScalar("expiry_index", &expiryIndex,
                     "signal logs without an expiry record by their front");
}

void
Auditor::attach(OooCore &core)
{
    core.statGroup().addChild(&group_);
    core.iqUnit().setAuditTracking(true);
    MemHierarchy &mem = core.memHierarchy();
    for (Cache *cache : {&mem.icache(), &mem.dcache(), &mem.l2cache()})
        cache->setAuditWaiters(true);
    core.setCycleHook([this](OooCore &c, Cycle cycle) {
        auditCycle(c, cycle);
    });
}

void
Auditor::report(const char *invariant, Cycle cycle, const std::string &detail)
{
    if (panicOnViolation_) {
        throw InvariantError("audit: invariant '" + std::string(invariant) +
                                 "' violated at cycle " +
                                 std::to_string(cycle),
                             detail);
    }
    warn("audit: invariant '%s' violated at cycle %llu\n%s", invariant,
         static_cast<unsigned long long>(cycle), detail.c_str());
}

void
Auditor::auditCycle(OooCore &core, Cycle cycle)
{
    cyclesAudited.inc();

    if (core.issuedThisCycleCount > core.params.iq.issueWidth) {
        violation(issueOverWidth, "issue <= issueWidth", cycle, [&] {
            std::ostringstream os;
            core.debugDump(os);
            return "issued " + std::to_string(core.issuedThisCycleCount) +
                " > width " + std::to_string(core.params.iq.issueWidth) +
                "\n" + os.str();
        });
    }

    // Everything holding a DynInstPtr is bounded: the ROB, the front-end
    // queue, and completed-but-squashed instructions draining through
    // the writeback queue (themselves once-ROB residents).  Twice the
    // ROB plus the front end is a deliberately generous but *finite*
    // ceiling: a storage leak (e.g. a container pinning recycled slots)
    // grows monotonically and crosses it quickly.
    const std::size_t pool_cap =
        2 * static_cast<std::size_t>(core.params.robSize) +
        core.frontEndQueue.capacity();
    if (core.instPool.liveCount() > pool_cap) {
        violation(poolBound, "pool live count <= window bound", cycle, [&] {
            std::ostringstream os;
            core.debugDump(os);
            return "live " + std::to_string(core.instPool.liveCount()) +
                " > bound " + std::to_string(pool_cap) + "\n" + os.str();
        });
    }

    // The writeback ring holds exactly the issued-but-not-yet-written-
    // back instructions (squashed ones included; they drain normally).
    std::size_t wb_pop = 0;
    for (const auto &bucket : core.wbRing)
        wb_pop += bucket.size();
    if (wb_pop != core.inFlightExec) {
        violation(wbRingBound, "writeback ring population == in-flight",
                  cycle, [&] {
                      return "ring holds " + std::to_string(wb_pop) +
                          " but inFlightExec=" +
                          std::to_string(core.inFlightExec);
                  });
    }

    // The caches re-check each bulk failure as it happens (its line
    // absent from the MSHR file, the file full); report the new ones.
    MemHierarchy &mem = core.memHierarchy();
    std::uint64_t mshr_wait = 0;
    for (Cache *cache : {&mem.icache(), &mem.dcache(), &mem.l2cache()})
        mshr_wait += cache->mshrWaitMismatches();
    while (mshrWaitSeen_ < mshr_wait) {
        ++mshrWaitSeen_;
        violation(mshrWaitIndex, "bulk-failed MSHR waiter really fails",
                  cycle, [&] {
                      return "a cache failed a parked miss in bulk while its "
                          "line had an MSHR or one was free";
                  });
    }

    if (auto *seg = dynamic_cast<SegmentedIq *>(core.iq.get())) {
        auditSegmented(*seg, cycle);
        auditDispatchWindow(*seg, core, cycle);
    }
    else if (auto *ideal = dynamic_cast<IdealIq *>(core.iq.get()))
        auditIdeal(*ideal, cycle);
}

bool
Auditor::corruptEligibilityBitForTest(SegmentedIq &iq)
{
    auto &pool = iq.pool;
    for (unsigned slot = 0; slot < iq.poolSize; ++slot) {
        bool quiet = pool.seg[slot] == 0 &&
                     !(iq.scoreboard.isReady(pool.src[0][slot]) &&
                       iq.scoreboard.isReady(pool.src[1][slot]));
        for (int m = 0; quiet && m < pool.memCount[slot]; ++m) {
            quiet = pool.due[m][slot] == SegmentedIq::kNotDue &&
                    !((pool.cdBits[m][slot >> 6] >> (slot & 63)) & 1);
        }
        if (quiet) {
            pool.eligBits[slot >> 6] |= 1ULL << (slot & 63);
            return true;
        }
    }
    return false;
}

void
Auditor::auditSegmented(SegmentedIq &iq, Cycle cycle)
{
    const unsigned n = iq.numSegments();
    const auto &pool = iq.pool;

    auto segDump = [&iq](unsigned k) {
        std::ostringstream os;
        iq.dumpSegment(os, k);
        return os.str();
    };

    // Residents of each segment in age order, with their pool slot.
    struct Resident
    {
        const DynInst *inst;
        unsigned slot;
    };
    std::vector<std::vector<Resident>> residents(n);

    // Pool structure: every occupied slot is in exactly one segment
    // mask, the one its label names, and holds a handle; free slots
    // are in none, hold no handle and have no calendar entry; each
    // segment's count is its popcount.
    const std::size_t cap = iq.poolSize;
    const std::size_t words = iq.poolWords;
    for (unsigned k = 0; k < n; ++k) {
        unsigned pop = 0;
        for (std::size_t w = 0; w < words; ++w)
            pop += static_cast<unsigned>(std::popcount(iq.segWord(k, w)));
        if (pop != iq.segCount[k]) {
            violation(occIndex, "segment count == mask popcount", cycle, [&] {
                return "segment " + std::to_string(k) + " counts " +
                    std::to_string(iq.segCount[k]) + ", mask has " +
                    std::to_string(pop);
            });
        }
        for (std::size_t w = 0; w < iq.summaryWords * 64; ++w) {
            const auto bit = [&](const std::uint64_t *row) {
                return ((row[w >> 6] >> (w & 63)) & 1) != 0;
            };
            const std::uint64_t seg_w = w < words ? iq.segWord(k, w) : 0;
            if (bit(iq.segRow(k)) != (seg_w != 0)) {
                violation(occIndex,
                          "segment summary marks its non-empty words",
                          cycle, [&] {
                              return "segment " + std::to_string(k) +
                                  " word " + std::to_string(w) + " marked " +
                                  std::to_string(bit(iq.segRow(k)));
                          });
            }
        }
    }
    for (std::size_t slot = 0; slot < words * 64; ++slot) {
        unsigned in_masks = 0;
        unsigned last = n;
        for (unsigned k = 0; k < n; ++k) {
            if ((iq.segWord(k, slot >> 6) >> (slot & 63)) & 1) {
                ++in_masks;
                last = k;
            }
        }
        const bool occupied =
            slot < cap && pool.seg[slot] != SegmentedIq::kFreeSlot;
        const bool ok =
            occupied ? in_masks == 1 && last == pool.seg[slot] &&
                           pool.inst[slot]
                     : in_masks == 0 &&
                           (slot >= cap ||
                            (!pool.inst[slot] &&
                             pool.due[0][slot] == SegmentedIq::kNotDue &&
                             pool.due[1][slot] == SegmentedIq::kNotDue));
        if (!ok) {
            violation(occIndex,
                      "occupied slot is in exactly one segment mask",
                      cycle, [&] {
                          return "slot " + std::to_string(slot) + " label " +
                              (slot < cap ? std::to_string(pool.seg[slot])
                                          : std::string("none")) +
                              " in " + std::to_string(in_masks) + " masks";
                      });
        }
    }
    // Age order: slot i holds dispatch positions congruent to i, so
    // occupied slots read circularly from the cursor are seq-sorted.
    const SeqNum *prev = nullptr;
    for (std::size_t i = 0; i < cap; ++i) {
        const std::size_t slot = (iq.cursor + i) % cap;
        if (pool.seg[slot] == SegmentedIq::kFreeSlot ||
            pool.seg[slot] >= n || !pool.inst[slot])
            continue;
        if (prev && *prev >= pool.seq[slot]) {
            violation(occIndex, "slot order from the cursor is age order",
                      cycle, [&] {
                          return "slot " + std::to_string(slot) + " seq " +
                              std::to_string(pool.seq[slot]) + " after " +
                              std::to_string(*prev) + " (cursor " +
                              std::to_string(iq.cursor) + ")";
                      });
        }
        prev = &pool.seq[slot];
        residents[pool.seg[slot]].push_back(
            {pool.inst[slot].get(), static_cast<unsigned>(slot)});
    }

    for (unsigned k = 0; k < n; ++k) {
        if (residents[k].size() > iq.params.segmentSize) {
            violation(segmentOverflow, "segment occupancy <= capacity",
                      cycle, [&] {
                          return "segment " + std::to_string(k) + " holds " +
                              std::to_string(residents[k].size()) + " > " +
                              std::to_string(iq.params.segmentSize) + "\n" +
                              segDump(k);
                      });
        }

        for (const Resident &res : residents[k]) {
            const DynInst *inst = res.inst;
            const unsigned slot = res.slot;

            const SegmentedIq::Plan &dispatched = iq.dispatchPlan[slot];
            if (pool.seq[slot] != inst->seq ||
                static_cast<int>(pool.memCount[slot]) !=
                    dispatched.numMemberships ||
                pool.headChain[slot] != inst->seg.headedChain ||
                pool.headGen[slot] != inst->seg.headedGen) {
                violation(occIndex,
                          "lane identity matches its instruction", cycle, [&] {
                              return "seq " + std::to_string(inst->seq) +
                                  " lane seq " +
                                  std::to_string(pool.seq[slot]) +
                                  " memCount " +
                                  std::to_string(pool.memCount[slot]) +
                                  " heads " +
                                  std::to_string(pool.headChain[slot]);
                          });
                continue;  // lane reads below would be unreliable
            }
            const auto srcs = iq.iqSources(*inst);
            if (pool.src[0][slot] != srcs[0] ||
                pool.src[1][slot] != srcs[1]) {
                violation(occIndex, "lane operands match the instruction",
                          cycle, [&] {
                              return "seq " + std::to_string(inst->seq) +
                                  " in segment " + std::to_string(k);
                          });
            }

            for (int m = 0; m < dispatched.numMemberships; ++m) {
                const int delay = pool.delay[m][slot];
                const ChainId chain = pool.chain[m][slot];
                const std::uint32_t gen = pool.gen[m][slot];
                const std::uint64_t applied = pool.applied[m][slot];
                // Chain identity is fixed at dispatch; the lane and the
                // insert plan must agree for ever.
                const ChainMembership &mir = dispatched.memberships[m];
                if (chain != mir.chain || gen != mir.gen) {
                    violation(occIndex,
                              "lane chain identity matches dispatch", cycle,
                              [&] {
                                  return "seq " + std::to_string(inst->seq) +
                                      " membership " + std::to_string(m) +
                                      " lane chain " + std::to_string(chain) +
                                      " dispatched " +
                                      std::to_string(mir.chain);
                              });
                }

                if (delay < 0) {
                    violation(negativeDelay, "chain delay >= 0", cycle, [&] {
                        return "seq " + std::to_string(inst->seq) +
                            " membership " + std::to_string(m) + " delay " +
                            std::to_string(delay) + "\n" + segDump(k);
                    });
                }

                // Chain-wire exactness: every signal is applied on the
                // cycle it becomes visible at this segment.  A signal
                // generated at cycle g from segment o reaches segment s
                // at g + max(0, s - o); anything still unapplied a full
                // cycle past that arrival was missed by delivery.
                // (Signals generated after this cycle's delivery pass -
                // e.g. load-resume events from the LSQ - are legitimately
                // pending, hence the strict comparison.)
                if (chain == kNoChain)
                    continue;
                const auto &cs = iq.stateOf(chain);
                if (cs.gen != gen)
                    continue;
                if (applied > cs.seqCounter) {
                    violation(wireDelivery,
                              "applied signal count <= signals generated",
                              cycle, [&] {
                                  return "seq " + std::to_string(inst->seq) +
                                      " applied " + std::to_string(applied) +
                                      " > " + std::to_string(cs.seqCounter) +
                                      "\n" + segDump(k);
                              });
                }
                for (std::size_t si = 0; si < cs.log.size(); ++si) {
                    const auto &sig = cs.log.at(si);
                    if (sig.seq <= applied)
                        continue;
                    const Cycle lag =
                        static_cast<int>(k) > sig.originSegment
                            ? static_cast<Cycle>(static_cast<int>(k) -
                                                 sig.originSegment)
                            : 0;
                    if (sig.cycle + lag < cycle) {
                        violation(
                            wireDelivery,
                            "chain-wire signals arrive on schedule", cycle,
                                  [&] {
                                      return "seq " +
                                          std::to_string(inst->seq) +
                                          " in segment " + std::to_string(k) +
                                          " missed signal " +
                                          std::to_string(sig.seq) +
                                          " of chain " +
                                          std::to_string(chain) +
                                          " (generated cycle " +
                                          std::to_string(sig.cycle) +
                                          " at segment " +
                                          std::to_string(sig.originSegment) +
                                          ")\n" + segDump(k);
                                  });
                    }
                }
            }
        }
    }

    // The dispatch-stage register table listens at the top segment.
    {
        const int top = static_cast<int>(n) - 1;
        for (std::size_t r = 0; r < iq.regInfo.size(); ++r) {
            const auto &e = iq.regInfo[r];
            if (!e.pending || e.chain == kNoChain)
                continue;
            const auto &cs = iq.stateOf(e.chain);
            if (cs.gen != e.gen)
                continue;
            for (std::size_t si = 0; si < cs.log.size(); ++si) {
                const auto &sig = cs.log.at(si);
                if (sig.seq <= e.appliedSeq)
                    continue;
                const Cycle lag =
                    top > sig.originSegment
                        ? static_cast<Cycle>(top - sig.originSegment)
                        : 0;
                if (sig.cycle + lag < cycle) {
                    violation(wireDelivery,
                              "chain-wire signals arrive on schedule",
                              cycle, [&] {
                                  return "regInfo[" + std::to_string(r) +
                                      "] missed signal " +
                                      std::to_string(sig.seq) + " of chain " +
                                      std::to_string(e.chain) +
                                      " (generated cycle " +
                                      std::to_string(sig.cycle) +
                                      " at segment " +
                                      std::to_string(sig.originSegment) + ")";
                              });
                }
            }
        }
    }

    // Promotion respects the previous-cycle free count and the
    // inter-segment bandwidth (deadlock-recovery force promotions are
    // exempt and not counted by the tracking hooks).
    if (iq.auditTracking && !iq.promotedInto.empty()) {
        for (unsigned k = 0; k + 1 < n; ++k) {
            const unsigned bound = std::min<unsigned>(
                iq.params.issueWidth, iq.freePrevSnapshot[k]);
            if (iq.promotedInto[k] > bound) {
                violation(promotionBound,
                          "promotions <= prev-cycle free entries", cycle, [&] {
                              return "segment " + std::to_string(k) +
                                  " accepted " +
                                  std::to_string(iq.promotedInto[k]) +
                                  " promotions, bound " +
                                  std::to_string(bound) + "\n" + segDump(k);
                          });
            }
        }
    }

    // --- Incremental scheduling indices vs. full rescan (section 11) ---
    // Every index the event-driven tick consults is a redundant view
    // over per-entry state; re-derive each one the slow way and count
    // any disagreement.  The per-entry state lives in the slot pool and
    // the indices in bitmask words.

    // O(1) occupancy.
    std::size_t occ_scan = 0;
    for (unsigned k = 0; k < n; ++k)
        occ_scan += iq.segCount[k];
    if (occ_scan != iq.totalOcc) {
        violation(occIndex, "segmented occupancy counter == rescan", cycle,
                  [&] {
                      return "totalOcc=" + std::to_string(iq.totalOcc) +
                          " but segments hold " + std::to_string(occ_scan);
                  });
    }

    // Bits on free slots, or on membership lanes past the slot's count,
    // are leaks the resident scan below cannot see.
    auto bit = [](const std::vector<std::uint64_t> &words,
                  std::size_t slot) {
        return ((words[slot >> 6] >> (slot & 63)) & 1) != 0;
    };
    for (std::size_t slot = 0; slot < pool.seg.size(); ++slot) {
        const unsigned k = pool.seg[slot];
        const bool occupied = k != SegmentedIq::kFreeSlot;
        if (bit(pool.eligBits, slot) && !occupied) {
            violation(promoIndex, "eligibility bits on live slots", cycle,
                      [&] { return "free slot " + std::to_string(slot); });
        }
        for (int m = 0; m < 2; ++m) {
            if (bit(pool.cdBits[m], slot) &&
                (!occupied || m >= pool.memCount[slot])) {
                violation(countdownIndex, "countdown bits on live lanes",
                          cycle, [&] {
                              return "slot " + std::to_string(slot) +
                                  " membership " + std::to_string(m);
                          });
            }
        }
    }
    for (int m = 0; m < 2; ++m) {
        for (std::size_t w = 0; w < pool.cdBits[m].size(); ++w) {
            const bool marked =
                (pool.cdSummary[m][w >> 6] >> (w & 63)) & 1;
            if (marked != (pool.cdBits[m][w] != 0)) {
                violation(countdownIndex,
                          "countdown summary marks its non-empty words",
                          cycle, [&] {
                              return "membership " + std::to_string(m) +
                                  " word " + std::to_string(w);
                          });
            }
        }
    }

    // Per-entry promotion-eligibility bits (the promotion pass's only
    // candidate index); subscriber back-pointers along the way.
    std::size_t subs_scan = 0;   // resident memberships on a wire
    for (unsigned k = 0; k < n; ++k) {
        for (const Resident &res : residents[k]) {
            const DynInst *inst = res.inst;
            const unsigned slot = res.slot;
            const bool elig =
                k >= 1 &&
                iq.laneEffDelay(slot) < SegmentedIq::threshold(k - 1);
            const bool elig_bit =
                ((pool.eligBits[slot >> 6] >> (slot & 63)) & 1) != 0;
            if (elig != elig_bit) {
                violation(promoIndex, "promotion-eligibility bit == rescan",
                          cycle, [&] {
                              return "seq " + std::to_string(inst->seq) +
                                  " bit " + std::to_string(elig_bit) +
                                  " but predicate says " +
                                  std::to_string(elig) + "\n" + segDump(k);
                          });
            }

            for (int m = 0; m < static_cast<int>(pool.memCount[slot]); ++m) {
                const ChainId ch = pool.chain[m][slot];
                const std::int32_t si = pool.subIdx[m][slot];
                const bool on_wire = ch != kNoChain;
                if (on_wire != (si >= 0)) {
                    violation(subIndex,
                              "membership subscribed iff on a wire",
                              cycle, [&] {
                                  return "seq " + std::to_string(inst->seq) +
                                      " membership " + std::to_string(m) +
                                      " chain " + std::to_string(ch) +
                                      " subIdx " + std::to_string(si);
                              });
                } else if (on_wire) {
                    ++subs_scan;
                    const auto &subs = iq.stateOf(ch).soaSubs;
                    const auto idx = static_cast<std::size_t>(si);
                    if (idx >= subs.size() || subs[idx].slot != slot ||
                        static_cast<int>(subs[idx].mem) != m) {
                        violation(subIndex,
                                  "subscriber record is exact", cycle, [&] {
                                      return "seq " +
                                          std::to_string(inst->seq) +
                                          " membership " + std::to_string(m) +
                                          " subIdx " + std::to_string(si);
                                  });
                    }
                }

                const std::uint8_t f = pool.flags[m][slot];
                const bool want_cd =
                    (f & SegmentedIq::kLaneSelfTimed) != 0 &&
                    (f & SegmentedIq::kLaneSuspended) == 0 &&
                    pool.delay[m][slot] > 0;
                const bool cd_bit =
                    ((pool.cdBits[m][slot >> 6] >> (slot & 63)) & 1) !=
                    0;
                if (want_cd != cd_bit) {
                    violation(countdownIndex,
                              "membership counts down iff self-timed",
                              cycle, [&] {
                                  return "seq " + std::to_string(inst->seq) +
                                      " membership " + std::to_string(m) +
                                      " bit " + std::to_string(cd_bit) +
                                      " predicate " + std::to_string(want_cd);
                              });
                }
            }
        }
    }

    // Back-pointer exactness above makes the per-list maps injective,
    // so matching totals prove the lists hold exactly the resident
    // references - no leaks pinning recycled pool slots.
    std::size_t subs_held = 0;
    for (std::size_t c = 0; c < iq.chainStates.size(); ++c) {
        const auto &cs = iq.chainStates[c];
        subs_held += cs.soaSubs.size();
        // Records name an occupied slot whose lane points back.
        for (std::size_t i = 0; i < cs.soaSubs.size(); ++i) {
            const auto &sub = cs.soaSubs[i];
            if (sub.slot >= pool.seg.size() ||
                pool.seg[sub.slot] == SegmentedIq::kFreeSlot ||
                sub.mem >= pool.memCount[sub.slot] ||
                pool.chain[sub.mem][sub.slot] != static_cast<ChainId>(c) ||
                pool.subIdx[sub.mem][sub.slot] !=
                    static_cast<std::int32_t>(i)) {
                violation(subIndex,
                          "subscriber record names an occupied slot", cycle,
                          [&] {
                              return "chain " + std::to_string(c) +
                                  " record " + std::to_string(i) + " slot " +
                                  std::to_string(sub.slot);
                          });
            }
        }
        // The wire state either carries the allocator's current
        // generation (allocated, or draining before reuse) or lags it
        // by exactly the free() bump; anything else is gen drift.
        const ChainId id = static_cast<ChainId>(c);
        if (!iq.chains.isLive(id, cs.gen) &&
            iq.chains.generation(id) != cs.gen + 1) {
            violation(subIndex, "chain-state generation tracks allocator",
                      cycle, [&] {
                          return "chain " + std::to_string(c) + " state gen " +
                              std::to_string(cs.gen) + " allocator gen " +
                              std::to_string(iq.chains.generation(id));
                      });
        }
        // The packed mirror dispatch reads must track the wire scalars
        // at every mutation site.
        if (c >= iq.chainHot.size()) {
            violation(subIndex, "chain-hot mirror allocated", cycle, [&] {
                return "chain " + std::to_string(c) + " beyond mirror of " +
                    std::to_string(iq.chainHot.size());
            });
        } else {
            const auto &hot = iq.chainHot[c];
            if (hot.seqCounter != cs.seqCounter || hot.gen != cs.gen ||
                static_cast<int>(hot.headSegment) != cs.headSegment ||
                (hot.selfTimed != 0) != cs.selfTimed ||
                (hot.suspended != 0) != cs.suspended) {
                violation(subIndex, "chain-hot mirror matches wire state",
                          cycle, [&] {
                              return "chain " + std::to_string(c) +
                                  " mirror gen " + std::to_string(hot.gen) +
                                  " head " + std::to_string(hot.headSegment) +
                                  " vs state gen " + std::to_string(cs.gen) +
                                  " head " + std::to_string(cs.headSegment);
                          });
            }
        }
    }
    if (subs_held != subs_scan) {
        violation(subIndex, "subscriber list sizes == rescan", cycle, [&] {
            return "lists hold " + std::to_string(subs_held) +
                ", rescan finds " + std::to_string(subs_scan);
        });
    }
    // Arrival calendar: every current-generation
    // listener with an unapplied log entry is due no later than that
    // entry's arrival at its segment (or the next pass, if it arrived
    // already) and its key sits in that cycle's bucket, unless its
    // chain is still to be armed; a caught-up one is not due at all,
    // so the next signal arms it.  Delivery walks only the due bucket,
    // so a late or missing key is a listener left behind.
    const Cycle next = iq.lastPass + 1;
    std::size_t pending = 0;
    for (const auto &cs : iq.chainStates)
        pending += cs.armPending;
    std::vector<ChainId> listed(iq.pendingArm);
    std::sort(listed.begin(), listed.end());
    if (pending != listed.size() ||
        std::adjacent_find(listed.begin(), listed.end()) != listed.end() ||
        !std::all_of(listed.begin(), listed.end(), [&](ChainId c) {
            return iq.stateOf(c).armPending;
        })) {
        violation(arrivalIndex, "pending-arm list == flagged chains",
                  cycle, [&] {
                      return "list holds " + std::to_string(listed.size()) +
                          ", " + std::to_string(pending) +
                          " chains are flagged";
                  });
    }
    auto listen = [&](const auto &cs, std::uint64_t applied, int s,
                      Cycle due, std::uint32_t key, auto &&name) {
        const std::size_t i = SegmentedIq::firstUnapplied(cs, applied);
        // A chain that signalled after this cycle's pass arms its
        // caught-up listeners at the start of the next one.
        if (cs.armPending && due == SegmentedIq::kNotDue)
            return;
        if (i >= cs.log.size()) {
            if (due != SegmentedIq::kNotDue) {
                violation(arrivalIndex, "caught-up listener is not due",
                          cycle, [&] {
                              return name() + " due at " + std::to_string(due);
                          });
            }
            return;
        }
        const Cycle at = SegmentedIq::arrivalAt(cs.log.at(i), s);
        const auto &bucket = iq.calendar[due & iq.calendarMask];
        if (due < next || due > std::max(at, next) ||
            std::find(bucket.begin(), bucket.end(), key) ==
                bucket.end()) {
            violation(arrivalIndex,
                      "listener due by its next arrival, in that bucket",
                      cycle, [&] {
                          return name() + " due at " +
                              (due == SegmentedIq::kNotDue
                                   ? std::string("never")
                                   : std::to_string(due)) +
                              " but its next signal arrives at cycle " +
                              std::to_string(at);
                      });
        }
    };
    for (std::size_t slot = 0; slot < iq.poolSize; ++slot) {
        if (pool.seg[slot] == SegmentedIq::kFreeSlot)
            continue;
        for (int m = 0; m < static_cast<int>(pool.memCount[slot]); ++m) {
            const ChainId ch = pool.chain[m][slot];
            if (ch == kNoChain || iq.stateOf(ch).gen != pool.gen[m][slot])
                continue;
            listen(iq.stateOf(ch), pool.applied[m][slot], pool.seg[slot],
                   pool.due[m][slot],
                   static_cast<std::uint32_t>(slot << 1 | m), [&] {
                       return "seq " + std::to_string(pool.seq[slot]) +
                              " membership " + std::to_string(m) +
                              " in segment " +
                              std::to_string(pool.seg[slot]);
                   });
        }
    }
    for (std::size_t r = 0; r < iq.regInfo.size(); ++r) {
        const auto &e = iq.regInfo[r];
        if (!e.pending || e.chain == kNoChain ||
            iq.stateOf(e.chain).gen != e.gen)
            continue;
        listen(iq.stateOf(e.chain), e.appliedSeq, static_cast<int>(n) - 1,
               iq.regDue[r],
               SegmentedIq::kRegKey | static_cast<std::uint32_t>(r),
               [&] { return "regInfo[" + std::to_string(r) + "]"; });
    }

    // Log expiry: records are in cycle order, and every non-empty log
    // has a record no later than its front, so step 5 reaches each
    // entry once it falls behind the delivery horizon.
    std::vector<Cycle> first_rec(iq.chainStates.size(),
                                 SegmentedIq::kNotDue);
    for (std::size_t i = 0; i < iq.expiry.size(); ++i) {
        const auto &rec = iq.expiry.at(i);
        if (i > 0 && iq.expiry.at(i - 1).cycle > rec.cycle) {
            violation(expiryIndex, "expiry records in cycle order", cycle,
                      [&] {
                          return "record " + std::to_string(i) + " at cycle " +
                              std::to_string(rec.cycle) + " after " +
                              std::to_string(iq.expiry.at(i - 1).cycle);
                      });
        }
        const auto c = static_cast<std::size_t>(rec.chain);
        if (c < first_rec.size())
            first_rec[c] = std::min(first_rec[c], rec.cycle);
    }
    for (std::size_t c = 0; c < iq.chainStates.size(); ++c) {
        const auto &log = iq.chainStates[c].log;
        if (!log.empty() && first_rec[c] > log.front().cycle) {
            violation(expiryIndex,
                      "every logged signal has an expiry record", cycle, [&] {
                          return "chain " + std::to_string(c) +
                              " logs a signal " + "from cycle " +
                              std::to_string(log.front().cycle) +
                              " with no record by then";
                      });
        }
    }

    // Register-table side: subscription and countdown back-pointers,
    // plus the availability mask the fast-plan path consults.
    std::size_t reg_cds_scan = 0;
    for (std::size_t r = 0; r < iq.regInfo.size(); ++r) {
        const auto &e = iq.regInfo[r];
        if (iq.regSubChain[r] != e.chain) {
            violation(subIndex, "table subscription tracks its chain",
                      cycle, [&] {
                          return "regInfo[" + std::to_string(r) + "] chain " +
                              std::to_string(e.chain) + " but subscribed to " +
                              std::to_string(iq.regSubChain[r]);
                      });
        } else if (e.chain != kNoChain) {
            const auto &subs = iq.stateOf(e.chain).regSubs;
            const int pos = iq.regSubPos[r];
            if (pos < 0 ||
                static_cast<std::size_t>(pos) >= subs.size() ||
                subs[static_cast<std::size_t>(pos)] !=
                    static_cast<RegIndex>(r)) {
                violation(subIndex, "table subscriber back-pointer exact",
                          cycle, [&] {
                              return "regInfo[" + std::to_string(r) +
                                  "] pos " + std::to_string(pos);
                          });
            }
        }

        const bool want_cd =
            e.pending && e.selfTimed && !e.suspended && e.latency > 0;
        const int cd = iq.regCdPos[r];
        if (want_cd != (cd >= 0)) {
            violation(countdownIndex,
                      "table entry counts down iff self-timed", cycle, [&] {
                          return "regInfo[" + std::to_string(r) + "] cdPos " +
                              std::to_string(cd) + " predicate " +
                              std::to_string(want_cd);
                      });
        } else if (want_cd) {
            ++reg_cds_scan;
            if (static_cast<std::size_t>(cd) >= iq.regCountdown.size() ||
                iq.regCountdown[static_cast<std::size_t>(cd)] !=
                    static_cast<RegIndex>(r)) {
                violation(countdownIndex,
                          "table countdown back-pointer exact", cycle, [&] {
                              return "regInfo[" + std::to_string(r) +
                                  "] cdPos " + std::to_string(cd);
                          });
            }
        }

        const bool avail = SegmentedIq::entryAvailable(e);
        if (avail != (((iq.regAvail >> r) & 1) != 0)) {
            violation(readyIndex,
                      "register-availability mask == rescan", cycle, [&] {
                          return "regInfo[" + std::to_string(r) +
                              "] available " + std::to_string(avail) +
                              " but mask bit is " +
                              std::to_string((iq.regAvail >> r) & 1);
                      });
        }
    }
    if (reg_cds_scan != iq.regCountdown.size()) {
        violation(countdownIndex, "table countdown size == rescan", cycle,
                  [&] {
                      return "list holds " +
                          std::to_string(iq.regCountdown.size()) +
                          ", rescan finds " + std::to_string(reg_cds_scan);
                  });
    }
}

void
Auditor::auditDispatchWindow(const SegmentedIq &iq, const OooCore &core,
                             Cycle cycle)
{
    // Slot order is age order only while every resident lies within the
    // last poolSize dispatch positions, which holds because a squash
    // rewinds the cursor: the positions from the oldest resident up to
    // the cursor then all belong to un-squashed instructions still in
    // the ROB.  A missed rewind leaves squashed positions in the count.
    const std::size_t cap = iq.poolSize;
    for (std::size_t i = 0; i < cap; ++i) {
        const std::size_t slot = (iq.cursor + i) % cap;
        if (iq.pool.seg[slot] == SegmentedIq::kFreeSlot)
            continue;
        const SeqNum oldest = iq.pool.seq[slot];
        std::size_t in_rob = 0;
        for (std::size_t r = 0; r < core.rob.size(); ++r)
            in_rob += core.rob.at(r)->seq >= oldest;
        const std::size_t span = cap - i;
        if (span > in_rob) {
            violation(occIndex,
                      "residents lie within the un-squashed dispatch window",
                      cycle, [&] {
                          return "oldest resident seq " +
                              std::to_string(oldest) + " is " +
                              std::to_string(span) +
                              " dispatch positions behind the cursor, "
                              "but only " +
                              std::to_string(in_rob) +
                              " ROB entries are that young";
                      });
        }
        break;
    }
}

void
Auditor::auditIdeal(IdealIq &iq, Cycle cycle)
{
    // The ready list must hold exactly the resident instructions whose
    // gating operands are all ready; pendingOps must agree with the
    // scoreboard (readiness is monotone during residency, so the event
    // counts cannot drift from the polled truth).
    auto in_ready = [&iq](const DynInstPtr &inst) {
        auto pos = std::lower_bound(
            iq.readyList.begin(), iq.readyList.end(), inst,
            [](const DynInstPtr &a, const DynInstPtr &b) {
                return a->seq < b->seq;
            });
        return pos != iq.readyList.end() && *pos == inst;
    };

    // Issued entries leave null tombstones in the residency list.
    std::size_t live_scan = 0;
    for (std::size_t slot = 0; slot < iq.insts.size(); ++slot) {
        const DynInstPtr &inst = iq.insts[slot];
        if (!inst)
            continue;
        ++live_scan;
        if (!inst->ideal.inQueue || inst->ideal.slot != slot) {
            violation(readyIndex, "resident instructions are flagged",
                      cycle, [&] {
                          return "seq " + std::to_string(inst->seq) +
                              " resident at slot " + std::to_string(slot) +
                              " but inQueue=" +
                              std::to_string(inst->ideal.inQueue) + " slot=" +
                              std::to_string(inst->ideal.slot);
                      });
        }
        int pending_scan = 0;
        for (RegIndex r : iq.iqSources(*inst)) {
            if (r != kInvalidReg && !iq.scoreboard.isReady(r))
                ++pending_scan;
        }
        if (pending_scan != inst->ideal.pendingOps) {
            violation(readyIndex, "pending-operand count == rescan", cycle,
                      [&] {
                          return "seq " + std::to_string(inst->seq) +
                              " tracks " +
                              std::to_string(inst->ideal.pendingOps) +
                              " pending, scoreboard says " +
                              std::to_string(pending_scan);
                      });
        }
        if ((pending_scan == 0) != in_ready(inst)) {
            violation(readyIndex, "ready list == operands-ready residents",
                      cycle, [&] {
                          return "seq " + std::to_string(inst->seq) +
                              " pending " + std::to_string(pending_scan) +
                              (in_ready(inst) ? " yet on" : " yet off") +
                              " the ready list";
                      });
        }
    }
    if (live_scan != iq.live) {
        violation(occIndex, "ideal occupancy counter == rescan", cycle, [&] {
            return "live=" + std::to_string(iq.live) + " but " +
                std::to_string(live_scan) + " entries are resident";
        });
    }
    if (iq.readyList.size() > live_scan) {
        violation(readyIndex, "ready list within residency", cycle, [&] {
            return "ready " + std::to_string(iq.readyList.size()) +
                " > resident " + std::to_string(live_scan);
        });
    }
    for (const auto &inst : iq.readyList) {
        const std::size_t slot = inst->ideal.slot;
        if (!inst->ideal.inQueue || slot >= iq.insts.size() ||
            iq.insts[slot] != inst) {
            violation(readyIndex, "ready instructions are resident", cycle,
                      [&] {
                          return "seq " + std::to_string(inst->seq) +
                              " ready but not resident";
                      });
        }
    }
}

} // namespace sciq
