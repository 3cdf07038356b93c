/** @file Integration tests for the out-of-order core pipeline. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "branch/hit_miss_predictor.hh"
#include "branch/left_right_predictor.hh"
#include "core/ooo_core.hh"
#include "iq/fifo_iq.hh"
#include "iq/ideal_iq.hh"
#include "iq/prescheduled_iq.hh"
#include "iq/segmented_iq.hh"
#include "iq_harness.hh"
#include "isa/asm_builder.hh"
#include "isa/assembler.hh"
#include "isa/functional_core.hh"

using namespace sciq;

namespace {

CoreParams
smallParams(IqKind kind)
{
    CoreParams p;
    p.iqKind = kind;
    p.iq.numEntries = kind == IqKind::Prescheduled ? 128 : 64;
    p.iq.segmentSize = 16;
    p.iq.numFifos = 8;
    p.iq.fifoDepth = 8;
    return p;
}

Program
sumLoop(int n)
{
    AsmBuilder b;
    b.addi(intReg(1), intReg(0), n);
    b.addi(intReg(2), intReg(0), 0);
    b.label("loop");
    b.add(intReg(2), intReg(2), intReg(1));
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), intReg(0), "loop");
    b.halt();
    return b.build("sum");
}

/**
 * One queue of the given kind with its own scoreboard, FUs and
 * predictors, driven as the dispatch stage drives it: identity rename,
 * one tryInsert per dispatch, and the destination's scoreboard bit
 * cleared only once the queue has taken the instruction.
 */
class QueueRig
{
  public:
    QueueRig(IqKind kind_, const IqParams &p) : kind(kind_), scoreboard(128)
    {
        switch (kind) {
          case IqKind::Ideal:
            iq = std::make_unique<IdealIq>(p, scoreboard, fu);
            break;
          case IqKind::Segmented:
            iq = std::make_unique<SegmentedIq>(p, scoreboard, fu, &hmp,
                                               &lrp);
            break;
          case IqKind::Prescheduled:
            iq = std::make_unique<PrescheduledIq>(p, scoreboard, fu);
            break;
          case IqKind::Fifo:
            iq = std::make_unique<FifoIq>(p, scoreboard, fu);
            break;
        }
    }

    bool
    dispatch(const DynInstPtr &inst)
    {
        if (!iq->tryInsert(inst, cycle))
            return false;
        if (inst->physDst != kInvalidReg)
            scoreboard.clearReady(inst->physDst);
        insts.push_back(inst);
        return true;
    }

    void
    wake(RegIndex r)
    {
        scoreboard.setReady(r);
        iq->onRegReady(r);
    }

    /** One cycle: issue at most one instruction, complete it, tick. */
    void
    step()
    {
        std::vector<DynInstPtr> got;
        iq->issueSelect(cycle, [&](const DynInstPtr &inst) {
            if (!got.empty())
                return false;
            inst->issued = true;
            got.push_back(inst);
            return true;
        });
        for (const DynInstPtr &inst : got) {
            if (inst->physDst != kInvalidReg)
                wake(inst->physDst);
            if (inst->isLoad())
                iq->onLoadComplete(inst, cycle);
            iq->onWriteback(inst, cycle);
        }
        iq->tick(++cycle, true);
    }

    /**
     * Everything observable except the stall counters (`stalls` true:
     * only those): occupancy, the queue's and the predictors'
     * statistics, each dispatched instruction's placement and the
     * segmented queue's entries and chains in use.
     */
    std::string
    state(bool stalls = false)
    {
        std::ostringstream all;
        iq->statGroup().dump(all);
        hmp.statGroup().dump(all);
        lrp.statGroup().dump(all);
        std::istringstream lines(all.str());
        std::ostringstream os;
        for (std::string line; std::getline(lines, line);) {
            const bool stall =
                line.find("dispatch_stalls_full") != std::string::npos ||
                line.find("chain_stalls") != std::string::npos ||
                line.find("no_empty_fifo_stalls") != std::string::npos;
            if (stall == stalls)
                os << line << '\n';
        }
        if (stalls)
            return os.str();
        os << "occupancy " << iq->occupancy() << '\n';
        for (const DynInstPtr &inst : insts) {
            os << "seq " << inst->seq << ": ";
            switch (kind) {
              case IqKind::Ideal:
                os << inst->ideal.inQueue << " slot " << inst->ideal.slot;
                break;
              case IqKind::Segmented:
                os << "heads " << inst->seg.headedChain;
                break;
              case IqKind::Prescheduled:
                os << "line "
                   << static_cast<PrescheduledIq &>(*iq).debugLine(inst);
                break;
              case IqKind::Fifo:
                os << "fifo " << static_cast<FifoIq &>(*iq).debugFifo(inst);
                break;
            }
            os << '\n';
        }
        iq->dumpState(os);
        return os.str();
    }

    const IqKind kind;
    Scoreboard scoreboard;
    FuPool fu;
    HitMissPredictor hmp{64};
    LeftRightPredictor lrp{64};
    std::unique_ptr<IqBase> iq;
    std::vector<DynInstPtr> insts;
    Cycle cycle = 0;
};

} // namespace

class CorePerIq : public ::testing::TestWithParam<IqKind> {};

TEST_P(CorePerIq, RefusedDispatchLeavesNoTrace)
{
    // Fill a queue with loads of a never-ready register, each followed
    // by an add of its result, until it refuses one (ideal: full
    // window; segmented: full top segment, or with three chain wires
    // no free chain, since an untrained HMP predicts a miss and so
    // every load heads a chain; prescheduled: no free line; FIFO: no
    // empty FIFO).  Queue A is offered the refused instruction again
    // every cycle while both queues drain, as the dispatch stage
    // offers it; twin B first sees it when A admits it.  Apart from
    // the stall counters the two must never differ.
    const IqKind kind = GetParam();
    IqParams p;
    p.issueWidth = 4;
    p.numEntries = kind == IqKind::Ideal          ? 8
                   : kind == IqKind::Prescheduled ? 4 + 8 * 2
                                                  : 16;
    p.segmentSize = 4;
    p.useHmp = true;
    p.useLrp = true;
    p.issueBufferSize = 4;
    p.preschedLineWidth = 2;
    p.numFifos = 4;
    p.fifoDepth = 4;
    const std::vector<int> chain_budgets =
        kind == IqKind::Segmented ? std::vector<int>{-1, 3}
                                  : std::vector<int>{-1};
    const auto reg = [](SeqNum s) {
        return intReg(2 + static_cast<RegIndex>(s % 24));
    };
    const auto filler = [&](SeqNum s) {
        return s % 2 ? test::makeInst(s, Opcode::LD, reg(s), intReg(1))
                     : test::makeInst(s, Opcode::ADD, reg(s), reg(s - 1),
                                      intReg(0));
    };
    for (int chains : chain_budgets) {
        SCOPED_TRACE("max chains " + std::to_string(chains));
        p.maxChains = chains;
        QueueRig a(kind, p), b(kind, p);
        a.scoreboard.clearReady(intReg(1));
        b.scoreboard.clearReady(intReg(1));

        SeqNum s = 1;
        for (; s < 64 && a.dispatch(filler(s)); ++s)
            ASSERT_TRUE(b.dispatch(filler(s)));
        ASSERT_LT(s, 64u) << "the queue never refused";
        EXPECT_EQ(a.state(), b.state());
        if (kind != IqKind::Ideal) {
            EXPECT_NE(a.state(true), b.state(true)) << "stall not counted";
        }

        a.wake(intReg(1));
        b.wake(intReg(1));
        bool admitted = false;
        for (int c = 0; c < 64 && !admitted; ++c) {
            a.step();
            b.step();
            admitted = a.dispatch(filler(s));
            if (admitted) {
                ASSERT_TRUE(b.dispatch(filler(s)));
            }
            ASSERT_EQ(a.state(), b.state()) << "after cycle " << c;
        }
        ASSERT_TRUE(admitted);
        EXPECT_GT(a.iq->occupancy(), 1u) << "admitted only once drained";
        EXPECT_EQ(a.iq->instsInserted.value(), static_cast<double>(s));
    }
}

TEST_P(CorePerIq, SumLoopMatchesFunctionalModel)
{
    Program prog = sumLoop(200);
    OooCore core(prog, smallParams(GetParam()));
    core.run(~0ULL, 200000);
    ASSERT_TRUE(core.halted()) << iqKindName(GetParam());

    FunctionalCore golden(prog);
    golden.run();
    EXPECT_EQ(core.committedCount(), golden.instCount());
    for (RegIndex r = 1; r < kNumArchRegs; ++r)
        EXPECT_EQ(core.commitRegs()[r], golden.reg(r)) << "reg " << r;
    EXPECT_EQ(core.commitRegs()[intReg(2)], 200u * 201u / 2u);
}

TEST_P(CorePerIq, StoresReachCommittedMemory)
{
    Program prog = assemble(R"(
        lui r1, 8
        addi r2, r0, 4321
        st r2, 0(r1)
        sw r2, 8(r1)
        ld r3, 0(r1)
        halt
    )");
    OooCore core(prog, smallParams(GetParam()));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.commitMemory().read(0x20000, 8), 4321u);
    EXPECT_EQ(core.commitMemory().read(0x20008, 4), 4321u);
    EXPECT_EQ(core.commitRegs()[intReg(3)], 4321u);
}

INSTANTIATE_TEST_SUITE_P(AllIqKinds, CorePerIq,
                         ::testing::Values(IqKind::Ideal, IqKind::Segmented,
                                           IqKind::Prescheduled,
                                           IqKind::Fifo),
                         [](const auto &info) {
                             return iqKindName(info.param);
                         });

TEST(Core, IndependentWorkExploitsWidth)
{
    AsmBuilder b;
    // 512 independent single-cycle instructions.
    for (int i = 0; i < 512; ++i)
        b.addi(intReg(1 + (i % 24)), intReg(0), i % 1000);
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.ipc(), 4.0);  // an 8-wide machine should fly
}

TEST(Core, DependentChainLimitsToOnePerCycle)
{
    AsmBuilder b;
    const int n = 400;
    b.addi(intReg(1), intReg(0), 1);
    for (int i = 0; i < n; ++i)
        b.add(intReg(1), intReg(1), intReg(1));  // serial chain
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    // Back-to-back issue of single-cycle dependants: about one per
    // cycle plus pipeline fill.
    EXPECT_GT(core.cycles(), static_cast<Cycle>(n));
    EXPECT_LT(core.cycles(), static_cast<Cycle>(n + 80));
}

TEST(Core, BackToBackAlsoWorksInSegmentedSegmentZero)
{
    AsmBuilder b;
    const int n = 300;
    b.addi(intReg(1), intReg(0), 1);
    for (int i = 0; i < n; ++i)
        b.add(intReg(1), intReg(1), intReg(1));
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Segmented));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_LT(core.cycles(), static_cast<Cycle>(n + 120));
}

TEST(Core, MispredictsResolveAndSquash)
{
    // A data-dependent branch pattern the predictor cannot learn.
    Program prog = assemble(R"(
        addi r1, r0, 2000
        addi r5, r0, 4321
    loop:
        slli r6, r5, 13
        xor  r5, r5, r6
        srli r6, r5, 7
        xor  r5, r5, r6
        andi r6, r5, 1
        beq  r6, r0, skip
        addi r2, r2, 1
    skip:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )");
    CoreParams p = smallParams(IqKind::Ideal);
    OooCore core(prog, p);
    core.run(~0ULL, 500000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.mispredictsResolved.value(), 200.0);
    EXPECT_GT(core.squashes.value(), 200.0);
    EXPECT_GT(core.wrongPathInsts.value(), 0.0);

    // And the result is still architecturally exact.
    FunctionalCore golden(prog);
    golden.run();
    EXPECT_EQ(core.commitRegs()[intReg(2)], golden.reg(intReg(2)));
}

TEST(Core, WrongPathCanBeDisabled)
{
    Program prog = sumLoop(50);
    CoreParams p = smallParams(IqKind::Ideal);
    p.modelWrongPath = false;
    OooCore core(prog, p);
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.wrongPathInsts.value(), 0.0);
}

TEST(Core, StoreToLoadForwardingHappens)
{
    AsmBuilder b;
    b.la(intReg(1), 0x20000);
    b.addi(intReg(4), intReg(0), 100);
    b.label("loop");
    b.addi(intReg(2), intReg(2), 3);
    b.st(intReg(2), intReg(1), 0);
    b.ld(intReg(3), intReg(1), 0);  // immediately reload
    b.addi(intReg(4), intReg(4), -1);
    b.bne(intReg(4), intReg(0), "loop");
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.lsqUnit().loadForwards.value(), 50.0);
    EXPECT_EQ(core.commitRegs()[intReg(3)], 300u);
}

TEST(Core, FrontEndDepthBoundsBestCaseLatency)
{
    // Even a single instruction pays the 15-cycle front end.
    Program prog = assemble("halt\n");
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 1000);
    ASSERT_TRUE(core.halted());
    EXPECT_GE(core.cycles(), 15u);
    EXPECT_LT(core.cycles(), 40u);
}

TEST(Core, SegmentedPaysExtraDispatchCycle)
{
    Program prog = assemble("halt\n");
    OooCore ideal(prog, smallParams(IqKind::Ideal));
    ideal.run(~0ULL, 1000);
    OooCore seg(prog, smallParams(IqKind::Segmented));
    seg.run(~0ULL, 1000);
    EXPECT_EQ(seg.cycles(), ideal.cycles() + 1);
}

TEST(Core, RobSizeDefaultsToThreeTimesIq)
{
    CoreParams p;
    p.iq.numEntries = 512;
    p.finalize();
    EXPECT_EQ(p.robSize, 1536u);
    EXPECT_EQ(p.lsqSize, 1536u);
    EXPECT_GT(p.numPhysRegs, 1536u + kNumArchRegs);
}

TEST(Core, LongLatencyOpsOverlapInIdealWindow)
{
    // 64 independent FP divides on 8 unpipelined units: about
    // 64/8 * 12 cycles once the window holds them all.
    AsmBuilder b;
    for (int i = 0; i < 64; ++i)
        b.fdiv(fpReg(1 + (i % 24)), fpReg(25), fpReg(26));
    b.halt();
    const Program prog = b.build();
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 10000);
    ASSERT_TRUE(core.halted());
    EXPECT_LT(core.cycles(), 200u);
    EXPECT_GE(core.cycles(), 96u);  // 8 batches x 12 cycles
}

TEST(Core, HaltOnWrongPathDoesNotEndSimulation)
{
    // The branch skips the halt; speculation may fetch it, but the
    // program must keep running to the real halt.
    Program prog = assemble(R"(
        addi r1, r0, 50
    loop:
        addi r1, r1, -1
        beq r1, r0, out
        j loop
    out:
        addi r2, r0, 7
        halt
    )");
    OooCore core(prog, smallParams(IqKind::Ideal));
    core.run(~0ULL, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.commitRegs()[intReg(2)], 7u);
}
