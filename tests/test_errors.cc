/**
 * @file
 * The structured error taxonomy (DESIGN.md §13): the stable code names,
 * the SimError field contract, and the classification each subclass
 * carries (code, context).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/errors.hh"

using namespace sciq;

namespace {

TEST(ErrorCodes, NamesAreStableJsonTokens)
{
    // The names are persisted in bench JSON (`error_code`); renaming
    // one is a format break, so pin them.
    EXPECT_STREQ(errorCodeName(ErrorCode::None), "none");
    EXPECT_STREQ(errorCodeName(ErrorCode::Config), "config");
    EXPECT_STREQ(errorCodeName(ErrorCode::Workload), "workload");
    EXPECT_STREQ(errorCodeName(ErrorCode::Deadlock), "deadlock");
    EXPECT_STREQ(errorCodeName(ErrorCode::Invariant), "invariant");
    EXPECT_STREQ(errorCodeName(ErrorCode::Resource), "resource");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

// Name kept from when a SimError also carried its job's sweep key.
TEST(SimErrorBase, CarriesCodeContextAndSweepKey)
{
    SimError e(ErrorCode::Deadlock, "stuck", "rob dump here");
    EXPECT_EQ(e.code(), ErrorCode::Deadlock);
    EXPECT_STREQ(e.what(), "stuck");
    EXPECT_EQ(e.context(), "rob dump here");
}

TEST(SimErrorBase, IsCatchableAsStdException)
{
    try {
        throw WorkloadError("unknown workload 'zork'");
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("zork"), std::string::npos);
    }
}

TEST(SimErrorSubclasses, CodesAndTransience)
{
    EXPECT_EQ(ConfigError("x").code(), ErrorCode::Config);
    EXPECT_EQ(WorkloadError("x").code(), ErrorCode::Workload);

    EXPECT_EQ(InvariantError("x").code(), ErrorCode::Invariant);
    EXPECT_EQ(InvariantError("x", "dump").context(), "dump");
}

TEST(SimErrorSubclasses, DeadlockDistinguishesWatchdogFromTimeout)
{
    DeadlockError wedged("no commit for 1000000 cycles", "pipeline dump");
    EXPECT_EQ(wedged.code(), ErrorCode::Deadlock);
    EXPECT_FALSE(wedged.isTimeout());
    EXPECT_EQ(wedged.context(), "pipeline dump");

    DeadlockError slow("deadline exceeded", "dump", /*wall_clock=*/true);
    EXPECT_TRUE(slow.isTimeout());
}

TEST(SimErrorSubclasses, CatchableAsSimError)
{
    // The sweep runner's single catch site depends on every subclass
    // reaching a `const SimError &` handler with its classification.
    try {
        throw DeadlockError("msg", "dump");
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadlock);
        EXPECT_EQ(e.context(), "dump");
    }
}

} // namespace
