/** @file Unit tests for the key=value configuration store. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "sim/sim_config.hh"

using namespace sciq;

TEST(ConfigMap, ParseFromArgs)
{
    const char *argv[] = {"prog", "iq_size=512", "workload=swim",
                          "positional", "hmp=true"};
    ConfigMap cfg = ConfigMap::fromArgs(5, argv);
    EXPECT_EQ(cfg.getInt("iq_size", 0), 512);
    EXPECT_EQ(cfg.getString("workload"), "swim");
    EXPECT_TRUE(cfg.getBool("hmp", false));
    // No front end takes positional arguments: the first one is
    // reported ahead of any key, so `--help` cannot run a default
    // simulation.
    const std::vector<std::string> known = {"iq_size", "workload", "hmp"};
    EXPECT_EQ(cfg.unknownKeyMessage(known),
              "unexpected argument 'positional' (options are key=value)");
    std::vector<std::string> withHelp = known;
    withHelp.push_back("help");
    EXPECT_EQ(cfg.unknownKeyMessage(withHelp),
              "unexpected argument 'positional' (options are key=value; "
              "try help=1)");
}

TEST(ConfigMap, DefaultsWhenAbsent)
{
    ConfigMap cfg;
    EXPECT_EQ(cfg.getInt("x", 7), 7);
    EXPECT_EQ(cfg.getString("y", "def"), "def");
    EXPECT_TRUE(cfg.getBool("z", true));
    EXPECT_DOUBLE_EQ(cfg.getDouble("w", 2.5), 2.5);
    EXPECT_FALSE(cfg.has("x"));
}

TEST(ConfigMap, BoolSpellings)
{
    ConfigMap cfg;
    for (const char *t : {"1", "true", "yes", "on", "TRUE", "On"}) {
        cfg.set("k", t);
        EXPECT_TRUE(cfg.getBool("k", false)) << t;
    }
    for (const char *f : {"0", "false", "no", "off", "False"}) {
        cfg.set("k", f);
        EXPECT_FALSE(cfg.getBool("k", true)) << f;
    }
}

TEST(ConfigMap, HexAndNegativeIntegers)
{
    ConfigMap cfg;
    cfg.set("a", "0x100");
    cfg.set("b", "-42");
    EXPECT_EQ(cfg.getInt("a", 0), 256);
    EXPECT_EQ(cfg.getInt("b", 0), -42);
}

TEST(ConfigMap, MalformedValuesFatal)
{
    ConfigMap cfg;
    cfg.set("a", "notanumber");
    EXPECT_THROW(cfg.getInt("a", 0), FatalError);
    EXPECT_THROW(cfg.getDouble("a", 0), FatalError);
    cfg.set("b", "maybe");
    EXPECT_THROW(cfg.getBool("b", false), FatalError);
}

TEST(ConfigMap, ParseLineRejectsMalformed)
{
    ConfigMap cfg;
    EXPECT_FALSE(cfg.parseLine("novalue"));
    EXPECT_FALSE(cfg.parseLine("=value"));
    EXPECT_TRUE(cfg.parseLine("k=v"));
    EXPECT_EQ(cfg.getString("k"), "v");
}

TEST(ConfigMap, LastSetWins)
{
    ConfigMap cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.getInt("k", 0), 2);
}

TEST(EditDistance, ClassicCases)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("", "jobs"), 4u);
    EXPECT_EQ(editDistance("jobs", ""), 4u);
    EXPECT_EQ(editDistance("jobs", "jobs"), 0u);
    EXPECT_EQ(editDistance("jbos", "jobs"), 2u);   // transposition = 2 edits
    EXPECT_EQ(editDistance("iter", "iters"), 1u);  // insertion
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
}

TEST(ClosestKey, SuggestsNearMissesOnly)
{
    const std::vector<std::string> known = {"iters", "jobs", "bench_out",
                                            "workloads"};
    EXPECT_EQ(closestKey("iter", known), "iters");
    EXPECT_EQ(closestKey("job", known), "jobs");
    EXPECT_EQ(closestKey("bench_oot", known), "bench_out");
    // Nothing plausibly a typo: no suggestion.
    EXPECT_EQ(closestKey("zzzzzzzz", known), "");
}

TEST(ClosestKey, SuggestsAKeyThatExtendsAWholeWord)
{
    const std::vector<std::string> known = {"bench_out", "ff", "seed"};
    // Too far from every key by edit distance, but a word prefix.
    EXPECT_EQ(closestKey("bench", known), "bench_out");
    // A prefix that stops mid-word is not one.
    EXPECT_EQ(closestKey("benc_zz", known), "");
}

TEST(SimConfigKeys, DeletedKeysAreRejected)
{
    // The front ends that hand argv to SimConfig::apply check it
    // against SimConfig::keys() first; keys that once meant something
    // must fail loudly, not run a silently different configuration.
    ConfigMap file;
    file.set("ckpt", "warm.sciqckpt");
    EXPECT_EQ(file.unknownKeyMessage(SimConfig::keys()),
              "unknown option 'ckpt'");
    for (const char *key : {"fault_disk_fail", "retries", "ckpt_dir",
                            "bb_cache", "fault_ckpt_corrupt", "fault_seed"}) {
        ConfigMap m;
        m.set(key, "1");
        EXPECT_NE(m.unknownKeyMessage(SimConfig::keys()), "") << key;
    }

    ConfigMap ok;
    for (const char *key : {"ff", "fault_overpromote", "deadline_sec",
                            "audit_panic"})
        ok.set(key, "1");
    EXPECT_EQ(ok.unknownKeyMessage(SimConfig::keys()), "");
}

TEST(ConfigMap, UnknownKeyMessage)
{
    const std::vector<std::string> known = {"iters", "jobs", "bench_out"};

    ConfigMap ok;
    ok.set("iters", "100");
    ok.set("jobs", "4");
    EXPECT_EQ(ok.unknownKeyMessage(known), "");

    ConfigMap typo;
    typo.set("bench_ot", "x.json");
    EXPECT_EQ(typo.unknownKeyMessage(known),
              "unknown option 'bench_ot' (did you mean 'bench_out'?)");

    ConfigMap noSuggestion;
    noSuggestion.set("frobnicate_all", "1");
    EXPECT_EQ(noSuggestion.unknownKeyMessage(known),
              "unknown option 'frobnicate_all'");
}

TEST(ConfigMap, CountSuffixes)
{
    ConfigMap cfg;
    cfg.set("a", "300k");
    cfg.set("b", "2m");
    cfg.set("c", "2M");
    cfg.set("d", "1g");
    cfg.set("e", "1.5m");
    cfg.set("f", "0k");
    EXPECT_EQ(cfg.getCount("a", 0), 300'000);
    EXPECT_EQ(cfg.getCount("b", 0), 2'000'000);
    EXPECT_EQ(cfg.getCount("c", 0), 2'000'000);
    EXPECT_EQ(cfg.getCount("d", 0), 1'000'000'000);
    EXPECT_EQ(cfg.getCount("e", 0), 1'500'000);
    EXPECT_EQ(cfg.getCount("f", 1), 0);
}

TEST(ConfigMap, CountWithoutSuffixMatchesGetInt)
{
    ConfigMap cfg;
    cfg.set("plain", "12345");
    cfg.set("hex", "0x100");
    EXPECT_EQ(cfg.getCount("plain", 0), 12345);
    EXPECT_EQ(cfg.getCount("hex", 0), 256);
    EXPECT_EQ(cfg.getCount("absent", 77), 77);
}

TEST(ConfigMap, CountRejectsMalformed)
{
    ConfigMap cfg;
    for (const char *bad : {"12q", "k", "-2k", "1.5k5", "0.0001k",
                            "99999999999g", "-1", "-0x10"}) {
        cfg.set("v", bad);
        EXPECT_THROW(cfg.getCount("v", 0), FatalError) << bad;
    }
}

TEST(ConfigMap, CountSuffixBodyMustBeDecimal)
{
    // Regression: the suffixed body used to go straight through
    // strtold, which accepts hex floats and inf/nan — "0x10k" parsed
    // as 16k rather than being rejected, and "infk"/"nank" slipped
    // through to absurd counts.  Suffixed bodies are decimal only;
    // plain hex integers (no suffix) still work via getInt.
    ConfigMap cfg;
    for (const char *bad : {"0x10k", "0X10m", "infk", "INFg", "nank",
                            "NANm", "1e3k", "0x1.8p3m", "+k", "-.g",
                            ".k", "++1k"}) {
        cfg.set("v", bad);
        EXPECT_THROW(cfg.getCount("v", 0), FatalError) << bad;
    }
    cfg.set("v", "0x100");
    EXPECT_EQ(cfg.getCount("v", 0), 256);  // unsuffixed hex unchanged
    cfg.set("v", "+1.5k");
    EXPECT_EQ(cfg.getCount("v", 0), 1500);  // explicit sign still fine
}
