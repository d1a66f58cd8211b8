/**
 * @file
 * Tests for vepro::backend — the named machine-profile registry and
 * its energy accounting (ISSUE 8). Pins:
 *
 *  1. registry shape: the default profile leads, lookups round-trip,
 *     unknown names fail with the known list in the message;
 *  2. the default profile IS the pre-backend simulator: its CoreConfig
 *     matches the uarch defaults field for field and its clock is the
 *     3.0 GHz the serve cost model used to hard-code;
 *  3. golden energy: one fixed CoreStats maps to byte-stable dynamic
 *     nanojoules per profile (the documented evaluation order is a
 *     contract — EXPECT_EQ on doubles, not near-equality);
 *  4. properties: energy is strictly monotone in instruction count and
 *     kind-mismatched queries throw.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "backend/profile.hpp"
#include "uarch/core.hpp"

namespace vepro::backend
{
namespace
{

uarch::CoreStats
referenceStats()
{
    uarch::CoreStats s;
    s.instructions = 1'000'000'000;
    s.cycles = 1'500'000'000;
    s.l1dMisses = 20'000'000;
    s.l1iMisses = 1'000'000;
    s.l2Misses = 5'000'000;
    s.llcMisses = 1'000'000;
    s.mispredicts = 10'000'000;
    return s;
}

// ---- Registry shape --------------------------------------------------

TEST(BackendRegistry, DefaultProfileLeadsAndLookupsRoundTrip)
{
    const auto &names = profileNames();
    ASSERT_GE(names.size(), 3u);
    EXPECT_EQ(names.front(), kDefaultProfile);
    for (const std::string &name : names) {
        EXPECT_TRUE(isProfile(name)) << name;
        EXPECT_EQ(profile(name).name, name);
    }
    EXPECT_FALSE(isProfile("quantum-encoder"));
    EXPECT_EQ(resolveProfile("").name, kDefaultProfile);
    EXPECT_EQ(resolveProfile("graviton-like").name, "graviton-like");
}

TEST(BackendRegistry, UnknownNameThrowsWithTheKnownList)
{
    try {
        profile("quantum-encoder");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("quantum-encoder"), std::string::npos);
        EXPECT_NE(what.find(kDefaultProfile), std::string::npos)
            << "the error must list the known profiles";
    }
}

TEST(BackendRegistry, DefaultProfileIsThePreBackendSimulator)
{
    const MachineProfile &p = profile(kDefaultProfile);
    EXPECT_EQ(p.kind, Kind::Core);
    // The clock serve::CostModelConfig::nominalGhz hard-coded before
    // profiles existed, and the server core count it paired with.
    EXPECT_DOUBLE_EQ(p.clockGhz, 3.0);
    EXPECT_EQ(p.cores, 8);

    const uarch::CoreConfig def;
    EXPECT_EQ(p.core.width, def.width);
    EXPECT_EQ(p.core.robSize, def.robSize);
    EXPECT_EQ(p.core.rsSize, def.rsSize);
    EXPECT_EQ(p.core.mispredictPenalty, def.mispredictPenalty);
    EXPECT_EQ(p.core.predictorSpec, def.predictorSpec);
    EXPECT_EQ(p.core.mem.l1d.sizeBytes, def.mem.l1d.sizeBytes);
    EXPECT_EQ(p.core.mem.llc.sizeBytes, def.mem.llc.sizeBytes);
    EXPECT_EQ(p.core.mem.memoryLatency, def.mem.memoryLatency);
}

TEST(BackendRegistry, GravitonIsWiderSlowerClockedAndCheaper)
{
    const MachineProfile &x = profile(kDefaultProfile);
    const MachineProfile &g = profile("graviton-like");
    EXPECT_EQ(g.kind, Kind::Core);
    EXPECT_GT(g.core.width, x.core.width);
    EXPECT_GT(g.core.robSize, x.core.robSize);
    EXPECT_LT(g.clockGhz, x.clockGhz);
    EXPECT_GT(g.core.mem.l1d.sizeBytes, x.core.mem.l1d.sizeBytes);
    EXPECT_GT(g.core.mem.memoryLatency, x.core.mem.memoryLatency);
    EXPECT_LT(g.pricePerHour, x.pricePerHour);
    EXPECT_LT(g.energy.staticWatts, x.energy.staticWatts);
}

// ---- Golden energy pins ----------------------------------------------

/** Byte-stable dynamic nanojoules for one fixed stats vector. If an
 *  energy weight, the sum, or its evaluation ORDER changes, these
 *  literals must be regenerated deliberately — serve::CostModel prices
 *  fleet energy through dynamicNanojoules, and the vepro-check energy
 *  differential pins the same function. */
TEST(BackendEnergy, GoldenDynamicNanojoulesPerProfile)
{
    const uarch::CoreStats s = referenceStats();
    EXPECT_EQ(dynamicNanojoules(profile("xeon-bdw"), s), 672000000.0);
    EXPECT_EQ(dynamicNanojoules(profile("graviton-like"), s), 476600000.0);

    // 1080p x 150 frames = 120x68x150 = 1,224,000 16x16 blocks.
    const MachineProfile &hw = profile("hw-enc");
    EXPECT_EQ(fixedServiceSeconds(hw, 1'224'000), 0.35599999999999998);
    EXPECT_EQ(fixedEnergyJoules(hw, 1'224'000), 5.3959999999999999);
}

TEST(BackendEnergy, KindMismatchesThrow)
{
    const uarch::CoreStats s = referenceStats();
    EXPECT_THROW(dynamicNanojoules(profile("hw-enc"), s),
                 std::invalid_argument);
    EXPECT_THROW(fixedServiceSeconds(profile("xeon-bdw"), 1),
                 std::invalid_argument);
    EXPECT_THROW(fixedEnergyJoules(profile("graviton-like"), 1),
                 std::invalid_argument);
}

// ---- Properties ------------------------------------------------------

TEST(BackendEnergy, StrictlyMonotoneInInstructionCount)
{
    for (const std::string &name : profileNames()) {
        const MachineProfile &p = profile(name);
        if (p.kind != Kind::Core) {
            continue;
        }
        uarch::CoreStats s = referenceStats();
        double prev = dynamicNanojoules(p, s);
        EXPECT_GT(prev, 0.0);
        for (int step = 0; step < 20; ++step) {
            s.instructions += 1'000'000 + 37'000 * step;
            const double next = dynamicNanojoules(p, s);
            EXPECT_GT(next, prev)
                << name << ": more instructions must cost more energy";
            prev = next;
        }
    }
}

TEST(BackendEnergy, FixedCostsGrowWithBlocksAndStartAtSetup)
{
    const MachineProfile &hw = profile("hw-enc");
    EXPECT_EQ(fixedServiceSeconds(hw, 0), hw.setupSeconds);
    EXPECT_EQ(fixedEnergyJoules(hw, 0), hw.energy.setupJ);
    double prev_s = fixedServiceSeconds(hw, 0);
    double prev_j = fixedEnergyJoules(hw, 0);
    for (uint64_t blocks : {1ull, 100ull, 1'000'000ull, 50'000'000ull}) {
        const double s = fixedServiceSeconds(hw, blocks);
        const double j = fixedEnergyJoules(hw, blocks);
        EXPECT_GT(s, prev_s);
        EXPECT_GT(j, prev_j);
        prev_s = s;
        prev_j = j;
    }
}

} // namespace
} // namespace vepro::backend
