/**
 * @file
 * Tests for the vepro::serve encode-farm simulator (ISSUE 7): arrival
 * process determinism and shape, the farm's EDF/admission contracts,
 * byte-identical SLA tables across orchestrator worker counts, and the
 * policy sanity pins — including the committed reference overload
 * scenario, where speed-adaptive preset switching must strictly beat
 * the slowest static preset on deadline misses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "backend/profile.hpp"
#include "lab/orchestrator.hpp"
#include "serve/cli.hpp"
#include "serve/costmodel.hpp"
#include "serve/farm.hpp"
#include "serve/fleet.hpp"
#include "serve/policy.hpp"
#include "serve/scenario.hpp"
#include "serve/traffic.hpp"

namespace vepro::serve
{
namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vepro_serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Cost oracle with a fixed per-preset cost (clip/CRF-independent):
 *  isolates queue/policy logic from the encoder models. */
class FakeOracle final : public CostOracle
{
  public:
    FakeOracle(std::vector<int> ladder, std::vector<double> seconds)
        : ladder_(std::move(ladder)), seconds_(std::move(seconds))
    {
    }

    double
    serviceSeconds(const std::string &, int, int preset) const override
    {
        for (size_t i = 0; i < ladder_.size(); ++i) {
            if (ladder_[i] == preset) {
                return seconds_[i];
            }
        }
        throw std::out_of_range("fake oracle: preset off the ladder");
    }

    const std::vector<int> &presetLadder() const override { return ladder_; }

  private:
    std::vector<int> ladder_;
    std::vector<double> seconds_;
};

/** @p count arrivals of one clip, @p gap seconds apart. */
std::vector<UploadJob>
steadyArrivals(size_t count, double gap)
{
    std::vector<UploadJob> jobs;
    for (size_t i = 0; i < count; ++i) {
        UploadJob j;
        j.id = i;
        j.arrivalSec = static_cast<double>(i) * gap;
        j.clip = "game1";
        j.crf = 32;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

// ---- Arrival process -------------------------------------------------

TEST(Traffic, DeterministicPerSeedAndSensitiveToIt)
{
    TrafficConfig config;
    config.seed = 42;
    config.users = 500;
    config.uploadsPerUserPerHour = 1.0;
    config.durationSec = 600.0;

    const auto a = generateTraffic(config);
    const auto b = generateTraffic(config);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 20u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_DOUBLE_EQ(a[i].arrivalSec, b[i].arrivalSec);
        EXPECT_EQ(a[i].clip, b[i].clip);
        EXPECT_EQ(a[i].crf, b[i].crf);
        EXPECT_GE(a[i].arrivalSec, 0.0);
        EXPECT_LT(a[i].arrivalSec, config.durationSec);
        if (i > 0) {
            EXPECT_GE(a[i].arrivalSec, a[i - 1].arrivalSec);
        }
        EXPECT_NE(std::find(config.clips.begin(), config.clips.end(),
                            a[i].clip),
                  config.clips.end());
    }

    config.seed = 43;
    const auto c = generateTraffic(config);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].arrivalSec != c[i].arrivalSec;
    }
    EXPECT_TRUE(differs) << "different seeds must give different traffic";
}

TEST(Traffic, RateScalesWithUsersAndFollowsTheDiurnalShape)
{
    TrafficConfig config;
    config.seed = 9;
    config.users = 2000;
    config.uploadsPerUserPerHour = 1.0;
    config.durationSec = 1200.0;
    config.diurnalAmplitude = 0.0;
    const size_t big = generateTraffic(config).size();
    config.users = 500;
    const size_t small = generateTraffic(config).size();
    EXPECT_GT(big, small * 2) << "4x the users must raise the rate";

    // One full sine period across the window: the first half (sin > 0)
    // must out-arrive the second half (sin < 0).
    config.users = 2000;
    config.diurnalAmplitude = 0.9;
    config.diurnalPeriodSec = config.durationSec;
    const auto arrivals = generateTraffic(config);
    size_t first_half = 0;
    for (const UploadJob &j : arrivals) {
        if (j.arrivalSec < config.durationSec / 2) {
            ++first_half;
        }
    }
    EXPECT_GT(first_half, (arrivals.size() - first_half) * 2);
}

// ---- ABR rung mix ----------------------------------------------------

TEST(Traffic, InactiveRungMixKeepsTheByteExactPreLadderStream)
{
    // Byte-determinism contract: a rung mix that never leaves scale 1
    // consumes ZERO extra RNG draws, so the whole arrival stream —
    // clocks, clips, CRFs — replays exactly as before the field
    // existed. Pre-ladder scenario goldens must not move.
    TrafficConfig base;
    base.seed = 42;
    base.users = 500;
    base.durationSec = 600.0;
    const auto before = generateTraffic(base);

    TrafficConfig explicit_mix = base;
    explicit_mix.rungMix = {{1, 1.0}};
    TrafficConfig split_mix = base;
    split_mix.rungMix = {{1, 0.3}, {1, 0.7}};
    for (const auto &jobs : {generateTraffic(explicit_mix),
                             generateTraffic(split_mix)}) {
        ASSERT_EQ(jobs.size(), before.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_DOUBLE_EQ(jobs[i].arrivalSec, before[i].arrivalSec);
            EXPECT_EQ(jobs[i].clip, before[i].clip);
            EXPECT_EQ(jobs[i].crf, before[i].crf);
            EXPECT_EQ(jobs[i].clip.find('@'), std::string::npos);
        }
    }
}

TEST(Traffic, ActiveRungMixTagsUploadsAtTheRequestedShares)
{
    TrafficConfig config;
    config.seed = 7;
    config.users = 4000;
    config.uploadsPerUserPerHour = 1.0;
    config.durationSec = 1800.0;
    config.rungMix = {{1, 20.0}, {2, 20.0}, {4, 60.0}};
    const auto jobs = generateTraffic(config);
    ASSERT_GT(jobs.size(), 400u);

    std::map<int, size_t> by_scale;
    for (const UploadJob &job : jobs) {
        const RungId rung = parseRungId(job.clip);
        by_scale[rung.scale]++;
        // The base clip stays a real suite clip and the CRF a real CRF.
        EXPECT_NE(std::find(config.clips.begin(), config.clips.end(),
                            rung.clip),
                  config.clips.end());
    }
    ASSERT_EQ(by_scale.size(), 3u);
    const double n = static_cast<double>(jobs.size());
    EXPECT_NEAR(by_scale[1] / n, 0.2, 0.05);
    EXPECT_NEAR(by_scale[2] / n, 0.2, 0.05);
    EXPECT_NEAR(by_scale[4] / n, 0.6, 0.05);

    // Deterministic per seed, like every other traffic draw.
    const auto again = generateTraffic(config);
    ASSERT_EQ(again.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(again[i].clip, jobs[i].clip);
    }
}

TEST(Traffic, RungIdsRoundTripAndRejectGarbage)
{
    EXPECT_EQ(rungClipId("cat", 1), "cat");
    EXPECT_EQ(rungClipId("cat", 4), "cat@4");

    const RungId plain = parseRungId("cat");
    EXPECT_EQ(plain.clip, "cat");
    EXPECT_EQ(plain.scale, 1);
    const RungId tagged = parseRungId("desktop@2");
    EXPECT_EQ(tagged.clip, "desktop");
    EXPECT_EQ(tagged.scale, 2);

    for (const char *bad : {"cat@", "cat@x", "cat@0", "cat@-2", "cat@2x"}) {
        EXPECT_THROW(parseRungId(bad), std::invalid_argument) << bad;
    }

    // The combo universe cost resolution must cover: clips x distinct
    // mix scales, in clip-major order; inactive mixes pass through.
    TrafficConfig config;
    config.clips = {"a", "b"};
    config.rungMix = {{1, 1.0}, {4, 2.0}, {4, 1.0}};
    const std::vector<std::string> ids = rungClipIds(config);
    ASSERT_EQ(ids.size(), 4u);
    EXPECT_EQ(ids[0], "a");
    EXPECT_EQ(ids[1], "a@4");
    EXPECT_EQ(ids[2], "b");
    EXPECT_EQ(ids[3], "b@4");
    config.rungMix = {{1, 1.0}};
    EXPECT_EQ(rungClipIds(config), config.clips);
}

TEST(Traffic, RejectsDegenerateRungMixes)
{
    TrafficConfig config;
    config.rungMix.clear();
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
    config.rungMix = {{0, 1.0}};
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
    config.rungMix = {{2, 0.0}};
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
    config.rungMix = {{2, -1.0}};
    EXPECT_THROW(generateTraffic(config), std::invalid_argument);
}

// ---- Farm queue contracts --------------------------------------------

TEST(Farm, DispatchOrderIsDeterministicAndShardCountInvariant)
{
    // Steady arrivals, and bursts of exact ties (gap 0) whose equal
    // deadlines only arrival order can break.
    auto bursts = steadyArrivals(40, 0.0);
    for (size_t i = 0; i < bursts.size(); ++i) {
        bursts[i].arrivalSec = static_cast<double>(i / 5) * 2.0;
    }
    const FakeOracle oracle({4}, {3.0});
    const StaticPolicy policy(4);
    for (const auto &arrivals : {steadyArrivals(40, 0.25), bursts}) {
        FarmConfig config;
        config.servers = 2;
        config.latencyTargetSec = 10.0;

        config.shards = 1;
        const FarmResult one = simulateFarm(arrivals, config, policy, oracle);
        for (int shards : {2, 5}) {
            config.shards = shards;
            const FarmResult many =
                simulateFarm(arrivals, config, policy, oracle);
            ASSERT_EQ(one.outcomes.size(), many.outcomes.size());
            for (size_t i = 0; i < one.outcomes.size(); ++i) {
                EXPECT_EQ(one.outcomes[i].id, many.outcomes[i].id);
                EXPECT_DOUBLE_EQ(one.outcomes[i].startSec,
                                 many.outcomes[i].startSec);
                EXPECT_DOUBLE_EQ(one.outcomes[i].endSec,
                                 many.outcomes[i].endSec);
            }
        }
        // EDF with a uniform latency target dispatches in deadline ==
        // arrival order.
        ASSERT_EQ(one.outcomes.size(), arrivals.size());
        for (size_t i = 1; i < one.outcomes.size(); ++i) {
            EXPECT_LT(one.outcomes[i - 1].id, one.outcomes[i].id);
        }
    }
}

TEST(Farm, RejectsUnsortedArrivals)
{
    // Arrivals at 0, 100 and 50 s: run in that order, the 50 s job
    // would wait behind the 100 s one on a server idle since 10 s.
    auto arrivals = steadyArrivals(3, 50.0);
    std::swap(arrivals[1].arrivalSec, arrivals[2].arrivalSec);
    const FakeOracle oracle({4}, {10.0});
    const StaticPolicy policy(4);
    FarmConfig config;
    config.servers = 1;
    config.latencyTargetSec = 30.0;
    EXPECT_THROW(simulateFarm(arrivals, config, policy, oracle),
                 std::invalid_argument);

    arrivals[1].arrivalSec = std::nan("");
    EXPECT_THROW(simulateFarm(arrivals, config, policy, oracle),
                 std::invalid_argument);
    arrivals[1].arrivalSec = 50.0;  // Ties are sorted.
    EXPECT_EQ(simulateFarm(arrivals, config, policy, oracle).sla.completed,
              3u);
}

TEST(Farm, OffLadderPresetThrows)
{
    const auto arrivals = steadyArrivals(3, 1.0);
    const FakeOracle oracle({4}, {2.0});
    FarmConfig config;
    config.servers = 1;
    EXPECT_THROW(simulateFarm(arrivals, config, StaticPolicy(5), oracle),
                 std::out_of_range);
}

TEST(Farm, AdmissionControlRejectsWhenTheQueueIsFull)
{
    // One server stuck on 100 s jobs; arrivals flood in every second.
    const auto arrivals = steadyArrivals(12, 1.0);
    const FakeOracle oracle({4}, {100.0});
    const StaticPolicy policy(4);
    FarmConfig config;
    config.servers = 1;
    config.shards = 2;
    config.admissionLimit = 3;
    config.latencyTargetSec = 50.0;

    const FarmResult r = simulateFarm(arrivals, config, policy, oracle);
    EXPECT_EQ(r.sla.offered, 12u);
    EXPECT_EQ(r.sla.completed + r.sla.rejected, 12u);
    EXPECT_GT(r.sla.rejected, 0u);
    size_t rejected = 0;
    for (const JobOutcome &o : r.outcomes) {
        rejected += o.rejected ? 1 : 0;
    }
    EXPECT_EQ(rejected, r.sla.rejected);
}

// ---- Policies --------------------------------------------------------

TEST(Policy, AdaptivePicksTheSlowestRungThatStillFits)
{
    const std::vector<int> ladder = {2, 4, 6, 8};
    const std::vector<double> seconds = {10.0, 5.0, 2.0, 1.0};
    const AdaptivePolicy policy;

    EXPECT_EQ(policy.choosePreset(20.0, ladder, seconds), 2);
    EXPECT_EQ(policy.choosePreset(6.0, ladder, seconds), 4);
    EXPECT_EQ(policy.choosePreset(1.5, ladder, seconds), 8);
    // A rung that lands exactly on the deadline still fits.
    EXPECT_EQ(policy.choosePreset(10.0, ladder, seconds), 2);
    EXPECT_EQ(policy.choosePreset(5.0, ladder, seconds), 4);
    EXPECT_EQ(policy.choosePreset(2.0, ladder, seconds), 6);
    // Nothing fits: take the fastest anyway.
    EXPECT_EQ(policy.choosePreset(-3.0, ladder, seconds), 8);
    EXPECT_THROW(policy.choosePreset(1.0, {}, {}), std::logic_error);
    EXPECT_EQ(StaticPolicy(3).choosePreset(1.0, ladder, seconds), 3);
}

TEST(Policy, AdaptiveStrictlyBeatsSlowestStaticUnderOverload)
{
    // 1 server, arrivals every 2 s: 5x overload at the slow rung,
    // half-capacity at the fast one.
    const auto arrivals = steadyArrivals(100, 2.0);
    const FakeOracle oracle({2, 4, 6, 8}, {10.0, 6.0, 3.0, 1.0});
    FarmConfig config;
    config.servers = 1;
    config.latencyTargetSec = 12.0;

    const FarmResult slow =
        simulateFarm(arrivals, config, StaticPolicy(2), oracle);
    const FarmResult adaptive =
        simulateFarm(arrivals, config, AdaptivePolicy(), oracle);

    EXPECT_GT(slow.sla.deadlineMisses, arrivals.size() / 2);
    EXPECT_LT(adaptive.sla.deadlineMisses, slow.sla.deadlineMisses);
    EXPECT_GT(adaptive.sla.presetSwitches, 0u);
    // Quality is shed only under pressure: the adaptive mean service
    // stays above always-fastest.
    EXPECT_GT(adaptive.sla.meanServiceSec, 1.0);
}

// ---- Scenario runs through the orchestrator --------------------------

/** Deterministic fake runner: spec-derived numbers, no real encodes. */
lab::JobResult
fakeRun(const lab::JobSpec &spec)
{
    lab::JobResult r;
    r.encode.instructions =
        1'000'000ull * static_cast<uint64_t>(10 - spec.preset) +
        static_cast<uint64_t>(spec.crf) * 1000ull +
        static_cast<uint64_t>(spec.video.size());
    r.core.instructions = r.encode.instructions;
    r.core.cycles = r.encode.instructions / 2;  // IPC 2.0.
    return r;
}

TEST(Scenario, SlaTableIsByteIdenticalAcrossOrchestratorJobs)
{
    ServeScenario scenario = referenceScenario(true);
    scenario.traffic.durationSec = 400.0;

    std::string first;
    for (int jobs : {1, 4}) {
        lab::OrchestratorOptions opts;
        opts.jobs = jobs;
        opts.storeDir = freshDir("jobs" + std::to_string(jobs));
        opts.verbose = false;
        opts.runner = fakeRun;
        lab::Orchestrator orch(opts);
        const ScenarioRun run = runScenario(scenario, orch, jobs);
        const std::string json = run.table.toJson();
        ASSERT_FALSE(json.empty());
        if (first.empty()) {
            first = json;
        } else {
            EXPECT_EQ(first, json)
                << "--jobs must never change the SLA table";
        }
    }
}

TEST(Scenario, ReferenceOverloadPinAdaptiveBeatsSlowestStatic)
{
    // The committed acceptance pin, on the REAL encoder models: in the
    // quick reference overload scenario, speed-adaptive preset
    // switching strictly reduces deadline misses vs the slowest static
    // preset. Uses the real cost pipeline end-to-end (tiny specs).
    ServeScenario scenario = referenceScenario(true);
    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = freshDir("reference");
    opts.verbose = false;
    lab::Orchestrator orch(opts);

    const ScenarioRun run = runScenario(scenario, orch, 2);
    ASSERT_EQ(run.reports.size(), scenario.cost.presets.size() + 1);
    const SlaReport &slowest = run.reports.front();
    const SlaReport &adaptive = run.reports.back();
    ASSERT_EQ(adaptive.policy, "adaptive");
    EXPECT_GT(slowest.deadlineMisses, slowest.completed / 2)
        << "reference scenario must overload the slow static baseline";
    EXPECT_LT(adaptive.deadlineMisses, slowest.deadlineMisses)
        << "adaptive must strictly beat the slowest static preset";
    EXPECT_GT(adaptive.presetSwitches, 0u);
}

TEST(Scenario, CostModelScalesWithPresetAndCachesThroughTheStore)
{
    // Preset 8 must be modelled faster than preset 2, and a second
    // orchestrator over the same store must resolve fully from cache.
    const std::string dir = freshDir("costcache");
    CostModelConfig config;
    config.presets = {2, 8};

    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;

    double slow = 0.0, fast = 0.0;
    {
        lab::Orchestrator orch(opts);
        CostModel cost(orch, config);
        cost.resolve({"game1"}, {32});
        slow = cost.serviceSeconds("game1", 32, 2);
        fast = cost.serviceSeconds("game1", 32, 8);
        EXPECT_GT(slow, fast);
        EXPECT_GE(cost.speedup(2), 1.0);
        EXPECT_EQ(orch.cacheHits(), 0u);
    }
    {
        lab::Orchestrator orch(opts);
        CostModel cost(orch, config);
        cost.resolve({"game1"}, {32});
        EXPECT_EQ(orch.cacheHits(), 2u);
        EXPECT_EQ(orch.computed(), 0u);
        EXPECT_DOUBLE_EQ(cost.serviceSeconds("game1", 32, 2), slow);
        EXPECT_DOUBLE_EQ(cost.serviceSeconds("game1", 32, 8), fast);
    }
}

// ---- CLI parsing -----------------------------------------------------

TEST(ServeCli, IntegerFlagsRejectTrailingJunk)
{
    // std::stoi would silently read "4abc" as 4; parseIntStrict must
    // turn each of these into a parse error instead.
    for (const char *flag : {"--users", "--servers", "--jobs"}) {
        const ServeCli cli = parseServeCli({flag, "4abc"});
        EXPECT_FALSE(cli.error.empty()) << flag;
        EXPECT_NE(cli.error.find(flag), std::string::npos) << cli.error;
    }
    // The same for the 64-bit and floating-point flags, plus the range
    // checks: stoull read "7abc" as 7 and "-1" as 2^64 - 1, stod read
    // "60s" as 60 and "nan" as a deadline no job ever misses, and 0
    // servers only failed after the costs had resolved.
    const std::vector<std::vector<std::string>> bad = {
        {"--seed=7abc"}, {"--seed", "-1"}, {"--duration", "60s"},
        {"--duration", "0"}, {"--ghz", "2.5GHz"}, {"--servers", "0"},
        {"--latency-target", "nan"}, {"--latency-target", "-60"},
        {"--users", "-1"}, {"--uploads-per-hour", "inf"},
        {"--uploads-per-hour", "-0.5"}, {"--jobs", "-2"},
        {"--rung-mix", "2:1x"}};
    for (const std::vector<std::string> &args : bad) {
        const std::string flag = args[0].substr(0, args[0].find('='));
        const ServeCli cli = parseServeCli(args);
        EXPECT_FALSE(cli.error.empty()) << args[0];
        EXPECT_NE(cli.error.find(flag), std::string::npos) << cli.error;
    }
    const ServeCli ok = parseServeCli(
        {"--users", "250", "--servers", "2", "--jobs", "4",
         "--seed=18446744073709551615", "--uploads-per-hour", "0",
         "--duration", "60.5", "--latency-target", "1e2"});
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_EQ(ok.scenario.traffic.users, 250);
    EXPECT_EQ(ok.scenario.farm.servers, 2);
    EXPECT_EQ(ok.jobs, 4);
    EXPECT_EQ(ok.scenario.traffic.seed, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(ok.scenario.traffic.durationSec, 60.5);
    EXPECT_DOUBLE_EQ(ok.scenario.farm.latencyTargetSec, 100.0);

    // The farm has one FIFO and cost resolution one batch: no shards.
    EXPECT_EQ(parseServeCli({"--shards", "3"}).error,
              "unknown option --shards");
}

TEST(ServeCli, BackendFlagsValidateAndOverride)
{
    const ServeCli cli = parseServeCli(
        {"--quick", "--backend", "graviton-like", "--ghz", "2.0",
         "--server-cores", "16"});
    ASSERT_TRUE(cli.error.empty()) << cli.error;
    EXPECT_TRUE(cli.quick);
    EXPECT_EQ(cli.scenario.cost.backend, "graviton-like");
    EXPECT_DOUBLE_EQ(cli.scenario.cost.nominalGhz, 2.0);
    EXPECT_EQ(cli.scenario.cost.serverCores, 16);

    EXPECT_FALSE(parseServeCli({"--backend", "vax-11"}).error.empty());
    EXPECT_FALSE(parseServeCli({"--ghz", "0"}).error.empty());
    EXPECT_FALSE(parseServeCli({"--users"}).error.empty());
    EXPECT_FALSE(parseServeCli({"--warp-speed"}).error.empty());
    // --backends without --fleet is a contradiction, not a silent no-op.
    EXPECT_FALSE(
        parseServeCli({"--backends", "xeon-bdw,hw-enc"}).error.empty());

    const ServeCli fleet = parseServeCli(
        {"--fleet", "--backends", "xeon-bdw,hw-enc", "--quick"});
    ASSERT_TRUE(fleet.error.empty()) << fleet.error;
    EXPECT_TRUE(fleet.fleet);
    ASSERT_EQ(fleet.fleetBackends.size(), 2u);
    EXPECT_EQ(fleet.fleetBackends[0], "xeon-bdw");
    EXPECT_EQ(fleet.fleetBackends[1], "hw-enc");
}

TEST(ServeCli, RungMixFlagParsesAndValidates)
{
    const ServeCli cli =
        parseServeCli({"--quick", "--rung-mix", "1:20,2:20,4:60"});
    ASSERT_TRUE(cli.error.empty()) << cli.error;
    const auto &mix = cli.scenario.traffic.rungMix;
    ASSERT_EQ(mix.size(), 3u);
    EXPECT_EQ(mix[0].scale, 1);
    EXPECT_DOUBLE_EQ(mix[0].weight, 20.0);
    EXPECT_EQ(mix[1].scale, 2);
    EXPECT_DOUBLE_EQ(mix[1].weight, 20.0);
    EXPECT_EQ(mix[2].scale, 4);
    EXPECT_DOUBLE_EQ(mix[2].weight, 60.0);

    for (const char *bad :
         {"2", "2:", ":5", "0:5", "2:0", "2:-1", "2:x", "1:20;2:80", ""}) {
        const ServeCli broken = parseServeCli({"--rung-mix", bad, "--quick"});
        EXPECT_FALSE(broken.error.empty()) << "'" << bad << "' was accepted";
    }
    EXPECT_FALSE(parseServeCli({"--rung-mix"}).error.empty());
}

TEST(ServeCli, FlagOrderDoesNotMatterAroundQuick)
{
    // --quick resets the scenario; explicit flags must survive it
    // regardless of their position on the command line.
    const ServeCli before = parseServeCli({"--users", "77", "--quick"});
    const ServeCli after = parseServeCli({"--quick", "--users", "77"});
    ASSERT_TRUE(before.error.empty());
    ASSERT_TRUE(after.error.empty());
    EXPECT_EQ(before.scenario.traffic.users, 77);
    EXPECT_EQ(after.scenario.traffic.users, 77);
    EXPECT_DOUBLE_EQ(before.scenario.traffic.durationSec,
                     after.scenario.traffic.durationSec);
}

// ---- Heterogeneous pools and the fleet sweep -------------------------

/** Two-backend fleet oracle: "fast-iron" encodes 4x quicker than
 *  "slow-iron" and burns a fixed 10 J per encode vs 100 J. */
class FakeFleetOracle final : public FleetCostOracle
{
  public:
    double
    serviceSeconds(const std::string &clip, int crf,
                   int preset) const override
    {
        return serviceSecondsOn("slow-iron", clip, crf, preset);
    }

    double
    serviceSecondsOn(const std::string &backend, const std::string &,
                     int, int preset) const override
    {
        const double base = preset == 2 ? 40.0 : 8.0;
        return backend == "fast-iron" ? base / 4.0 : base;
    }

    double
    energyJoulesOn(const std::string &backend, const std::string &, int,
                   int) const override
    {
        return backend == "fast-iron" ? 10.0 : 100.0;
    }

    const std::vector<int> &
    presetLadder() const override
    {
        static const std::vector<int> ladder = {2, 8};
        return ladder;
    }
};

/** The homogeneous farm is the one-group pool: the same dispatches
 *  through the caller's oracle, and no energy. */
TEST(Farm, HomogeneousMatchesAOneGroupPool)
{
    const FakeFleetOracle oracle;  // Primary backend: slow-iron.
    // A job every 3 s against 8-40 s services on 3 servers: the queue
    // fills to the admission limit, and adaptive has to switch.
    const auto arrivals = steadyArrivals(60, 3.0);
    FarmConfig config;
    config.servers = 3;
    config.shards = 2;
    config.admissionLimit = 6;
    config.latencyTargetSec = 45.0;
    const StaticPolicy slow(2);
    const AdaptivePolicy adaptive;
    const Policy *policies[] = {&slow, &adaptive};
    // What a dispatch decided (the homogeneous farm names no backend).
    const auto decided = [](const JobOutcome &o) {
        return std::make_tuple(o.id, o.rejected, o.preset, o.startSec,
                               o.endSec, o.missedDeadline);
    };
    std::vector<SlaReport> plain_rows, pool_rows;
    for (const Policy *policy : policies) {
        const FarmResult plain =
            simulateFarm(arrivals, config, *policy, oracle);
        const FarmResult pool = simulateFarm(
            arrivals, config, *policy, oracle, {{"slow-iron", 3}});
        ASSERT_EQ(plain.outcomes.size(), pool.outcomes.size());
        for (size_t i = 0; i < plain.outcomes.size(); ++i) {
            EXPECT_EQ(decided(plain.outcomes[i]), decided(pool.outcomes[i]))
                << policy->name() << " outcome " << i;
        }
        EXPECT_EQ(plain.energyJoules, 0.0);
        EXPECT_GT(pool.energyJoules, 0.0);
        plain_rows.push_back(plain.sla);
        pool_rows.push_back(pool.sla);
    }
    EXPECT_EQ(slaTable(plain_rows).toJson(), slaTable(pool_rows).toJson());
    EXPECT_GT(plain_rows[0].rejected, 0u);
    EXPECT_GT(plain_rows[1].presetSwitches, 0u);

    // Every server free at t = 0: the first dispatch goes to the first
    // group, whichever backend it runs.
    for (const std::string first : {"fast-iron", "slow-iron"}) {
        const std::string second =
            first == "fast-iron" ? "slow-iron" : "fast-iron";
        const FarmResult r = simulateFarm(arrivals, config, slow, oracle,
                                          {{first, 2}, {second, 2}});
        EXPECT_EQ(r.outcomes.at(0).backend, first);
    }
}

TEST(FleetFarm, JobsLandOnBothBackendsAndEnergyAccumulates)
{
    const auto arrivals = steadyArrivals(40, 1.0);
    const FakeFleetOracle oracle;
    const StaticPolicy policy(8);
    FarmConfig config;
    config.shards = 2;
    config.latencyTargetSec = 60.0;

    const std::vector<ServerGroup> pool = {{"slow-iron", 1},
                                           {"fast-iron", 1}};
    const FarmResult r = simulateFarm(arrivals, config, policy, oracle, pool);
    EXPECT_EQ(r.sla.completed, 40u);

    size_t on_slow = 0, on_fast = 0;
    double joules = 0.0;
    for (const JobOutcome &o : r.outcomes) {
        ASSERT_FALSE(o.backend.empty());
        on_slow += o.backend == "slow-iron" ? 1 : 0;
        on_fast += o.backend == "fast-iron" ? 1 : 0;
        joules += o.backend == "fast-iron" ? 10.0 : 100.0;
    }
    EXPECT_GT(on_slow, 0u);
    EXPECT_GT(on_fast, 0u);
    // The 4x faster server should clear most of the queue.
    EXPECT_GT(on_fast, on_slow);
    EXPECT_DOUBLE_EQ(r.energyJoules, joules);
    EXPECT_GT(r.horizonSec, 0.0);

    // Determinism: the heterogeneous path replays byte-identically.
    const FarmResult again =
        simulateFarm(arrivals, config, policy, oracle, pool);
    ASSERT_EQ(again.outcomes.size(), r.outcomes.size());
    for (size_t i = 0; i < r.outcomes.size(); ++i) {
        EXPECT_EQ(again.outcomes[i].backend, r.outcomes[i].backend);
        EXPECT_DOUBLE_EQ(again.outcomes[i].endSec, r.outcomes[i].endSec);
    }
    EXPECT_DOUBLE_EQ(again.energyJoules, r.energyJoules);
}

TEST(FleetFarm, AdaptivePolicySeesThePerServerCosts)
{
    // Deadline 10 s: the slow backend only fits preset 8 (8 s) while
    // the fast one fits preset 2 (10 s). An adaptive policy consulted
    // through the per-server view must pick per backend.
    const auto arrivals = steadyArrivals(8, 100.0);  // No queueing.
    const FakeFleetOracle oracle;
    const AdaptivePolicy policy;
    FarmConfig config;
    config.latencyTargetSec = 10.0;

    const FarmResult r = simulateFarm(
        arrivals, config, policy, oracle,
        {{"slow-iron", 1}, {"fast-iron", 1}});
    for (const JobOutcome &o : r.outcomes) {
        if (o.backend == "fast-iron") {
            EXPECT_EQ(o.preset, 2) << "fast iron fits the slow rung";
        } else {
            EXPECT_EQ(o.preset, 8) << "slow iron must shed quality";
        }
    }
}

TEST(FleetSweep, RanksMixesAndFlagsTheRegimeFlip)
{
    // Overload at the slow rung (40 s service vs 10 s spacing on 2
    // servers) — only all-fast-iron meets the SLA there. At the fast
    // rung everything keeps up, and cheaper wins.
    const auto arrivals = steadyArrivals(60, 10.0);
    const FakeFleetOracle oracle;
    FarmConfig farm;
    farm.latencyTargetSec = 45.0;

    FleetConfig config;
    config.backends = {"slow-iron", "fast-iron"};
    config.serversPerMix = 2;
    config.missBudget = 0.05;

    // The fake backends are not registry profiles, so dollars resolve
    // through resolveProfile — pin the sweep against registry names
    // instead: map the fakes onto real profile names.
    FleetConfig real;
    real.backends = {"xeon-bdw", "graviton-like"};
    real.serversPerMix = 2;
    real.missBudget = 0.05;

    class NamedFleetOracle final : public FleetCostOracle
    {
      public:
        double
        serviceSeconds(const std::string &c, int r, int p) const override
        {
            return serviceSecondsOn("xeon-bdw", c, r, p);
        }
        double
        serviceSecondsOn(const std::string &backend, const std::string &,
                         int, int preset) const override
        {
            const double base = preset == 2 ? 40.0 : 8.0;
            return backend == "graviton-like" ? base / 4.0 : base;
        }
        double
        energyJoulesOn(const std::string &backend, const std::string &,
                       int, int) const override
        {
            return backend == "graviton-like" ? 10.0 : 100.0;
        }
        const std::vector<int> &
        presetLadder() const override
        {
            static const std::vector<int> ladder = {2, 8};
            return ladder;
        }
    } named;

    const FleetSweepResult sweep = fleetSweep(arrivals, farm, named, real);
    // 2 homogeneous mixes + 1 blend, 2 regimes each.
    ASSERT_EQ(sweep.mixes.size(), 3u);
    ASSERT_EQ(sweep.rows.size(), 6u);
    EXPECT_EQ(sweep.table.rowCount(), 6u);

    for (const FleetRow &row : sweep.rows) {
        EXPECT_EQ(row.completed, 60u);
        EXPECT_GT(row.dollarsPer1k, 0.0);
        EXPECT_GT(row.joulesPerEncode, 0.0);
    }
    // Slow regime: only the all-graviton mix (the fast fake iron)
    // meets the budget; fast regime: every mix does, and graviton is
    // both cheaper per hour and first in price order among survivors.
    EXPECT_EQ(sweep.cheapestSlow, "graviton-like");
    EXPECT_EQ(sweep.cheapestFast, "graviton-like");
    EXPECT_FALSE(sweep.winnerChanged);
    EXPECT_NE(sweep.verdict.find("holds"), std::string::npos);

    // Byte-identical replay (the CI fleet-smoke contract in miniature).
    const FleetSweepResult again = fleetSweep(arrivals, farm, named, real);
    EXPECT_EQ(again.table.toJson(), sweep.table.toJson());
    EXPECT_EQ(again.verdict, sweep.verdict);
}

// ---- CostModel across backends ---------------------------------------

TEST(CostModel, ResolvesPerBackendAndPricesFixedFunctionAnalytically)
{
    const std::string dir = freshDir("fleetcost");
    CostModelConfig config;
    config.presets = {2, 8};

    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;

    lab::Orchestrator orch(opts);
    CostModel cost(orch, config);
    cost.resolveOn({"xeon-bdw", "graviton-like", "hw-enc"}, {"game1"},
                   {32});

    // Default primary == xeon-bdw: base-class queries match the *On
    // form, and the xeon numbers reproduce the pre-backend cost model
    // (fakeRun IPC 2.0 at the historical 3.0 GHz).
    EXPECT_EQ(cost.primaryBackend(), "xeon-bdw");
    EXPECT_DOUBLE_EQ(cost.serviceSeconds("game1", 32, 2),
                     cost.serviceSecondsOn("xeon-bdw", "game1", 32, 2));

    // The Arm profile has a different clock, so the same measured
    // instruction stream maps to different seconds.
    EXPECT_NE(cost.serviceSecondsOn("xeon-bdw", "game1", 32, 2),
              cost.serviceSecondsOn("graviton-like", "game1", 32, 2));

    // hw-enc: preset-independent, resolved with zero encode jobs, and
    // matching the analytic block pricing exactly.
    EXPECT_DOUBLE_EQ(cost.serviceSecondsOn("hw-enc", "game1", 32, 2),
                     cost.serviceSecondsOn("hw-enc", "game1", 32, 8));
    const backend::MachineProfile &hw = backend::profile("hw-enc");
    const video::SuiteEntry &entry = video::suiteEntry("game1");
    const uint64_t blocks =
        static_cast<uint64_t>((entry.nominalWidth + 15) / 16) *
        static_cast<uint64_t>((entry.nominalHeight + 15) / 16) *
        static_cast<uint64_t>(config.referenceFrames);
    EXPECT_DOUBLE_EQ(cost.serviceSecondsOn("hw-enc", "game1", 32, 2),
                     backend::fixedServiceSeconds(hw, blocks));
    EXPECT_DOUBLE_EQ(cost.energyJoulesOn("hw-enc", "game1", 32, 2),
                     backend::fixedEnergyJoules(hw, blocks));

    // Energy is resolved for every core backend and positive.
    EXPECT_GT(cost.energyJoules("game1", 32, 2), 0.0);
    EXPECT_GT(cost.energyJoulesOn("graviton-like", "game1", 32, 8), 0.0);

    // Unresolved combos still throw.
    EXPECT_THROW(cost.serviceSecondsOn("xeon-bdw", "house", 32, 2),
                 std::out_of_range);

    // Only the two core backends submitted specs: 2 backends x 2
    // presets, nothing for hw-enc.
    EXPECT_EQ(orch.computed(), 4u);
}

TEST(CostModel, FleetResolutionCapturesEachTraceExactlyOnce)
{
    // On a cold store, resolveOn() across two core backends must run
    // the instrumented encoder exactly once per (clip, crf, preset) —
    // the trace cache is keyed by the encode-side spec only, so the
    // second backend replays the first backend's captures. Uses the
    // real encode pipeline (no runner seam): the whole point is the
    // seam-level encoder-invocation count.
    const std::string dir = freshDir("fleettrace");
    CostModelConfig config;
    config.presets = {2, 8};

    lab::OrchestratorOptions opts;
    opts.jobs = 2;
    opts.storeDir = dir;
    opts.verbose = false;

    lab::Orchestrator orch(opts);
    CostModel cost(orch, config);
    cost.resolveOn({"xeon-bdw", "graviton-like"}, {"game1"}, {32});

    // 1 clip x 1 crf x 2 presets = 2 unique encodes; 2 backends x 2
    // presets = 4 computed specs, the extra 2 resolved by replay.
    EXPECT_EQ(orch.computed(), 4u);
    EXPECT_EQ(orch.encoderRuns(), 2u);
    EXPECT_EQ(orch.traceCaptures(), 2u);
    EXPECT_EQ(orch.traceReplays(), 2u);

    // Both backends priced every preset from the same capture.
    EXPECT_GT(cost.serviceSecondsOn("xeon-bdw", "game1", 32, 2), 0.0);
    EXPECT_GT(cost.serviceSecondsOn("graviton-like", "game1", 32, 8), 0.0);
}

TEST(CostModel, ExplicitOverridesSupersedeTheProfile)
{
    const std::string dir = freshDir("ghzoverride");
    lab::OrchestratorOptions opts;
    opts.jobs = 1;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;
    lab::Orchestrator orch(opts);

    CostModelConfig plain;
    plain.presets = {8};
    CostModelConfig halved = plain;
    halved.nominalGhz = 1.5;  // Half the xeon profile's 3.0 GHz.

    CostModel a(orch, plain);
    a.resolve({"game1"}, {32});
    CostModel b(orch, halved);
    b.resolve({"game1"}, {32});

    // Same measured spec (same cache entry), half the clock: exactly
    // twice the seconds.
    EXPECT_DOUBLE_EQ(b.serviceSeconds("game1", 32, 8),
                     2.0 * a.serviceSeconds("game1", 32, 8));
}

/** What one CostModel::resolve() leaves behind. */
struct Resolution {
    size_t computed = 0;
    size_t cacheHits = 0;
    std::vector<double> costs;  ///< Seconds, then joules, per combo.

    bool operator==(const Resolution &) const = default;
};

TEST(Orchestrator, LedgerServiceCallsAreNoOps)
{
    // The ledger brackets one cost resolution with the kept
    // startService()/stopService() names. Called twice each, they must
    // change nothing: cold and warm, the same costs, computed() and
    // cacheHits() as the same resolution without them.
    CostModelConfig config;
    config.presets = {2, 8};
    const std::vector<std::string> clips = {"game1", "house"};
    const std::vector<int> crfs = {32, 45};

    const auto resolve = [&](const std::string &dir, bool bracket) {
        lab::OrchestratorOptions opts;
        opts.storeDir = dir;
        opts.verbose = false;
        opts.runner = fakeRun;
        lab::Orchestrator orch(opts);
        if (bracket) {
            orch.startService(lab::ServiceOptions{3, 4});
            orch.startService(lab::ServiceOptions{3, 4});
        }
        CostModel cost(orch, config);
        cost.resolve(clips, crfs);
        if (bracket) {
            orch.stopService();
            orch.stopService();
        }
        Resolution r;
        r.computed = orch.computed();
        r.cacheHits = orch.cacheHits();
        for (const std::string &clip : clips) {
            for (int crf : crfs) {
                for (int preset : config.presets) {
                    r.costs.push_back(cost.serviceSeconds(clip, crf, preset));
                    r.costs.push_back(cost.energyJoules(clip, crf, preset));
                }
            }
        }
        return r;
    };

    const std::string plain_dir = freshDir("noops_plain");
    const std::string ledger_dir = freshDir("noops_ledger");
    const Resolution cold = resolve(plain_dir, false);
    EXPECT_EQ(cold.computed, 8u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(resolve(ledger_dir, true), cold);

    const Resolution warm = resolve(plain_dir, false);
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.cacheHits, 8u);
    EXPECT_EQ(resolve(ledger_dir, true), warm);
}

TEST(CostModel, RungCombosClampTheProxyButKeepTheBaseClip)
{
    const std::string dir = freshDir("rungspec");
    CostModelConfig config;  // divisor 16: the coarse serve geometry
    lab::OrchestratorOptions opts;
    opts.storeDir = dir;
    opts.verbose = false;
    opts.runner = fakeRun;
    lab::Orchestrator orch(opts);
    CostModel cost(orch, config);

    // Full-resolution combos pass through untouched.
    EXPECT_EQ(cost.specFor("game1", 32, 4).video, "game1");
    EXPECT_EQ(cost.specFor("game1", 32, 4).scale, 1);

    // The 1080p proxy (128x64 luma) can hold the /4 rung directly.
    const lab::JobSpec deep = cost.specFor("game1@4", 32, 4);
    EXPECT_EQ(deep.video, "game1");
    EXPECT_EQ(deep.scale, 4);

    // The 720p proxy (80x48 luma) cannot: /4 would be 20x12, under the
    // 16x16 codec floor, so the measurement falls back to the deepest
    // encodable rung (/2). Block pricing still uses the true rung
    // resolution — only the measured proxy clamps.
    const lab::JobSpec clamped = cost.specFor("desktop@4", 32, 4);
    EXPECT_EQ(clamped.video, "desktop");
    EXPECT_EQ(clamped.scale, 2);
}

TEST(Scenario, FleetTableIsByteIdenticalAcrossOrchestratorJobs)
{
    ServeScenario scenario = referenceScenario(true);
    scenario.traffic.durationSec = 400.0;

    std::string first;
    for (int jobs : {1, 4}) {
        lab::OrchestratorOptions opts;
        opts.jobs = jobs;
        opts.storeDir = freshDir("fleetjobs" + std::to_string(jobs));
        opts.verbose = false;
        opts.runner = fakeRun;
        lab::Orchestrator orch(opts);
        FleetConfig config;  // Full registry.
        const FleetRun run =
            runFleetScenario(scenario, orch, jobs, config);
        EXPECT_EQ(run.sweep.mixes.size(),
                  backend::profileNames().size() + 1);
        const std::string json = run.sweep.table.toJson();
        ASSERT_FALSE(json.empty());
        if (first.empty()) {
            first = json;
        } else {
            EXPECT_EQ(first, json)
                << "--jobs must never change the fleet table";
        }
    }
}

} // namespace
} // namespace vepro::serve
