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
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "backend/profile.hpp"
#include "check/oracle.hpp"
#include "encoders/registry.hpp"
#include "lab/orchestrator.hpp"
#include "sched/scheduler.hpp"
#include "serve/cli.hpp"
#include "serve/costmodel.hpp"
#include "serve/farm.hpp"
#include "serve/fleet.hpp"
#include "serve/policy.hpp"
#include "serve/scenario.hpp"
#include "serve/traffic.hpp"
#include "video/suite.hpp"

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
        std::vector<JobOutcome> one;
        simulateFarm(arrivals, config, policy, oracle, &one);
        for (int shards : {2, 5}) {
            config.shards = shards;
            std::vector<JobOutcome> many;
            simulateFarm(arrivals, config, policy, oracle, &many);
            ASSERT_EQ(one.size(), many.size());
            for (size_t i = 0; i < one.size(); ++i) {
                EXPECT_EQ(one[i].id, many[i].id);
                EXPECT_DOUBLE_EQ(one[i].startSec, many[i].startSec);
                EXPECT_DOUBLE_EQ(one[i].endSec, many[i].endSec);
            }
        }
        // EDF with a uniform latency target dispatches in deadline ==
        // arrival order.
        ASSERT_EQ(one.size(), arrivals.size());
        for (size_t i = 1; i < one.size(); ++i) {
            EXPECT_LT(one[i - 1].id, one[i].id);
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

/** Combos are interned in first-arrival order, by (clip, CRF) exactly:
 *  one clip at two CRFs is two combos, and a rung id or a clip whose
 *  name is a prefix of another's is a combo of its own. */
TEST(ArrivalSet, InternsCombosInFirstArrivalOrder)
{
    const std::vector<std::pair<std::string, int>> draws = {
        {"game1", 32},   {"game1@2", 32}, {"game1", 45}, {"game", 32},
        {"game1", 32},   {"game1@2", 32}, {"game1@4", 32}, {"game", 45},
        {"game1", 45},   {"game", 32},    {"game12", 32}, {"game1@4", 32}};
    std::vector<UploadJob> arrivals;
    for (size_t i = 0; i < draws.size(); ++i) {
        UploadJob job;
        job.id = i;
        job.arrivalSec = static_cast<double>(i / 3);  // Tie bursts too.
        job.clip = draws[i].first;
        job.crf = draws[i].second;
        arrivals.push_back(job);
    }
    const ArrivalSet set(arrivals);
    const std::vector<size_t> firsts = {0, 1, 2, 3, 6, 7, 10};
    ASSERT_EQ(set.combos().size(), firsts.size());
    for (size_t c = 0; c < firsts.size(); ++c) {
        EXPECT_EQ(set.combos()[c], &arrivals[firsts[c]]) << "combo " << c;
    }
    const std::vector<uint32_t> combo_of = {0, 1, 2, 3, 0, 1,
                                            4, 5, 2, 3, 6, 4};
    for (size_t i = 0; i < arrivals.size(); ++i) {
        EXPECT_EQ(set.comboOf(i), combo_of[i]) << "arrival " << i;
    }
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

    std::vector<JobOutcome> outcomes;
    const FarmResult r =
        simulateFarm(arrivals, config, policy, oracle, &outcomes);
    EXPECT_EQ(r.sla.offered, 12u);
    EXPECT_EQ(r.sla.completed + r.sla.rejected, 12u);
    EXPECT_GT(r.sla.rejected, 0u);
    size_t rejected = 0;
    for (const JobOutcome &o : outcomes) {
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

/** Deterministic fake runner: spec-derived numbers, no real encodes.
 *  Its one-task makespan curve gives a speedup of 1.0 on any core
 *  count. */
lab::JobResult
fakeRun(const lab::JobSpec &spec)
{
    lab::JobResult r;
    r.encode.instructions =
        1'000'000ull * static_cast<uint64_t>(10 - spec.preset) +
        static_cast<uint64_t>(spec.crf) * 1000ull +
        static_cast<uint64_t>(spec.video.size());
    r.encode.makespans = {r.encode.instructions};
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
        std::vector<JobOutcome> plain_jobs, pool_jobs;
        const FarmResult plain =
            simulateFarm(arrivals, config, *policy, oracle, &plain_jobs);
        const FarmResult pool =
            simulateFarm(arrivals, config, *policy, oracle,
                         {{"slow-iron", 3}}, &pool_jobs);
        ASSERT_EQ(plain_jobs.size(), pool_jobs.size());
        for (size_t i = 0; i < plain_jobs.size(); ++i) {
            EXPECT_EQ(decided(plain_jobs[i]), decided(pool_jobs[i]))
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
        std::vector<JobOutcome> jobs;
        simulateFarm(arrivals, config, slow, oracle,
                     {{first, 2}, {second, 2}}, &jobs);
        EXPECT_EQ(jobs.at(0).backend, first);
    }
}

/** A farm run's result and the outcomes it wrote. */
struct FarmRun {
    FarmResult result;
    std::vector<JobOutcome> outcomes;
};

/** Two farm runs agree bit for bit: every outcome, the SLA row,
 *  energy and horizon. Stops at the first outcome that differs. */
void
expectSameFarm(const FarmRun &want, const FarmRun &got)
{
    const auto outcome = [](const JobOutcome &o) {
        return std::make_tuple(o.id, o.rejected, o.preset,
                               std::bit_cast<uint64_t>(o.arrivalSec),
                               std::bit_cast<uint64_t>(o.startSec),
                               std::bit_cast<uint64_t>(o.endSec),
                               o.missedDeadline, o.backend);
    };
    ASSERT_EQ(want.outcomes.size(), got.outcomes.size());
    for (size_t i = 0; i < want.outcomes.size(); ++i) {
        ASSERT_EQ(outcome(want.outcomes[i]), outcome(got.outcomes[i]))
            << "outcome " << i;
    }
    const FarmResult &w = want.result;
    const FarmResult &g = got.result;
    const auto row = [](const SlaReport &r) {
        return std::make_tuple(
            r.policy, r.offered, r.completed, r.rejected,
            std::bit_cast<uint64_t>(r.p50QueueSec),
            std::bit_cast<uint64_t>(r.p99QueueSec),
            std::bit_cast<uint64_t>(r.throughputPerMin),
            std::bit_cast<uint64_t>(r.deadlineMissRate), r.deadlineMisses,
            r.presetSwitches, std::bit_cast<uint64_t>(r.meanServiceSec));
    };
    EXPECT_EQ(row(w.sla), row(g.sla));
    EXPECT_EQ(std::bit_cast<uint64_t>(w.energyJoules),
              std::bit_cast<uint64_t>(g.energyJoules));
    EXPECT_EQ(std::bit_cast<uint64_t>(w.horizonSec),
              std::bit_cast<uint64_t>(g.horizonSec));
}

/** A fleet oracle that prices every (backend, clip, CRF, preset) cell
 *  through one function; energy is twice the seconds. */
class PricedOracle final : public FleetCostOracle
{
  public:
    using Price = std::function<double(const std::string &backend,
                                       const std::string &clip, int crf,
                                       int preset)>;

    PricedOracle(std::vector<int> ladder, Price price)
        : ladder_(std::move(ladder)), price_(std::move(price))
    {
    }

    double
    serviceSeconds(const std::string &clip, int crf,
                   int preset) const override
    {
        return price_("", clip, crf, preset);
    }

    double
    serviceSecondsOn(const std::string &backend, const std::string &clip,
                     int crf, int preset) const override
    {
        return price_(backend, clip, crf, preset);
    }

    double
    energyJoulesOn(const std::string &backend, const std::string &clip,
                   int crf, int preset) const override
    {
        return 2.0 * price_(backend, clip, crf, preset);
    }

    const std::vector<int> &presetLadder() const override { return ladder_; }

  private:
    std::vector<int> ladder_;
    Price price_;
};

/** Seconds that depend on clip, CRF and preset, so every (combo, rung)
 *  cell has a lane of its own: the preset's reference cost (116, 52,
 *  24, 13 s) times a clip weight set by the clip id's length and a CRF
 *  weight set by its parity, all dyadic, so clips of equal length tie
 *  exactly (game1 and house, game1@2 and house@4). "fast-iron" runs
 *  4x quicker, "mid-iron" 2x. */
double
comboSeconds(const std::string &backend, const std::string &clip, int crf,
             int preset)
{
    const double base = preset == 2   ? 116.0
                        : preset == 4 ? 52.0
                        : preset == 6 ? 24.0
                                      : 13.0;
    const double clip_w = 1.0 + 0.125 * static_cast<double>(clip.size() % 4);
    const double crf_w = crf % 2 == 0 ? 1.0 : 0.75;
    const double speed = backend == "fast-iron"  ? 4.0
                         : backend == "mid-iron" ? 2.0
                                                 : 1.0;
    return base * clip_w * crf_w / speed;
}

/**
 * One farm run checked three ways: against check::RefFarm bit for bit,
 * over the prepared set against a one-shot call on the vector, and
 * without an outcome vector (as sweeps run it) against the run with
 * one. @p pool null runs the homogeneous signature on @p oracle.
 */
FarmRun
expectMatchesRefFarm(const std::vector<UploadJob> &arrivals,
                     const ArrivalSet &set, const FarmConfig &config,
                     bool adaptive, int preset, const FleetCostOracle &oracle,
                     const std::vector<ServerGroup> *pool)
{
    SCOPED_TRACE(std::string(adaptive ? "adaptive" : "static-p") +
                 (adaptive ? "" : std::to_string(preset)) +
                 (pool ? " pool" : " homogeneous") + " admission " +
                 std::to_string(config.admissionLimit));
    const check::RefFarm ref(config, {adaptive, preset});
    const StaticPolicy fixed(preset);
    const AdaptivePolicy adapt;
    const Policy &policy =
        adaptive ? static_cast<const Policy &>(adapt) : fixed;
    const auto farm = [&](const ArrivalSet &on,
                          std::vector<JobOutcome> *jobs) {
        return pool ? simulateFarm(on, config, policy, oracle, *pool, jobs)
                    : simulateFarm(on, config, policy, oracle, jobs);
    };
    FarmRun want, got, once;
    want.result = pool ? ref.run(arrivals, oracle, *pool, want.outcomes)
                       : ref.run(arrivals, oracle, want.outcomes);
    got.result = farm(set, &got.outcomes);
    once.result = farm(arrivals, &once.outcomes);
    expectSameFarm(want, got);
    expectSameFarm(once, got);
    expectSameFarm({farm(set, nullptr), {}}, {got.result, {}});
    return got;
}

/** Distinct (backend, combo, preset) cells the completed jobs ran in,
 *  per backend: the lanes that held a server. */
std::map<std::string, size_t>
liveCells(const ArrivalSet &set, const std::vector<JobOutcome> &outcomes)
{
    std::map<std::string, std::set<std::pair<uint32_t, int>>> cells;
    for (const JobOutcome &o : outcomes) {
        if (!o.rejected) {
            cells[o.backend].insert({set.comboOf(o.id), o.preset});
        }
    }
    std::map<std::string, size_t> out;
    for (const auto &[backend, used] : cells) {
        out[backend] = used.size();
    }
    return out;
}

/** The farm against check::RefFarm, the sharded-heap loop it replaced,
 *  at a size the fuzzer's cases (at most 300 arrivals) never reach:
 *  about 7,000 arrivals on up to 160 servers (the ledger runs 1,600).
 *  Priced by preset alone, at most four lanes a group hold servers;
 *  priced by clip, CRF and preset (comboSeconds), adaptive switching
 *  fills all 24 cell lanes of each group, with exact ties among them,
 *  and the rung-mix traffic's 18 combos fill most of 72. */
TEST(Farm, MatchesRefFarmAtReferenceScale)
{
    ServeScenario scenario = referenceScenario(true);
    scenario.traffic.users *= 40;
    scenario.farm.servers *= 40;
    const std::vector<UploadJob> arrivals =
        generateTraffic(scenario.traffic);
    ASSERT_GT(arrivals.size(), 6000u);
    for (size_t i = 0; i < arrivals.size(); ++i) {
        ASSERT_EQ(arrivals[i].id, i);  // liveCells reads comboOf(id).
    }
    const ArrivalSet set(arrivals);
    ASSERT_EQ(set.combos().size(), 6u);

    // Per-preset costs on the real model's scale (~116 s at preset 2
    // to ~13 s at preset 8): the arrivals overload the slow presets.
    const std::vector<int> ladder = {2, 4, 6, 8};
    const PricedOracle by_preset(
        ladder, [](const std::string &, const std::string &, int, int p) {
            return comboSeconds("", "game", 32, p);
        });
    const FakeFleetOracle fleet;
    const PricedOracle by_combo(ladder, comboSeconds);
    const std::vector<ServerGroup> pool = {
        {"slow-iron", 80}, {"fast-iron", 20}, {"slow-iron", 60}};
    const std::vector<ServerGroup> combo_pool = {
        {"slow-iron", 80}, {"fast-iron", 20}, {"mid-iron", 60}};

    for (int preset : ladder) {
        expectMatchesRefFarm(arrivals, set, scenario.farm, false, preset,
                             by_preset, nullptr);
    }
    EXPECT_GT(expectMatchesRefFarm(arrivals, set, scenario.farm, true, 0,
                                   by_preset, nullptr)
                  .result.sla.presetSwitches,
              0u);
    for (int preset : fleet.presetLadder()) {
        expectMatchesRefFarm(arrivals, set, scenario.farm, false, preset,
                             fleet, &pool);
    }
    expectMatchesRefFarm(arrivals, set, scenario.farm, true, 0, fleet,
                         &pool);

    FarmConfig limited = scenario.farm;
    limited.admissionLimit = 40;
    EXPECT_GT(expectMatchesRefFarm(arrivals, set, limited, false, 2,
                                   by_preset, nullptr)
                  .result.sla.rejected,
              0u);

    // Priced per cell, on 64 servers (or 40 in three groups) so the
    // peak overloads the farm and adaptive runs every rung of every
    // combo: each group's 24 cell lanes hold servers.
    FarmConfig busy = scenario.farm;
    busy.servers = 64;
    const std::vector<ServerGroup> busy_pool = {
        {"slow-iron", 20}, {"fast-iron", 5}, {"mid-iron", 15}};
    for (int preset : ladder) {
        expectMatchesRefFarm(arrivals, set, busy, false, preset, by_combo,
                             nullptr);
    }
    const FarmRun one =
        expectMatchesRefFarm(arrivals, set, busy, true, 0, by_combo, nullptr);
    EXPECT_EQ(liveCells(set, one.outcomes),
              (std::map<std::string, size_t>{{"", 24}}));
    const FarmRun three = expectMatchesRefFarm(arrivals, set, busy, true, 0,
                                               by_combo, &busy_pool);
    EXPECT_EQ(liveCells(set, three.outcomes),
              (std::map<std::string, size_t>{
                  {"fast-iron", 24}, {"mid-iron", 24}, {"slow-iron", 24}}));
    busy.admissionLimit = 40;
    EXPECT_GT(expectMatchesRefFarm(arrivals, set, busy, true, 0, by_combo,
                                   &busy_pool)
                  .result.sla.rejected,
              0u);
    busy.admissionLimit = 0;

    // Rung-mix traffic: 18 combos, 72 cells and 73 lanes a group.
    scenario.traffic.rungMix = {{1, 20.0}, {2, 20.0}, {4, 60.0}};
    const std::vector<UploadJob> rungs = generateTraffic(scenario.traffic);
    const ArrivalSet rung_set(rungs);
    ASSERT_EQ(rung_set.combos().size(), 18u);
    expectMatchesRefFarm(rungs, rung_set, busy, false, 4, by_combo, nullptr);
    const FarmRun mixed =
        expectMatchesRefFarm(rungs, rung_set, busy, true, 0, by_combo, nullptr);
    EXPECT_GE(liveCells(rung_set, mixed.outcomes).at(""), 60u);
    const FarmRun mixed_pool = expectMatchesRefFarm(
        rungs, rung_set, busy, true, 0, by_combo, &busy_pool);
    for (const auto &[backend, cells] : liveCells(rung_set, mixed_pool.outcomes)) {
        EXPECT_GE(cells, 40u) << backend;
    }
}

/**
 * Exact ties through the lanes, small enough to follow by hand. Four
 * combos (clips "a" and "ab" at CRFs 10 and 20) cost 4 s at preset 2
 * and 1 s at preset 4, whatever the combo, against a 5 s target. Every
 * 20 s one job of a combo arrives at an idle farm, and two more arrive
 * 4 s later: the first two run at preset 2, back to back, the third
 * waits 4 s and takes preset 4. On one server that server moves
 * through all eight cell lanes, twice through the same cell in a row
 * each time; on two one-server groups of equal speed, both groups free
 * at the same instant each round, and the tie goes to the earlier one.
 */
TEST(Farm, LanesOrderExactTies)
{
    const std::vector<std::pair<std::string, int>> combos = {
        {"a", 10}, {"ab", 10}, {"a", 20}, {"ab", 20}};
    std::vector<UploadJob> arrivals;
    for (size_t k = 0; k < combos.size(); ++k) {
        for (double at : {0.0, 4.0, 4.0}) {
            UploadJob job;
            job.id = arrivals.size();
            job.arrivalSec = 20.0 * static_cast<double>(k) + at;
            job.clip = combos[k].first;
            job.crf = combos[k].second;
            arrivals.push_back(job);
        }
    }
    const ArrivalSet set(arrivals);
    const PricedOracle oracle(
        {2, 4}, [](const std::string &, const std::string &, int, int p) {
            return p == 2 ? 4.0 : 1.0;
        });
    FarmConfig config;
    config.servers = 1;
    config.latencyTargetSec = 5.0;

    const FarmRun one = expectMatchesRefFarm(arrivals, set, config, true, 0,
                                             oracle, nullptr);
    EXPECT_EQ(liveCells(set, one.outcomes),
              (std::map<std::string, size_t>{{"", 8}}));
    EXPECT_EQ(one.result.sla.deadlineMisses, 0u);
    EXPECT_EQ(one.outcomes.back().endSec, 69.0);

    const std::vector<ServerGroup> pair = {{"x", 1}, {"y", 1}};
    const FarmRun two =
        expectMatchesRefFarm(arrivals, set, config, true, 0, oracle, &pair);
    for (size_t k = 0; k < combos.size(); ++k) {
        // Both groups are idle when each round's first job arrives.
        EXPECT_EQ(two.outcomes.at(3 * k).backend, "x") << "round " << k;
    }
    expectMatchesRefFarm(arrivals, set, config, false, 2, oracle, &pair);
}

/** Service times the lanes cannot order (NaN, infinite or negative)
 *  are refused when a group's table is filled, through either
 *  signature and whether or not a policy would pick the cell; the
 *  message names the cell. Zero, of either sign, is a service time. */
TEST(Farm, RejectsNonFiniteOrNegativeServiceTimes)
{
    const auto arrivals = steadyArrivals(3, 1.0);
    FarmConfig config;
    config.servers = 2;
    const StaticPolicy policy(2);
    const std::vector<ServerGroup> pool = {{"iron", 1}, {"odd-iron", 1}};
    const auto message = [&](const auto &run) {
        try {
            run();
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("(no throw)");
    };
    for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0,
                       -std::numeric_limits<double>::denorm_min()}) {
        SCOPED_TRACE(bad);
        // Only odd-iron's preset-4 cell is bad; the policy runs preset 2.
        const PricedOracle oracle(
            {2, 4}, [&](const std::string &backend, const std::string &,
                        int, int preset) {
                return backend == "odd-iron" && preset == 4 ? bad : 10.0;
            });
        const PricedOracle homogeneous(
            {2, 4}, [&](const std::string &, const std::string &, int,
                        int preset) { return preset == 4 ? bad : 10.0; });
        const std::string plain = message(
            [&] { simulateFarm(arrivals, config, policy, homogeneous); });
        EXPECT_NE(plain.find("clip 'game1' CRF 32 preset 4 on the default "
                             "backend"),
                  std::string::npos)
            << plain;
        const std::string pooled = message(
            [&] { simulateFarm(arrivals, config, policy, oracle, pool); });
        EXPECT_NE(pooled.find("clip 'game1' CRF 32 preset 4 on backend "
                              "'odd-iron'"),
                  std::string::npos)
            << pooled;
    }
    for (double zero : {0.0, -0.0}) {
        const PricedOracle oracle(
            {2}, [&](const std::string &, const std::string &, int, int) {
                return zero;
            });
        EXPECT_EQ(simulateFarm(arrivals, config, policy, oracle)
                      .sla.completed,
                  3u);
        EXPECT_EQ(simulateFarm(arrivals, config, policy, oracle, pool)
                      .sla.completed,
                  3u);
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
    std::vector<JobOutcome> jobs;
    const FarmResult r =
        simulateFarm(arrivals, config, policy, oracle, pool, &jobs);
    EXPECT_EQ(r.sla.completed, 40u);

    size_t on_slow = 0, on_fast = 0;
    double joules = 0.0;
    for (const JobOutcome &o : jobs) {
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
    std::vector<JobOutcome> again_jobs;
    const FarmResult again =
        simulateFarm(arrivals, config, policy, oracle, pool, &again_jobs);
    ASSERT_EQ(again_jobs.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(again_jobs[i].backend, jobs[i].backend);
        EXPECT_DOUBLE_EQ(again_jobs[i].endSec, jobs[i].endSec);
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

    std::vector<JobOutcome> jobs;
    simulateFarm(arrivals, config, policy, oracle,
                 {{"slow-iron", 1}, {"fast-iron", 1}}, &jobs);
    ASSERT_EQ(jobs.size(), arrivals.size());
    for (const JobOutcome &o : jobs) {
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

/** The speedup is read from the cost records' makespans: records whose
 *  curve halves from one core to eight give 2.0 on the default 8-core
 *  profile, and half the one-entry curve's service seconds. */
TEST(CostModel, SpeedupsComeFromTheRecords)
{
    struct Resolved {
        std::vector<double> speedups;  ///< Per ladder preset.
        std::vector<double> seconds;   ///< Per (preset, clip, crf).
    };
    const CostModelConfig config;
    const auto resolve = [&](const std::string &name,
                             const std::vector<uint64_t> &makespans) {
        lab::OrchestratorOptions opts;
        opts.storeDir = freshDir(name);
        opts.verbose = false;
        opts.runner = [&](const lab::JobSpec &spec) {
            lab::JobResult r = fakeRun(spec);
            r.encode.makespans = makespans;
            return r;
        };
        lab::Orchestrator orch(opts);
        CostModel cost(orch, config);
        cost.resolve({"game1", "house"}, {32, 45});
        // The speedup specs are cost specs: nothing beyond them runs.
        EXPECT_EQ(orch.computed(), 16u);
        Resolved out;
        for (int preset : config.presets) {
            out.speedups.push_back(cost.speedup(preset));
            for (const char *clip : {"game1", "house"}) {
                for (int crf : {32, 45}) {
                    out.seconds.push_back(
                        cost.serviceSeconds(clip, crf, preset));
                }
            }
        }
        return out;
    };
    const Resolved one = resolve("speedup_one", {1000});
    const Resolved halved =
        resolve("speedup_halved", {16, 14, 12, 10, 9, 8, 8, 8});
    EXPECT_EQ(one.speedups, std::vector<double>(4, 1.0));
    EXPECT_EQ(halved.speedups, std::vector<double>(4, 2.0));
    ASSERT_EQ(one.seconds.size(), halved.seconds.size());
    for (size_t i = 0; i < one.seconds.size(); ++i) {
        EXPECT_EQ(2.0 * halved.seconds[i], one.seconds[i]) << "combo " << i;
    }
}

/** The record's makespans give each preset the speedup the task graph
 *  of a mix-only encode of the first clip gives when list-scheduled
 *  directly, on both core profiles, at core counts below, at and past
 *  the graph's task count, at the default scale (6 tasks) and at
 *  divisor 8 (16 tasks, speedups above 1). */
TEST(CostModel, RecordSpeedupsMatchTheProbe)
{
    const auto model = encoders::encoderByName("SVT-AV1");
    for (int divisor : {16, 8}) {
        const std::string dir = freshDir("probe" + std::to_string(divisor));
        CostModelConfig config;
        config.divisor = divisor;
        const video::Video clip = video::loadSuiteVideo(
            "desktop", video::SuiteScale{divisor, config.frames});
        double widest = 1.0;
        for (int preset : config.presets) {
            encoders::EncodeParams params;
            params.crf = 32;
            params.preset = preset;
            const encoders::EncodeResult enc = model->encode(
                clip, params, trace::ProbeConfig{}, /*build_tasks=*/true);
            const sched::ScheduleResult serial =
                sched::schedule(enc.taskGraph, 1);
            for (const char *backend : {"xeon-bdw", "graviton-like"}) {
                for (int cores : {1, 3, 8, 16}) {
                    const sched::ScheduleResult wide =
                        sched::schedule(enc.taskGraph, cores);
                    const double up = wide.speedupVs(serial.makespan);
                    widest = std::max(widest, up);

                    lab::OrchestratorOptions opts;
                    opts.jobs = 2;
                    opts.storeDir = dir;
                    opts.verbose = false;
                    lab::Orchestrator orch(opts);
                    config.backend = backend;
                    config.serverCores = cores;
                    CostModel cost(orch, config);
                    cost.resolve({"desktop@2", "game1"}, {32});
                    EXPECT_EQ(cost.speedup(preset), up > 1.0 ? up : 1.0)
                        << "divisor " << divisor << " preset " << preset
                        << " " << backend << " cores " << cores << " ("
                        << enc.taskGraph.size() << " tasks)";
                }
            }
        }
        // Only the default scale's graph has no parallelism.
        EXPECT_EQ(widest > 1.0, divisor == 8) << "divisor " << divisor;
    }
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
