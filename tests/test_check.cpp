/**
 * @file
 * Tests for vepro::check — the differential oracles and the seeded fuzz
 * harness. Three properties are pinned:
 *
 *  1. soundness: on a healthy tree, a differential sweep over every
 *     target reports zero divergences (the oracles and the optimized
 *     paths agree bit for bit);
 *  2. sensitivity: each injected single-rule fault (--inject) is caught
 *     — a harness that stays green under a deliberately broken
 *     reference would be worthless as a regression net;
 *  3. reproducibility: a divergence report carries a one-command repro
 *     that identifies the case exactly (target, seed, quick, inject),
 *     and the checked-in corpus replays clean.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzzer.hpp"
#include "check/oracle.hpp"
#include "lab/json.hpp"
#include "lab/store.hpp"

#ifndef VEPRO_CORPUS_DIR
#error "VEPRO_CORPUS_DIR must point at tests/corpus"
#endif

namespace vepro::check
{
namespace
{

// ---- Name round-trips ------------------------------------------------

TEST(CheckNames, TargetNamesRoundTrip)
{
    for (Target t : allTargets()) {
        Target back = Target::Core;
        ASSERT_TRUE(parseTarget(targetName(t), back)) << targetName(t);
        EXPECT_EQ(back, t);
    }
    Target out;
    EXPECT_FALSE(parseTarget("warp-drive", out));
    EXPECT_FALSE(parseTarget("", out));
}

TEST(CheckNames, FaultNamesRoundTrip)
{
    const Fault faults[] = {Fault::None,           Fault::CacheLru,
                            Fault::CoreLatency,    Fault::BpredAlloc,
                            Fault::KernelsSad,     Fault::KernelsIdct,
                            Fault::StoreBit,       Fault::ParallelDrop,
                            Fault::BackendEnergy,  Fault::TraceFileDelta,
                            Fault::LadderHull,     Fault::ProbeQuiet,
                            Fault::ProbeTally,     Fault::FarmTie};
    for (Fault f : faults) {
        Fault back = Fault::None;
        ASSERT_TRUE(parseFault(faultName(f), back)) << faultName(f);
        EXPECT_EQ(back, f);
    }
    Fault out;
    EXPECT_FALSE(parseFault("cache-mru", out));
}

// ---- Soundness: fast paths match the oracles -------------------------

/** A short seeded sweep per target must find nothing on a healthy
 *  tree. vepro-check --quick runs the full-budget version of this in
 *  CI; here a handful of cases keeps the suite fast while still
 *  exercising every differential end to end. */
TEST(CheckDifferential, HealthyTreeHasNoDivergences)
{
    FuzzOptions opt;
    opt.quick = true;
    opt.iters = 4;
    opt.shrink = false;
    Fuzzer fuzzer(opt);
    for (Target t : allTargets()) {
        SCOPED_TRACE(targetName(t));
        FuzzReport report = fuzzer.run(t);
        EXPECT_EQ(report.cases, 4u);
        for (const Divergence &d : report.divergences) {
            ADD_FAILURE() << "seed " << d.seed << ": " << d.detail
                          << "\nrepro: " << d.repro;
        }
    }
}

// ---- Sensitivity: every injected fault is caught ---------------------

struct FaultCase {
    Fault fault;
    Target target;
};

/** Each single-rule reference fault must produce at least one
 *  divergence on its target within the quick budget — this is the
 *  proof that the differential actually constrains the rule. */
TEST(CheckInjection, EveryFaultIsCaught)
{
    const FaultCase cases[] = {
        {Fault::CacheLru, Target::Cache},
        {Fault::CoreLatency, Target::Core},
        {Fault::BpredAlloc, Target::Bpred},
        {Fault::KernelsSad, Target::Kernels},
        {Fault::KernelsIdct, Target::Kernels},
        {Fault::StoreBit, Target::Store},
        {Fault::ParallelDrop, Target::Parallel},
        {Fault::BackendEnergy, Target::Energy},
        {Fault::TraceFileDelta, Target::TraceFile},
        {Fault::LadderHull, Target::Ladder},
        {Fault::ProbeQuiet, Target::Probe},
        {Fault::ProbeTally, Target::Probe},
        {Fault::FarmTie, Target::Farm},
    };
    for (const FaultCase &fc : cases) {
        SCOPED_TRACE(faultName(fc.fault));
        FuzzOptions opt;
        opt.quick = true;
        opt.shrink = false;
        opt.inject = fc.fault;
        Fuzzer fuzzer(opt);
        FuzzReport report = fuzzer.run(fc.target);
        EXPECT_FALSE(report.ok())
            << "injected " << faultName(fc.fault) << " went undetected over "
            << report.cases << " cases on " << targetName(fc.target);
        if (!report.divergences.empty()) {
            const Divergence &d = report.divergences.front();
            EXPECT_EQ(d.target, fc.target);
            EXPECT_FALSE(d.detail.empty());
            // The repro must identify the case exactly.
            EXPECT_NE(d.repro.find("--target="), std::string::npos);
            EXPECT_NE(d.repro.find("--seed=" + std::to_string(d.seed)),
                      std::string::npos);
            EXPECT_NE(d.repro.find(std::string("--inject=") +
                                   faultName(fc.fault)),
                      std::string::npos);
            EXPECT_NE(d.repro.find("--quick"), std::string::npos);
        }
    }
}

/** ddmin shrinking must reduce a diverging cache case to a small event
 *  sequence; the shrunk size rides along in the report. */
TEST(CheckInjection, ShrinkerMinimisesFailingTraces)
{
    FuzzOptions opt;
    opt.quick = true;
    opt.shrink = true;
    opt.inject = Fault::CacheLru;
    Fuzzer fuzzer(opt);
    Divergence d;
    uint64_t diverging_seed = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        if (fuzzer.runCase(Target::Cache, seed, d)) {
            diverging_seed = seed;
            break;
        }
    }
    ASSERT_NE(diverging_seed, 0u)
        << "cache-lru fault produced no divergence in seeds 1..8";
    EXPECT_GT(d.shrunkOps, 0u);
    // Quick cache cases run thousands of events; a working shrinker
    // gets far below that (typically < 10).
    EXPECT_LT(d.shrunkOps, 200u);
}

/** The same (target, seed, quick, inject) tuple must reproduce the same
 *  divergence — the printed repro is only honest if cases are pure. */
TEST(CheckInjection, CasesAreDeterministic)
{
    FuzzOptions opt;
    opt.quick = true;
    opt.shrink = false;
    opt.inject = Fault::CoreLatency;
    Divergence first, second;
    uint64_t seed = 0;
    for (uint64_t s = 1; s <= 16 && seed == 0; ++s) {
        if (Fuzzer(opt).runCase(Target::Core, s, first)) {
            seed = s;
        }
    }
    ASSERT_NE(seed, 0u);
    ASSERT_TRUE(Fuzzer(opt).runCase(Target::Core, seed, second));
    EXPECT_EQ(first.detail, second.detail);
    EXPECT_EQ(first.repro, second.repro);
}

// ---- Repro command ---------------------------------------------------

TEST(CheckRepro, CommandCarriesFullCaseIdentity)
{
    std::string cmd =
        Fuzzer::reproCommand(Target::Bpred, 42, Fault::BpredAlloc, true);
    EXPECT_NE(cmd.find("vepro-check"), std::string::npos);
    EXPECT_NE(cmd.find("--target=bpred"), std::string::npos);
    EXPECT_NE(cmd.find("--seed=42"), std::string::npos);
    EXPECT_NE(cmd.find("--inject=bpred-alloc"), std::string::npos);
    EXPECT_NE(cmd.find("--quick"), std::string::npos);

    // A full-budget healthy-reference case carries neither flag.
    std::string plain =
        Fuzzer::reproCommand(Target::Kernels, 7, Fault::None, false);
    EXPECT_EQ(plain.find("--inject"), std::string::npos);
    EXPECT_EQ(plain.find("--quick"), std::string::npos);
    EXPECT_NE(plain.find("--target=kernels --seed=7"), std::string::npos);
}

// ---- Corpus ----------------------------------------------------------

TEST(CheckCorpus, SeedFilesParseAndCoverEveryTarget)
{
    std::vector<std::string> files = listCorpus(VEPRO_CORPUS_DIR);
    ASSERT_FALSE(files.empty()) << "no *.case files under "
                                << VEPRO_CORPUS_DIR;
    std::set<Target> covered;
    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        CorpusCase c;
        std::string err;
        ASSERT_TRUE(loadCorpusCase(path, c, err)) << err;
        covered.insert(c.target);
    }
    EXPECT_EQ(covered.size(), allTargets().size())
        << "corpus must seed every target";
}

TEST(CheckCorpus, ReplaysCleanOnHealthyTree)
{
    FuzzOptions opt;
    opt.quick = true;
    opt.shrink = false;
    Fuzzer fuzzer(opt);
    FuzzReport report = fuzzer.runCorpus(VEPRO_CORPUS_DIR);
    EXPECT_GT(report.cases, 0u);
    for (const Divergence &d : report.divergences) {
        ADD_FAILURE() << targetName(d.target) << " seed " << d.seed << ": "
                      << d.detail << "\nrepro: " << d.repro;
    }
}

TEST(CheckCorpus, ParserRejectsMalformedFiles)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "vepro-check-corpus-test";
    fs::create_directories(dir);
    auto write = [&](const char *name, const char *body) {
        std::ofstream out(dir / name);
        out << body;
        return (dir / name).string();
    };

    CorpusCase c;
    std::string err;
    EXPECT_FALSE(loadCorpusCase(write("bad-target.case",
                                      "target=quantum\nseed=1\n"),
                                c, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(loadCorpusCase(write("no-seed.case", "target=core\n"),
                                c, err));
    EXPECT_FALSE(loadCorpusCase(write("bad-seed.case",
                                      "target=core\nseed=banana\n"),
                                c, err));
    EXPECT_FALSE(loadCorpusCase((dir / "absent.case").string(), c, err));

    // Comments and blank lines are fine.
    EXPECT_TRUE(loadCorpusCase(
        write("ok.case", "# adversarial seed\n\ntarget=store\nseed=99\n"),
        c, err))
        << err;
    EXPECT_EQ(c.target, Target::Store);
    EXPECT_EQ(c.seed, 99u);

    fs::remove_all(dir);
}

// ---- Store round-trip specifics --------------------------------------

/** The adversarial-doubles property the store fuzzer sweeps, pinned on
 *  explicit values: denormals, ±0, and extreme magnitudes round-trip
 *  exactly; non-finite values throw before any file exists. */
TEST(CheckStore, AdversarialDoublesRoundTripExactly)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "vepro-check-store-test";
    fs::remove_all(dir);
    lab::ResultStore store(dir.string(), nullptr);

    lab::JobSpec spec;
    spec.video = "denormal.y4m";
    lab::JobResult result;
    result.encode.wallSeconds = std::numeric_limits<double>::denorm_min();
    result.encode.bitrateKbps = -std::numeric_limits<double>::denorm_min();
    result.encode.psnrDb = std::numeric_limits<double>::max();
    result.jobSeconds = -0.0;
    store.save(spec, result);

    auto loaded = store.load(spec);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->encode.wallSeconds,
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(loaded->encode.bitrateKbps,
              -std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(loaded->encode.psnrDb, std::numeric_limits<double>::max());
    EXPECT_EQ(loaded->jobSeconds, 0.0);
    EXPECT_TRUE(std::signbit(loaded->jobSeconds));

    // Non-finite payloads must fail atomically: JsonError thrown, no
    // record written, lookup still a miss.
    lab::JobSpec bad = spec;
    bad.video = "nan.y4m";
    lab::JobResult nan_result;
    nan_result.encode.psnrDb = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(store.save(bad, nan_result), lab::JsonError);
    EXPECT_FALSE(fs::exists(store.pathFor(bad)));
    EXPECT_FALSE(store.load(bad).has_value());

    fs::remove_all(dir);
}

} // namespace
} // namespace vepro::check
