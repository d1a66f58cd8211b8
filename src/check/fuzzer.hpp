#ifndef VEPRO_CHECK_FUZZER_HPP
#define VEPRO_CHECK_FUZZER_HPP

/**
 * @file
 * Seeded property-fuzz harness asserting the optimized simulator paths
 * against the reference oracles (oracle.hpp).
 *
 * Every fuzz case is a pure function of one 64-bit seed: the seed picks
 * a randomized configuration (core geometry, cache geometry, predictor
 * budget) and an adversarial input (trace::synthFuzzTrace /
 * synthFuzzBranches, or randomized kernel blocks / store records), runs
 * the fast path and the reference side by side, and demands bit-equal
 * results. A divergence report always carries the one-command repro
 *
 *     vepro-check --target=<t> --seed=<N>
 *
 * and — for trace-shaped targets — a ddmin-shrunk minimal failing trace
 * so the first thing a human sees is the smallest input that breaks.
 *
 * The harness must stay sensitive: `vepro-check --inject=<fault>` runs
 * the same cases against a deliberately broken reference and must
 * report divergences (tests/test_check.cpp pins that).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hpp"

namespace vepro::check
{

/** What to fuzz. */
enum class Target {
    Core,
    Cache,
    Bpred,
    Kernels,
    Store,
    Parallel,
    Energy,
    TraceFile,
    Ladder,
    Probe,
    Farm,
};

/** All targets, in the order `--target=all` runs them. */
const std::vector<Target> &allTargets();

/** CLI name of a target ("core", "cache", ...). */
const char *targetName(Target target);
/** Parse a CLI target name; returns false on unknown names. */
bool parseTarget(const std::string &name, Target &out);

/** Harness knobs, straight from the vepro-check CLI. */
struct FuzzOptions {
    uint64_t baseSeed = 1;  ///< Case i uses seed baseSeed + i.
    int iters = 0;          ///< Cases per target; 0 = target default.
    bool quick = false;     ///< CI smoke budget (~1 min for all targets).
    bool shrink = true;     ///< ddmin-shrink failing traces.
    Fault inject = Fault::None;  ///< Break the reference on purpose.
    /** Scratch directory for the store target (a per-seed subdirectory
     *  is created and removed per case); empty = system temp. */
    std::string tempDir;
};

/** One detected fast-vs-reference divergence. */
struct Divergence {
    Target target = Target::Core;
    uint64_t seed = 0;
    std::string detail;  ///< First mismatching quantity, both values.
    std::string repro;   ///< One shell command reproducing the failure.
    /** Ops in the ddmin-shrunk failing trace (0 = not applicable). */
    uint64_t shrunkOps = 0;
};

/** Outcome of a fuzz run. */
struct FuzzReport {
    uint64_t cases = 0;
    std::vector<Divergence> divergences;

    bool ok() const { return divergences.empty(); }
};

/** A corpus entry: `target=<name>` and `seed=<N>` lines, '#' comments. */
struct CorpusCase {
    Target target = Target::Core;
    uint64_t seed = 0;
};

/** Parse one .case file. Returns false with @p err set on bad input. */
bool loadCorpusCase(const std::string &path, CorpusCase &out,
                    std::string &err);

/** Sorted *.case paths under @p dir (empty when dir is absent). */
std::vector<std::string> listCorpus(const std::string &dir);

class Fuzzer
{
  public:
    explicit Fuzzer(const FuzzOptions &options) : options_(options) {}

    /** Fuzz one target for its iteration budget. */
    FuzzReport run(Target target);

    /** Fuzz every target (allTargets() order), one merged report. */
    FuzzReport runAll();

    /** Replay corpus entries from @p dir (all targets). */
    FuzzReport runCorpus(const std::string &dir);

    /**
     * Run exactly one seeded case. Returns true on divergence, with
     * @p out filled in (including the shrunk-trace size when shrinking
     * is enabled and the target is trace-shaped).
     */
    bool runCase(Target target, uint64_t seed, Divergence &out);

    /** Cases run for @p target by run(), after quick/iters knobs. */
    int itersFor(Target target) const;

    /**
     * The printed one-command repro for a failing (target, seed). A
     * case is a pure function of (target, seed, quick, inject), so the
     * command carries all four.
     */
    static std::string reproCommand(Target target, uint64_t seed,
                                    Fault inject, bool quick);

  private:
    bool runCoreCase(uint64_t seed, Divergence &out);
    bool runCacheCase(uint64_t seed, Divergence &out);
    bool runBpredCase(uint64_t seed, Divergence &out);
    bool runKernelsCase(uint64_t seed, Divergence &out);
    bool runStoreCase(uint64_t seed, Divergence &out);
    bool runParallelCase(uint64_t seed, Divergence &out);
    bool runEnergyCase(uint64_t seed, Divergence &out);
    bool runTraceFileCase(uint64_t seed, Divergence &out);
    bool runLadderCase(uint64_t seed, Divergence &out);
    bool runProbeCase(uint64_t seed, Divergence &out);
    bool runFarmCase(uint64_t seed, Divergence &out);

    FuzzOptions options_;
};

} // namespace vepro::check

#endif // VEPRO_CHECK_FUZZER_HPP
