#ifndef VEPRO_BACKEND_PROFILE_HPP
#define VEPRO_BACKEND_PROFILE_HPP

/**
 * @file
 * Named machine profiles: the registry that turns the fully
 * parameterised core model into concrete *backends* a fleet can buy.
 *
 * The paper measures one machine (a Broadwell Xeon) and concludes that
 * encode-time differences are instruction-count differences, not IPC
 * differences. "Where to Encode" (Mathá et al.) shows the cost/perf
 * answer flips between x86 and Arm EC2 instances, and the NVENC
 * longitudinal study shows fixed-function encoders trade latency and
 * energy on yet another axis. A MachineProfile bundles everything one
 * backend needs to enter that comparison:
 *
 *  - a uarch::CoreConfig (geometry the simulator runs) and a clock,
 *    replacing the previously hard-coded 3.0 GHz farm clock;
 *  - a core count (the task-graph speedup point for multi-core servers);
 *  - an energy model: per-event nanojoule weights over the counters
 *    CoreStats already keeps, plus static watts charged over cycles /
 *    clock;
 *  - an hourly price, so vepro-serve can rank backend mixes by
 *    $/encode-at-SLA.
 *
 * Fixed-function backends (Kind::Fixed, e.g. "hw-enc") bypass the core
 * model entirely: service time and energy are a constant per 16x16
 * block plus a fixed per-encode setup charge — the NVENC-style shape
 * where encode latency is resolution-proportional and almost
 * preset-independent.
 *
 * Dynamic energy (Kind::Core, dynamicNanojoules), evaluated in exactly
 * this order — the vepro-check energy oracle re-implements it
 * independently and demands bit-identical doubles:
 *
 *     nJ = instructions x instructionNj
 *        + (l1dMisses + l1iMisses) x l1MissNj
 *        + l2Misses  x l2MissNj
 *        + llcMisses x llcMissNj
 *        + mispredicts x mispredictNj
 *
 * serve::CostModel scales it to the full clip and adds static watts
 * over the service time (see serve/costmodel.hpp).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "uarch/core.hpp"

namespace vepro::backend
{

/** The profile every backend-less spec and config resolves to: the
 *  paper's measurement machine. */
inline constexpr const char *kDefaultProfile = "xeon-bdw";

/** Per-event energy weights (nanojoules) plus static power. The
 *  per-block fields apply only to Kind::Fixed profiles. */
struct EnergyModel {
    double instructionNj = 0.0;  ///< Per retired instruction.
    double l1MissNj = 0.0;       ///< Per L1D or L1I miss (L2 access).
    double l2MissNj = 0.0;       ///< Per L2 miss (LLC access).
    double llcMissNj = 0.0;      ///< Per LLC miss (DRAM access).
    double mispredictNj = 0.0;   ///< Per branch mispredict (flush work).
    double staticWatts = 0.0;    ///< Leakage/uncore, charged over time.

    // Fixed-function backends only:
    double blockNj = 0.0;        ///< Per encoded 16x16 block.
    double setupJ = 0.0;         ///< Per encode (session setup/teardown).
};

/** How a profile produces encode costs. */
enum class Kind {
    Core,   ///< Simulated on the out-of-order core model.
    Fixed,  ///< Fixed-function: constant per-block cost, no core sim.
};

/** One named backend. */
struct MachineProfile {
    std::string name;
    std::string description;
    Kind kind = Kind::Core;

    /** Core geometry the simulator runs (Kind::Core only). */
    uarch::CoreConfig core;
    double clockGhz = 3.0;
    /** Cores per server (the sched::schedule task-graph speedup point);
     *  1 for fixed-function backends (one encode session at a time). */
    int cores = 8;

    /** On-demand price per server-hour (USD). */
    double pricePerHour = 0.0;

    EnergyModel energy;

    // Fixed-function timing (Kind::Fixed): service seconds =
    // setupSeconds + blocks x secondsPerBlock, where blocks counts the
    // full-scale clip's 16x16 luma blocks across all frames.
    double setupSeconds = 0.0;
    double secondsPerBlock = 0.0;
};

/** Registry order: default profile first. Stable across runs — fleet
 *  tables iterate it. */
const std::vector<std::string> &profileNames();

/** True iff @p name is a registered profile. */
bool isProfile(const std::string &name);

/** Look up a profile. @throws std::out_of_range on unknown names, with
 *  the known names listed in the message. */
const MachineProfile &profile(const std::string &name);

/**
 * Resolve the profile a backend field names: the empty string (the
 * JobSpec/RunScale default, kept off serialized keys for store
 * compatibility) means kDefaultProfile.
 */
const MachineProfile &resolveProfile(const std::string &name_or_empty);

/**
 * The core geometry a backend field simulates on: a default-constructed
 * CoreConfig (the paper's Xeon) for the empty string, else the named
 * profile's core. @throws std::out_of_range on unknown names, and
 * std::invalid_argument naming a fixed-function profile, which has no
 * core to simulate.
 */
uarch::CoreConfig coreConfigFor(const std::string &name_or_empty);

/**
 * Dynamic energy of one measured run on a Kind::Core profile, in
 * nanojoules: the documented per-event sum over the counters @p stats
 * already holds. @throws std::invalid_argument for Kind::Fixed.
 */
double dynamicNanojoules(const MachineProfile &p,
                         const uarch::CoreStats &stats);

/** Service seconds of a Kind::Fixed profile for @p blocks 16x16 blocks.
 *  @throws std::invalid_argument for Kind::Core. */
double fixedServiceSeconds(const MachineProfile &p, uint64_t blocks);

/** Energy (joules) of a Kind::Fixed profile for @p blocks blocks.
 *  @throws std::invalid_argument for Kind::Core. */
double fixedEnergyJoules(const MachineProfile &p, uint64_t blocks);

} // namespace vepro::backend

#endif // VEPRO_BACKEND_PROFILE_HPP
