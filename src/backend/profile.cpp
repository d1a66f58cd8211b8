#include "backend/profile.hpp"

#include <stdexcept>

namespace vepro::backend
{

namespace
{

/**
 * Weight provenance (DESIGN.md section 15): per-event energies are in
 * the range published for server-class parts (instruction ~0.3-0.5 nJ,
 * DRAM access tens of nJ, mispredict a few nJ of flushed work); the Arm
 * profile runs every event cheaper and leaks less, the hardware encoder
 * charges a few microjoules per coded block. Absolute joules are
 * model-grade, not measurements — what the fleet sweep consumes is the
 * *ratio* between backends, which these ratios (x86 vs Arm vs ASIC)
 * carry.
 */
MachineProfile
makeXeonBdw()
{
    MachineProfile p;
    p.name = kDefaultProfile;
    p.description =
        "the paper's Broadwell Xeon (E5-2650 v4 class): 4-wide OoO, "
        "192-entry ROB, 32K/32K/256K/30M caches";
    p.kind = Kind::Core;
    p.core = uarch::xeonBdwConfig();
    p.clockGhz = 3.0;  // The farm clock previously hard-coded in serve.
    p.cores = 8;
    p.pricePerHour = 0.40;
    p.energy.instructionNj = 0.50;
    p.energy.l1MissNj = 2.0;
    p.energy.l2MissNj = 6.0;
    p.energy.llcMissNj = 60.0;
    p.energy.mispredictNj = 4.0;
    p.energy.staticWatts = 35.0;
    return p;
}

MachineProfile
makeGravitonLike()
{
    MachineProfile p;
    p.name = "graviton-like";
    p.description =
        "Arm server core (Neoverse class): wider issue, bigger ROB, "
        "larger but slower caches, lower clock; NEON kernel path on Arm "
        "hosts";
    p.kind = Kind::Core;
    p.core = uarch::gravitonLikeConfig();
    p.clockGhz = 2.6;
    p.cores = 8;
    p.pricePerHour = 0.31;  // The Arm discount "Where to Encode" prices in.
    p.energy.instructionNj = 0.34;
    p.energy.l1MissNj = 1.6;
    p.energy.l2MissNj = 5.0;
    p.energy.llcMissNj = 48.0;
    p.energy.mispredictNj = 3.0;
    p.energy.staticWatts = 22.0;
    return p;
}

MachineProfile
makeHwEnc()
{
    MachineProfile p;
    p.name = "hw-enc";
    p.description =
        "fixed-function hardware encoder (NVENC class): per-block "
        "constant cost plus session setup, preset-independent";
    p.kind = Kind::Fixed;
    p.clockGhz = 1.5;  // Informational; no core model runs.
    p.cores = 1;       // One encode session at a time per device.
    p.pricePerHour = 0.55;
    // 1080p at ~500 fps: a 150-frame clip is ~1.22M 16x16 blocks in
    // ~0.3 s of encode, plus ~50 ms of session setup.
    p.setupSeconds = 0.05;
    p.secondsPerBlock = 2.5e-7;
    p.energy.blockNj = 4000.0;  // ~4 uJ/block: ~15 W while encoding.
    p.energy.setupJ = 0.5;
    return p;
}

const std::vector<MachineProfile> &
registry()
{
    static const std::vector<MachineProfile> profiles = {
        makeXeonBdw(), makeGravitonLike(), makeHwEnc()};
    return profiles;
}

} // namespace

const std::vector<std::string> &
profileNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const MachineProfile &p : registry()) {
            out.push_back(p.name);
        }
        return out;
    }();
    return names;
}

bool
isProfile(const std::string &name)
{
    for (const MachineProfile &p : registry()) {
        if (p.name == name) {
            return true;
        }
    }
    return false;
}

const MachineProfile &
profile(const std::string &name)
{
    for (const MachineProfile &p : registry()) {
        if (p.name == name) {
            return p;
        }
    }
    std::string known;
    for (const std::string &n : profileNames()) {
        known += known.empty() ? n : (", " + n);
    }
    throw std::out_of_range("backend: unknown profile '" + name +
                            "' (known: " + known + ")");
}

const MachineProfile &
resolveProfile(const std::string &name_or_empty)
{
    return profile(name_or_empty.empty() ? kDefaultProfile : name_or_empty);
}

uarch::CoreConfig
coreConfigFor(const std::string &name_or_empty)
{
    if (name_or_empty.empty()) {
        return {};
    }
    const MachineProfile &p = profile(name_or_empty);
    if (p.kind != Kind::Core) {
        throw std::invalid_argument(
            "backend: '" + p.name +
            "' is a fixed-function profile and cannot run the core model");
    }
    return p.core;
}

double
dynamicNanojoules(const MachineProfile &p, const uarch::CoreStats &stats)
{
    if (p.kind != Kind::Core) {
        throw std::invalid_argument(
            "backend: dynamicNanojoules needs a core profile, not " +
            p.name);
    }
    // Evaluation order is part of the contract (see profile.hpp): the
    // check oracle reproduces it term by term and compares bit-exactly.
    return static_cast<double>(stats.instructions) *
               p.energy.instructionNj +
           static_cast<double>(stats.l1dMisses + stats.l1iMisses) *
               p.energy.l1MissNj +
           static_cast<double>(stats.l2Misses) * p.energy.l2MissNj +
           static_cast<double>(stats.llcMisses) * p.energy.llcMissNj +
           static_cast<double>(stats.mispredicts) * p.energy.mispredictNj;
}

double
fixedServiceSeconds(const MachineProfile &p, uint64_t blocks)
{
    if (p.kind != Kind::Fixed) {
        throw std::invalid_argument(
            "backend: fixedServiceSeconds needs a fixed-function "
            "profile, not " + p.name);
    }
    return p.setupSeconds +
           static_cast<double>(blocks) * p.secondsPerBlock;
}

double
fixedEnergyJoules(const MachineProfile &p, uint64_t blocks)
{
    if (p.kind != Kind::Fixed) {
        throw std::invalid_argument(
            "backend: fixedEnergyJoules needs a fixed-function profile, "
            "not " + p.name);
    }
    return p.energy.setupJ +
           static_cast<double>(blocks) * p.energy.blockNj * 1e-9;
}

} // namespace vepro::backend
