#include "serve/costmodel.hpp"

#include <stdexcept>
#include <utility>

#include "backend/profile.hpp"
#include "sched/scheduler.hpp"
#include "serve/traffic.hpp"
#include "video/scale.hpp"
#include "video/suite.hpp"

namespace vepro::serve
{

namespace
{

/** Production-scale 16x16 luma blocks of one encode of @p clip_id over
 *  @p reference_frames (how fixed-function backends are priced). A
 *  rung-carrying id ("name@scale") is priced at the rung's delivery
 *  resolution, nominal/scale. */
uint64_t
fullScaleBlocks(const std::string &clip_id, int reference_frames)
{
    const RungId rung = parseRungId(clip_id);
    const video::SuiteEntry &entry = video::suiteEntry(rung.clip);
    const int width = entry.nominalWidth / rung.scale;
    const int height = entry.nominalHeight / rung.scale;
    const uint64_t across = static_cast<uint64_t>((width + 15) / 16);
    const uint64_t down = static_cast<uint64_t>((height + 15) / 16);
    return across * down * static_cast<uint64_t>(reference_frames);
}

} // namespace

CostModel::CostModel(lab::Orchestrator &orch, CostModelConfig config)
    : orch_(orch), config_(std::move(config))
{
    if (config_.presets.empty()) {
        throw std::invalid_argument("serve: empty preset ladder");
    }
    // Resolve (and thereby validate) the primary profile up front, so a
    // typo'd --backend fails before any traffic is generated.
    primary_ = backend::resolveProfile(config_.backend).name;
}

std::string
CostModel::comboKey(const std::string &backend, const std::string &clip,
                    int crf, int preset)
{
    return backend + "|" + clip + "|" + std::to_string(crf) + "|" +
           std::to_string(preset);
}

std::string
CostModel::speedupKey(int preset, int cores)
{
    return std::to_string(preset) + "|" + std::to_string(cores);
}

double
CostModel::effectiveGhz(const std::string &backend) const
{
    if (config_.nominalGhz > 0.0) {
        return config_.nominalGhz;
    }
    return backend::resolveProfile(backend).clockGhz;
}

int
CostModel::effectiveCores(const std::string &backend) const
{
    if (config_.serverCores > 0) {
        return config_.serverCores;
    }
    return backend::resolveProfile(backend).cores;
}

lab::JobSpec
CostModel::specFor(const std::string &clip, int crf, int preset) const
{
    lab::JobSpec spec;
    spec.encoder = config_.encoder;
    const RungId rung = parseRungId(clip);
    spec.video = rung.clip;
    // The simulation proxy (divisor-scaled clip) can be too coarse to
    // represent the deepest rungs; measure the deepest encodable proxy
    // instead. Pricing (fullScaleBlocks, the divisor^2 extrapolation)
    // still uses the true rung resolution.
    const auto [pw, ph] = video::scaledSize(
        video::suiteEntry(rung.clip),
        video::SuiteScale{config_.divisor, config_.frames});
    spec.scale = video::clampDownscale(pw, ph, rung.scale);
    spec.crf = crf;
    spec.preset = preset;
    spec.divisor = config_.divisor;
    spec.frames = config_.frames;
    spec.maxTraceOps = config_.maxTraceOps;
    // The default profile keeps the pre-backend canonical key (JobSpec
    // normalises it away), so warm stores from before the backend field
    // existed still hit.
    spec.backend = primary_;
    return spec;
}

void
CostModel::resolve(const std::vector<std::string> &clips,
                   const std::vector<int> &crfs)
{
    resolveOn({primary_}, clips, crfs);
}

void
CostModel::resolveOn(const std::vector<std::string> &backends,
                     const std::vector<std::string> &clips,
                     const std::vector<int> &crfs)
{
    // Cost specs are one closed batch on the orchestrator: requested
    // here, resolved by one run() — cache-first against the store,
    // parallel across its workers. Duplicate combos dedupe to the same
    // handle for free. Fixed-function backends request nothing: they
    // are priced analytically from the clip's full-scale block count.
    struct Pending {
        std::string key;
        std::string backend;
        int preset = 0;
        size_t handle = 0;
    };
    std::vector<Pending> pending;
    for (const std::string &name : backends) {
        const backend::MachineProfile &prof = backend::resolveProfile(name);
        for (const std::string &clip : clips) {
            for (int crf : crfs) {
                for (int preset : config_.presets) {
                    const std::string key =
                        comboKey(prof.name, clip, crf, preset);
                    if (costs_.count(key) != 0) {
                        continue;
                    }
                    if (prof.kind == backend::Kind::Fixed) {
                        const uint64_t blocks = fullScaleBlocks(
                            clip, config_.referenceFrames);
                        Cost c;
                        c.seconds =
                            backend::fixedServiceSeconds(prof, blocks);
                        c.joules = backend::fixedEnergyJoules(prof, blocks);
                        costs_[key] = c;
                        continue;
                    }
                    lab::JobSpec spec = specFor(clip, crf, preset);
                    spec.backend = prof.name;
                    pending.push_back(
                        {key, prof.name, preset, orch_.request(spec)});
                }
            }
        }
    }
    // Per-preset parallel speedup from the makespans in the record of
    // the first clip, rung suffix stripped, at the first CRF. Without a
    // suffix that spec is one of the cost specs and dedupes; with one
    // it is requested on top.
    const std::string graph_clip = parseRungId(clips.front()).clip;
    std::vector<Pending> graphs;
    for (const std::string &name : backends) {
        const backend::MachineProfile &prof = backend::resolveProfile(name);
        if (prof.kind != backend::Kind::Core) {
            continue;
        }
        for (int preset : config_.presets) {
            if (speedups_.count(speedupKey(preset, effectiveCores(name)))) {
                continue;
            }
            lab::JobSpec spec = specFor(graph_clip, crfs.front(), preset);
            spec.backend = prof.name;
            graphs.push_back(
                {comboKey(prof.name, graph_clip, crfs.front(), preset),
                 prof.name, preset, orch_.request(spec)});
        }
    }
    orch_.run();
    for (const Pending &p : graphs) {
        const std::vector<uint64_t> &makespans =
            orch_.result(p.handle).encode.makespans;
        if (makespans.empty()) {
            throw std::runtime_error("serve: degenerate cost record for " +
                                     p.key);
        }
        const int cores = effectiveCores(p.backend);
        const double up = sched::speedupAt(makespans, cores);
        speedups_.emplace(speedupKey(p.preset, cores), up > 1.0 ? up : 1.0);
    }
    for (const Pending &p : pending) {
        const lab::JobResult &result = orch_.result(p.handle);
        const double ipc = result.core.ipc();
        if (result.encode.instructions == 0 || ipc <= 0.0) {
            throw std::runtime_error("serve: degenerate cost record for " +
                                     p.key);
        }
        const double scale =
            static_cast<double>(config_.divisor) *
            static_cast<double>(config_.divisor) *
            (static_cast<double>(config_.referenceFrames) /
             static_cast<double>(config_.frames));
        const double full_instructions =
            static_cast<double>(result.encode.instructions) * scale;
        const double single_core =
            full_instructions / (ipc * effectiveGhz(p.backend) * 1e9);
        const int cores = effectiveCores(p.backend);
        Cost c;
        c.seconds = single_core / speedups_.at(speedupKey(p.preset, cores));

        // Energy, in the order documented in the header: per-event
        // dynamic nanojoules scaled to the full clip, plus static watts
        // over the (parallel) service time the server is occupied.
        const backend::MachineProfile &prof = backend::profile(p.backend);
        c.joules = backend::dynamicNanojoules(prof, result.core) * scale *
                       1e-9 +
                   prof.energy.staticWatts * c.seconds;
        costs_[p.key] = c;
    }
}

const CostModel::Cost &
CostModel::costFor(const std::string &backend, const std::string &clip,
                   int crf, int preset) const
{
    const std::string name = backend::resolveProfile(backend).name;
    const auto it = costs_.find(comboKey(name, clip, crf, preset));
    if (it == costs_.end()) {
        throw std::out_of_range("serve: unresolved cost combo " +
                                comboKey(name, clip, crf, preset));
    }
    return it->second;
}

double
CostModel::serviceSeconds(const std::string &clip, int crf,
                          int preset) const
{
    return costFor(primary_, clip, crf, preset).seconds;
}

double
CostModel::serviceSecondsOn(const std::string &backend,
                            const std::string &clip, int crf,
                            int preset) const
{
    return costFor(backend, clip, crf, preset).seconds;
}

double
CostModel::energyJoulesOn(const std::string &backend,
                          const std::string &clip, int crf,
                          int preset) const
{
    return costFor(backend, clip, crf, preset).joules;
}

double
CostModel::energyJoules(const std::string &clip, int crf, int preset) const
{
    return costFor(primary_, clip, crf, preset).joules;
}

const std::vector<int> &
CostModel::presetLadder() const
{
    return config_.presets;
}

double
CostModel::speedup(int preset) const
{
    const auto it =
        speedups_.find(speedupKey(preset, effectiveCores(primary_)));
    if (it == speedups_.end()) {
        throw std::out_of_range("serve: no speedup for preset " +
                                std::to_string(preset));
    }
    return it->second;
}

} // namespace vepro::serve
