#ifndef VEPRO_SERVE_COSTMODEL_HPP
#define VEPRO_SERVE_COSTMODEL_HPP

/**
 * @file
 * Model-derived encode costs for the farm simulator, cache-first
 * through the lab ResultStore — now per machine profile (backend
 * registry, src/backend).
 *
 * Every (backend, clip, crf, preset) combo in a scenario resolves to
 * one lab::JobSpec, and one resolve()/resolveOn() is one closed batch
 * on the lab::Orchestrator (request() per spec, then one run()):
 * the instrumented encoder model produces the dynamic instruction
 * count and the core model — built from the backend's CoreConfig —
 * the achieved IPC, both persisted in the store. A warm store makes
 * policy and fleet sweeps replay without re-encoding anything; specs
 * on the default profile keep the exact pre-backend store key, so old
 * entries stay cache hits.
 *
 * Underneath the result store sits the orchestrator's trace cache
 * (lab::TraceCache), keyed by the encode-side spec fields only — the
 * backend is deliberately excluded. A fleet resolveOn() over N
 * backends therefore runs the instrumented encoder exactly once per
 * (clip, crf, preset): the first backend's spec captures the trace,
 * and the other N-1 replay the same file through their own core
 * configs at simulation speed (tests/test_serve.cpp pins the counts).
 *
 * Single-core service seconds on a core-model backend are
 *
 *     instructions * divisor^2 * (referenceFrames / frames)
 *     -----------------------------------------------------
 *                      ipc * ghz * 1e9
 *
 * i.e. the measured downscaled, frame-limited encode scaled back to
 * the full-size clip, retired at the simulated core's IPC — the
 * paper's framing that encode-time differences are instruction-count
 * differences, not IPC differences. Farm servers are multi-core, so
 * the single-core time is divided by a per-preset parallel speedup,
 * makespan(1) / makespan(cores), read from the task-graph makespans
 * in the record of the first clip (rung suffix stripped) at the first
 * CRF — one of the cost specs, so a warm resolve is store reads only.
 * Note that this graph is the cost scale's: at the defaults (divisor
 * 16, 2 frames) it has 6 tasks, whose 8-core schedule equals the
 * serial one, so the speedup is 1.0 at every preset and every service
 * time is a one-core time (DESIGN.md §14).
 *
 * Fixed-function backends (profile Kind::Fixed, e.g. "hw-enc") bypass
 * the core model entirely: service time is priced analytically from
 * the clip's full-scale 16x16 block count over referenceFrames
 * (setup + blocks * secondsPerBlock), independent of preset and CRF.
 *
 * Energy per encode (energyJoulesOn), evaluated in exactly this
 * order so a warm rerun reproduces the same bytes:
 *
 *     dynamic = backend::dynamicNanojoules(profile, stats) * scale * 1e-9
 *     joules  = dynamic + staticWatts * serviceSeconds
 *
 * with scale the same full-clip scale-up as above and serviceSeconds
 * the (parallel) wall time the server actually burns static power
 * for. Fixed-function backends use backend::fixedEnergyJoules.
 */

#include <string>
#include <unordered_map>
#include <vector>

#include "lab/orchestrator.hpp"
#include "serve/policy.hpp"

namespace vepro::serve
{

/** How specs are formed and costs scaled. */
struct CostModelConfig {
    std::string encoder = "SVT-AV1";
    /** Preset ladder, slowest (best quality) first. */
    std::vector<int> presets = {2, 4, 6, 8};

    // Run-scale of the measured specs (small: costs resolve fast).
    int divisor = 16;
    int frames = 2;
    uint64_t maxTraceOps = 150'000;

    /** Full-length clip frames the measurement is scaled up to
     *  (the suite's 5 s @ 30 fps). */
    int referenceFrames = 150;

    /** Primary machine profile ("" = backend::kDefaultProfile). */
    std::string backend;
    /** Explicit clock override (--ghz). 0 = each backend's own
     *  clockGhz; the default profile's 3.0 GHz is the historical
     *  hard-coded farm clock, so defaults reproduce old numbers. */
    double nominalGhz = 0.0;
    /** Explicit per-server core-count override (--server-cores).
     *  0 = each backend's own cores (default profile: 8). */
    int serverCores = 0;
};

/**
 * FleetCostOracle backed by the encoder models (see file docs).
 * resolve()/resolveOn() must run before the query methods; unresolved
 * combos throw.
 */
class CostModel final : public FleetCostOracle
{
  public:
    /** @param orch Orchestrator that resolve() requests the cost specs
     *  on and runs. Not owned. */
    CostModel(lab::Orchestrator &orch, CostModelConfig config);

    /**
     * Resolve every (clip, crf, ladder-preset) combo on the primary
     * backend: request the specs, run() them, memoise service seconds
     * and energy, and the per-preset speedups read from the records'
     * makespans. Idempotent per combo. @throws std::runtime_error on a
     * record without instructions, IPC or makespans, and
     * std::out_of_range when the makespans cannot answer the server's
     * core count exactly (sched::makespanAt).
     */
    void resolve(const std::vector<std::string> &clips,
                 const std::vector<int> &crfs);

    /** resolve() across several named profiles (fleet sweeps).
     *  Fixed-function backends are priced analytically, no requests. */
    void resolveOn(const std::vector<std::string> &backends,
                   const std::vector<std::string> &clips,
                   const std::vector<int> &crfs);

    double serviceSeconds(const std::string &clip, int crf,
                          int preset) const override;
    const std::vector<int> &presetLadder() const override;

    double serviceSecondsOn(const std::string &backend,
                            const std::string &clip, int crf,
                            int preset) const override;
    double energyJoulesOn(const std::string &backend,
                          const std::string &clip, int crf,
                          int preset) const override;

    /** energyJoulesOn for the primary backend. */
    double energyJoules(const std::string &clip, int crf,
                        int preset) const;

    /** Parallel speedup used for @p preset on the primary backend
     *  (post-resolve; for tests and the verbose scenario print). */
    double speedup(int preset) const;

    /** The JobSpec a combo maps to on the primary backend (exposed
     *  for tests). */
    lab::JobSpec specFor(const std::string &clip, int crf,
                         int preset) const;

    /** The resolved primary profile name (never empty). */
    const std::string &primaryBackend() const { return primary_; }

  private:
    struct Cost {
        double seconds = 0.0;
        double joules = 0.0;
    };

    static std::string comboKey(const std::string &backend,
                                const std::string &clip, int crf,
                                int preset);
    /** "preset|cores": the task graph depends on the preset and the
     *  schedule on the core count, never on the core geometry. */
    static std::string speedupKey(int preset, int cores);

    /** Effective clock for a profile: explicit override wins. */
    double effectiveGhz(const std::string &backend) const;
    /** Effective cores for a profile: explicit override wins. */
    int effectiveCores(const std::string &backend) const;

    const Cost &costFor(const std::string &backend,
                        const std::string &clip, int crf,
                        int preset) const;

    lab::Orchestrator &orch_;
    CostModelConfig config_;
    std::string primary_;
    std::unordered_map<std::string, Cost> costs_;
    /** Keyed by speedupKey. */
    std::unordered_map<std::string, double> speedups_;
};

} // namespace vepro::serve

#endif // VEPRO_SERVE_COSTMODEL_HPP
