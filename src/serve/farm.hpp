#ifndef VEPRO_SERVE_FARM_HPP
#define VEPRO_SERVE_FARM_HPP

/**
 * @file
 * Discrete-event encode-farm simulator and its SLA metrics layer.
 *
 * The farm models N identical multi-core servers behind one FIFO queue
 * with admission control. Every job's deadline is its arrival plus the
 * one latencyTargetSec, so over sorted arrivals earliest-deadline-first
 * order (deadline, then arrival) is arrival order and a FIFO is EDF; a
 * per-job latency target would need an EDF heap back. Arrivals come
 * from serve::generateTraffic; per-job service times come from a
 * CostOracle (serve::CostModel in production — real encoder-model
 * numbers, cache-first through the ResultStore), queried once per
 * (clip, crf, rung) cell into a per-group cost table at the start of a
 * run; the preset each job runs at is chosen by a serve::Policy at
 * dispatch time from that table's row.
 *
 * The simulation itself is single-threaded and pure: the outcome is a
 * function of (arrivals, config, policy, oracle) only — never of the
 * host's --jobs value, which parallelises only the cost resolution.
 * That is what makes the SLA table byte-identical across worker counts
 * (pinned in tests/test_serve.cpp).
 *
 * SLA definitions:
 *  - queue latency   = dispatch - arrival (seconds waiting, excluding
 *    service); reported as p50/p99 over completed jobs;
 *  - deadline miss   = completion > arrival + latencyTargetSec;
 *    missRate = misses / completed;
 *  - throughput      = completed jobs per simulated minute, over the
 *    horizon max(window end, last completion);
 *  - preset switches = dispatches whose chosen preset differs from the
 *    previous dispatch's (0 for any static policy by construction);
 *  - rejected        = arrivals turned away by admission control
 *    (queue already at admissionLimit); rejected jobs never enter the
 *    latency population.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "serve/policy.hpp"
#include "serve/traffic.hpp"

namespace vepro::serve
{

/** Farm shape and SLA contract. */
struct FarmConfig {
    int servers = 4;      ///< Identical encode servers (>= 1).
    /** Kept only because ledger/ledger.cpp reads it; delete it
     *  together with that read. The farm's one FIFO does not use it
     *  (simulateFarm only rejects values < 1); check::RefFarm's
     *  sharded reference queues do. */
    int shards = 4;
    /** Max jobs waiting (not yet started) before arrivals are
     *  rejected. 0 = unbounded. */
    size_t admissionLimit = 0;
    /** SLA: a job should complete within this many seconds of its
     *  arrival. One target for every job, which is what makes the
     *  FIFO dispatch order earliest-deadline-first. */
    double latencyTargetSec = 60.0;
};

/** One homogeneous slice of a heterogeneous server pool: @p servers
 *  machines of the named backend profile ("" = default). */
struct ServerGroup {
    std::string backend;
    int servers = 1;
};

/** Per-job outcome, in dispatch order (rejected jobs in arrival order
 *  at the point of rejection). Exposed for tests and tooling. */
struct JobOutcome {
    size_t id = 0;
    double arrivalSec = 0.0;
    bool rejected = false;
    int preset = 0;          ///< Chosen by the policy (0 if rejected).
    double startSec = 0.0;   ///< Dispatch time.
    double endSec = 0.0;     ///< Completion time.
    bool missedDeadline = false;
    /** Profile of the server that ran the job (heterogeneous overload
     *  only; empty in the homogeneous farm and for rejected jobs). */
    std::string backend;
};

/** The SLA metrics layer: one row of the per-policy table. */
struct SlaReport {
    std::string policy;
    size_t offered = 0;    ///< Arrivals presented to the farm.
    size_t completed = 0;
    size_t rejected = 0;
    double p50QueueSec = 0.0;
    double p99QueueSec = 0.0;
    double throughputPerMin = 0.0;
    double deadlineMissRate = 0.0;  ///< misses / completed, in [0, 1].
    size_t deadlineMisses = 0;
    size_t presetSwitches = 0;
    double meanServiceSec = 0.0;
};

struct FarmResult {
    SlaReport sla;
    std::vector<JobOutcome> outcomes;
    /** Modelled energy over all completed jobs (heterogeneous overload
     *  only — the plain CostOracle has no energy channel). */
    double energyJoules = 0.0;
    /** max(last completion, last arrival): the window fleet economics
     *  charge server-hours over. */
    double horizonSec = 0.0;
};

/**
 * Run the farm over @p arrivals under @p policy. Pure and
 * deterministic. Throws std::invalid_argument unless the arrivals are
 * sorted by arrivalSec (the generateTraffic contract; NaN times fail
 * too), and std::out_of_range when the policy picks a preset that is
 * not on cost.presetLadder(). The config.servers identical servers are
 * one group (see below) whose cost table comes from @p cost directly:
 * no backend, no energy.
 */
FarmResult simulateFarm(const std::vector<UploadJob> &arrivals,
                        const FarmConfig &config, const Policy &policy,
                        const CostOracle &cost);

/**
 * Heterogeneous overload: the pool is @p pool's groups, in order
 * (config.servers is ignored; admission and latency target still
 * apply). Each group keeps a min-heap of its servers' free times,
 * carries its backend, and fills its cost table from the
 * FleetCostOracle's *On methods on that backend (seconds and joules),
 * so adaptive switching sees the costs of the machine actually
 * dispatching the job. A dispatch goes to the group whose earliest
 * server frees first; ties break toward the earlier group —
 * deterministic, like everything else here. Both overloads run the
 * same event loop and throw the same errors.
 */
FarmResult simulateFarm(const std::vector<UploadJob> &arrivals,
                        const FarmConfig &config, const Policy &policy,
                        const FleetCostOracle &cost,
                        const std::vector<ServerGroup> &pool);

/**
 * Render per-policy reports as the SLA table (markdown/JSON via
 * core::Table). Deterministic: same reports, same bytes — the
 * serve-smoke CI leg diffs two runs' toJson() output.
 */
core::Table slaTable(const std::vector<SlaReport> &reports);

} // namespace vepro::serve

#endif // VEPRO_SERVE_FARM_HPP
