#include "serve/farm.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>

namespace vepro::serve
{

namespace
{

/** One waiting job: EDF order is (deadline, arrival seq). */
struct Waiting {
    double deadline = 0.0;
    size_t seq = 0;     ///< Arrival index: deterministic tie-break.
    size_t job = 0;     ///< Index into the arrivals vector.
};

struct WaitingLater {
    bool
    operator()(const Waiting &a, const Waiting &b) const
    {
        if (a.deadline != b.deadline) {
            return a.deadline > b.deadline;
        }
        return a.seq > b.seq;
    }
};

using ShardQueue =
    std::priority_queue<Waiting, std::vector<Waiting>, WaitingLater>;

/** Earliest-deadline job across every shard (nullopt-free: caller
 *  checks emptiness via the queued counter). */
size_t
popEarliest(std::vector<ShardQueue> &shards)
{
    int best = -1;
    for (size_t i = 0; i < shards.size(); ++i) {
        if (shards[i].empty()) {
            continue;
        }
        if (best < 0 ||
            WaitingLater{}(shards[static_cast<size_t>(best)].top(),
                           shards[i].top())) {
            best = static_cast<int>(i);
        }
    }
    const size_t job = shards[static_cast<size_t>(best)].top().job;
    shards[static_cast<size_t>(best)].pop();
    return job;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double pos = q * static_cast<double>(sorted.size());
    size_t idx = static_cast<size_t>(std::ceil(pos));
    idx = idx > 0 ? idx - 1 : 0;
    idx = std::min(idx, sorted.size() - 1);
    return sorted[idx];
}

/** The per-backend lens a heterogeneous dispatch consults the policy
 *  through: base-class queries answer for ONE profile. */
class BackendView final : public CostOracle
{
  public:
    BackendView(const FleetCostOracle &fleet, const std::string &backend)
        : fleet_(fleet), backend_(backend)
    {
    }

    double
    serviceSeconds(const std::string &clip, int crf,
                   int preset) const override
    {
        return fleet_.serviceSecondsOn(backend_, clip, crf, preset);
    }

    const std::vector<int> &
    presetLadder() const override
    {
        return fleet_.presetLadder();
    }

  private:
    const FleetCostOracle &fleet_;
    const std::string &backend_;
};

/** One group of interchangeable servers, all free at t = 0: the
 *  backend its outcomes carry, the cost view its dispatches consult,
 *  and a min-heap of its servers' free times. */
struct Group {
    Group(std::string name, const CostOracle &cost, int servers)
        : backend(std::move(name)), view(&cost),
          free({}, std::vector<double>(static_cast<size_t>(servers), 0.0))
    {
    }

    std::string backend;
    const CostOracle *view;
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        free;
};

/**
 * The farm's event loop over @p groups (none empty). A dispatch takes
 * the group whose earliest server frees first, ties to the earlier group.
 * @p energy, when set, prices each completed job on its group's backend.
 */
FarmResult
runFarm(const std::vector<UploadJob> &arrivals, const FarmConfig &config,
        const Policy &policy, std::vector<Group> &groups,
        const FleetCostOracle *energy)
{
    if (groups.empty() || config.shards < 1) {
        throw std::invalid_argument("serve: farm needs >= 1 server/shard");
    }
    FarmResult out;
    out.sla.policy = policy.name();
    out.sla.offered = arrivals.size();
    out.outcomes.reserve(arrivals.size());

    std::vector<ShardQueue> shards(static_cast<size_t>(config.shards));
    size_t queued = 0;

    std::vector<double> queue_waits;
    double service_sum = 0.0;
    double horizon = 0.0;
    int prev_preset = -1;
    size_t next_arrival = 0;

    const auto admit = [&](size_t job_index) {
        const UploadJob &job = arrivals[job_index];
        if (config.admissionLimit != 0 && queued >= config.admissionLimit) {
            JobOutcome reject;
            reject.id = job.id;
            reject.arrivalSec = job.arrivalSec;
            reject.rejected = true;
            out.outcomes.push_back(reject);
            ++out.sla.rejected;
            return;
        }
        Waiting w;
        w.deadline = job.arrivalSec + config.latencyTargetSec;
        w.seq = job_index;
        w.job = job_index;
        shards[job_index % shards.size()].push(w);
        ++queued;
    };

    while (next_arrival < arrivals.size() || queued > 0) {
        if (queued == 0) {
            admit(next_arrival++);
            continue;
        }
        // The next dispatch happens when the earliest server frees (or
        // immediately, for jobs that arrived while it was idle). Admit
        // everything that arrives up to that instant first, so EDF and
        // admission control see the true queue contents.
        size_t pick = 0;
        for (size_t g = 1; g < groups.size(); ++g) {
            if (groups[g].free.top() < groups[pick].free.top()) {
                pick = g;
            }
        }
        Group &group = groups[pick];
        const double t_free = group.free.top();
        if (next_arrival < arrivals.size() &&
            arrivals[next_arrival].arrivalSec <= t_free) {
            admit(next_arrival++);
            continue;
        }

        const size_t job_index = popEarliest(shards);
        --queued;
        const UploadJob &job = arrivals[job_index];
        const double start = std::max(t_free, job.arrivalSec);
        const double deadline = job.arrivalSec + config.latencyTargetSec;
        const int preset =
            policy.choosePreset(job, start, deadline, *group.view);
        const double service =
            group.view->serviceSeconds(job.clip, job.crf, preset);
        const double end = start + service;
        group.free.pop();
        group.free.push(end);

        JobOutcome done;
        done.id = job.id;
        done.arrivalSec = job.arrivalSec;
        done.preset = preset;
        done.startSec = start;
        done.endSec = end;
        done.missedDeadline = end > deadline;
        done.backend = group.backend;
        out.outcomes.push_back(done);

        ++out.sla.completed;
        if (done.missedDeadline) {
            ++out.sla.deadlineMisses;
        }
        if (prev_preset >= 0 && preset != prev_preset) {
            ++out.sla.presetSwitches;
        }
        prev_preset = preset;
        queue_waits.push_back(start - job.arrivalSec);
        service_sum += service;
        if (energy != nullptr) {
            out.energyJoules += energy->energyJoulesOn(
                group.backend, job.clip, job.crf, preset);
        }
        horizon = std::max(horizon, end);
    }

    std::sort(queue_waits.begin(), queue_waits.end());
    out.sla.p50QueueSec = percentile(queue_waits, 0.50);
    out.sla.p99QueueSec = percentile(queue_waits, 0.99);
    if (out.sla.completed > 0) {
        out.sla.deadlineMissRate =
            static_cast<double>(out.sla.deadlineMisses) /
            static_cast<double>(out.sla.completed);
        out.sla.meanServiceSec =
            service_sum / static_cast<double>(out.sla.completed);
    }
    if (!arrivals.empty()) {
        horizon = std::max(horizon, arrivals.back().arrivalSec);
    }
    if (horizon > 0.0) {
        out.sla.throughputPerMin =
            static_cast<double>(out.sla.completed) / (horizon / 60.0);
    }
    out.horizonSec = horizon;
    return out;
}

} // namespace

FarmResult
simulateFarm(const std::vector<UploadJob> &arrivals,
             const FarmConfig &config, const Policy &policy,
             const CostOracle &cost)
{
    std::vector<Group> groups;
    if (config.servers >= 1) {
        groups.emplace_back("", cost, config.servers);
    }
    return runFarm(arrivals, config, policy, groups, nullptr);
}

FarmResult
simulateFarm(const std::vector<UploadJob> &arrivals,
             const FarmConfig &config, const Policy &policy,
             const FleetCostOracle &cost,
             const std::vector<ServerGroup> &pool)
{
    std::vector<BackendView> views;
    views.reserve(pool.size());  // Groups point into it: never reallocate.
    std::vector<Group> groups;
    for (const ServerGroup &group : pool) {
        if (group.servers < 1) {
            continue;
        }
        views.emplace_back(cost, group.backend);
        groups.emplace_back(group.backend, views.back(), group.servers);
    }
    return runFarm(arrivals, config, policy, groups, &cost);
}

core::Table
slaTable(const std::vector<SlaReport> &reports)
{
    core::Table table({"policy", "offered", "completed", "rejected",
                       "p50 queue (s)", "p99 queue (s)", "throughput/min",
                       "miss rate", "preset switches", "mean service (s)"});
    for (const SlaReport &r : reports) {
        table.addRow({r.policy, std::to_string(r.offered),
                      std::to_string(r.completed),
                      std::to_string(r.rejected), core::fmt(r.p50QueueSec),
                      core::fmt(r.p99QueueSec),
                      core::fmt(r.throughputPerMin),
                      core::fmt(r.deadlineMissRate, 4),
                      std::to_string(r.presetSwitches),
                      core::fmt(r.meanServiceSec)});
    }
    return table;
}

} // namespace vepro::serve
