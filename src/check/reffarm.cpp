/**
 * @file
 * Reference farm: serve::simulateFarm's event loop in the form it had
 * before the FIFO dispatch and per-group cost tables.
 *
 * Waiting jobs sit in per-shard earliest-deadline-first heaps ordered
 * by (deadline, arrival seq), and a dispatch scans every shard's top.
 * Every service time is an oracle query at dispatch, made through a
 * per-backend CostOracle view in a heterogeneous pool. The static and
 * adaptive preset rules are written inline against that oracle, and
 * the queue-wait percentiles come from a fully sorted copy.
 * check::Fuzzer's farm target runs both serve::simulateFarm signatures
 * against this on random sorted arrivals and demands identical
 * outcomes, SLA rows, energy and horizons, bit for bit.
 *
 * Do not "improve" this file for speed; its value is that every rule is
 * written in the most literal form possible.
 */

#include "check/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

namespace vepro::check
{

using serve::CostOracle;
using serve::FarmResult;
using serve::FleetCostOracle;
using serve::JobOutcome;
using serve::UploadJob;

namespace
{

/** One waiting job: EDF order is (deadline, arrival seq). */
struct Waiting {
    double deadline = 0.0;
    size_t seq = 0;  ///< Arrival index: deterministic tie-break.
    size_t job = 0;  ///< Index into the arrivals vector.
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

/** Earliest-deadline job across every shard (the caller checks that
 *  one is queued). */
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

/** The per-backend lens a heterogeneous dispatch consults: base-class
 *  queries answer for ONE profile. */
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

/** One group of interchangeable servers, all free at t = 0. */
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

/** The static and adaptive rules, as policy.cpp had them. */
int
choosePreset(const RefFarmPolicy &policy, const UploadJob &job, double now,
             double deadline, const CostOracle &cost)
{
    if (!policy.adaptive) {
        return policy.preset;
    }
    const std::vector<int> &ladder = cost.presetLadder();
    if (ladder.empty()) {
        throw std::logic_error("serve: empty preset ladder");
    }
    const double slack = deadline - now;
    for (int preset : ladder) {
        if (cost.serviceSeconds(job.clip, job.crf, preset) <= slack) {
            return preset;
        }
    }
    return ladder.back();
}

FarmResult
runFarm(const std::vector<UploadJob> &arrivals,
        const serve::FarmConfig &config, const RefFarmPolicy &policy,
        std::vector<Group> &groups, const FleetCostOracle *energy,
        Fault fault)
{
    if (groups.empty() || config.shards < 1) {
        throw std::invalid_argument("serve: farm needs >= 1 server/shard");
    }
    FarmResult out;
    out.sla.policy = policy.adaptive
                         ? std::string("adaptive")
                         : "static-p" + std::to_string(policy.preset);
    out.sla.offered = arrivals.size();

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
        // Earliest-freeing group, ties to the earlier one (the farm-tie
        // fault hands them to the later one).
        size_t pick = 0;
        for (size_t g = 1; g < groups.size(); ++g) {
            const double t = groups[g].free.top();
            const double best = groups[pick].free.top();
            if (t < best || (fault == Fault::FarmTie && t == best)) {
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
            choosePreset(policy, job, start, deadline, *group.view);
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

RefFarm::RefFarm(const serve::FarmConfig &config, RefFarmPolicy policy,
                 Fault fault)
    : config_(config), policy_(policy), fault_(fault)
{
}

FarmResult
RefFarm::run(const std::vector<UploadJob> &arrivals,
             const CostOracle &cost) const
{
    std::vector<Group> groups;
    if (config_.servers >= 1) {
        groups.emplace_back("", cost, config_.servers);
    }
    return runFarm(arrivals, config_, policy_, groups, nullptr, fault_);
}

FarmResult
RefFarm::run(const std::vector<UploadJob> &arrivals,
             const FleetCostOracle &cost,
             const std::vector<serve::ServerGroup> &pool) const
{
    std::vector<BackendView> views;
    views.reserve(pool.size());  // Groups point into it: never reallocate.
    std::vector<Group> groups;
    for (const serve::ServerGroup &group : pool) {
        if (group.servers < 1) {
            continue;
        }
        views.emplace_back(cost, group.backend);
        groups.emplace_back(group.backend, views.back(), group.servers);
    }
    return runFarm(arrivals, config_, policy_, groups, &cost, fault_);
}

} // namespace vepro::check
