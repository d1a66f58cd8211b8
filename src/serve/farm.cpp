#include "serve/farm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace vepro::serve
{

namespace
{

/** Nearest-rank order statistic @p q of @p values, selected in place:
 *  nth_element picks the value a full sort would put at that rank. */
double
percentile(std::vector<double> &values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    const double pos = q * static_cast<double>(values.size());
    size_t idx = static_cast<size_t>(std::ceil(pos));
    idx = idx > 0 ? idx - 1 : 0;
    idx = std::min(idx, values.size() - 1);
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(values.begin(), nth, values.end());
    return *nth;
}

/** Where @p preset sits on @p ladder: a preset off it has no cost. */
size_t
rungOf(const std::vector<int> &ladder, int preset)
{
    const auto it = std::find(ladder.begin(), ladder.end(), preset);
    if (it == ladder.end()) {
        throw std::out_of_range("serve: preset " + std::to_string(preset) +
                                " is not on the preset ladder");
    }
    return static_cast<size_t>(it - ladder.begin());
}

/**
 * A group's server free times as a flat 4-ary min-heap. The farm reads
 * only the earliest time and then replaces it with the dispatched
 * job's end: one sift-down, where std::priority_queue's pop and push
 * take two sifts of a binary heap, twice as deep. Servers in a group
 * are interchangeable, so any exact min-heap gives the same outcomes
 * bit for bit.
 *
 * A full family of four children is reduced as two pairs and then
 * their winners, written as index arithmetic and a select rather than a
 * branch per child: which child of a busy group frees first is close
 * to random, so such branches mispredict often.
 */
class FreeTimes
{
  public:
    explicit FreeTimes(int servers)
        : heap_(static_cast<size_t>(servers), 0.0)
    {
    }

    double earliest() const { return heap_.front(); }

    /** Replace the earliest free time with @p t. */
    void
    replaceEarliest(double t)
    {
        const size_t n = heap_.size();
        size_t hole = 0;
        for (size_t child = 1; child < n; child = 4 * hole + 1) {
            size_t least = child;
            if (child + 4 <= n) {
                const size_t a = child + (heap_[child + 1] < heap_[child]);
                const size_t b =
                    child + 2 + (heap_[child + 3] < heap_[child + 2]);
                least = heap_[b] < heap_[a] ? b : a;
            } else {
                for (size_t c = child + 1; c < n; ++c) {
                    if (heap_[c] < heap_[least]) {
                        least = c;
                    }
                }
            }
            if (!(heap_[least] < t)) {
                break;
            }
            heap_[hole] = heap_[least];
            hole = least;
        }
        heap_[hole] = t;
    }

  private:
    std::vector<double> heap_;
};

/** One group of interchangeable servers, all free at t = 0: the backend
 *  its outcomes carry, its cost table and its servers' free times. The
 *  table holds one row per combo and one column per ladder rung; joules
 *  is filled only when the run prices energy. */
struct Group {
    Group(const std::string &name, int servers)
        : backend(name), free(servers)
    {
    }

    std::string backend;
    std::vector<double> seconds;
    std::vector<double> joules;
    FreeTimes free;
};

/**
 * The farm's event loop over @p pool's non-empty groups. Each group's
 * table is filled up front, one oracle query per (combo, rung) cell:
 * from @p cost directly when @p fleet is null (no energy), else from
 * @p fleet on the group's backend, with joules. A dispatch takes the
 * group whose earliest server frees first, ties to the earlier group,
 * and the oldest admitted job: with one latency target for every job,
 * EDF order (deadline, then arrival) over sorted arrivals is arrival
 * order, so the queue is a FIFO. Per-job outcomes are written only
 * when @p outcomes is not null.
 */
FarmResult
runFarm(const ArrivalSet &set, const FarmConfig &config,
        const Policy &policy, const CostOracle &cost,
        const std::vector<ServerGroup> &pool, const FleetCostOracle *fleet,
        std::vector<JobOutcome> *outcomes)
{
    const std::vector<UploadJob> &arrivals = set.jobs();
    std::vector<Group> groups;
    for (const ServerGroup &group : pool) {
        if (group.servers >= 1) {
            groups.emplace_back(group.backend, group.servers);
        }
    }
    if (groups.empty() || config.shards < 1) {
        throw std::invalid_argument("serve: farm needs >= 1 server/shard");
    }
    const std::vector<int> &ladder = cost.presetLadder();
    const size_t rungs = ladder.size();
    for (Group &group : groups) {
        group.seconds.reserve(set.combos().size() * rungs);
        for (const UploadJob *job : set.combos()) {
            for (int preset : ladder) {
                if (fleet == nullptr) {
                    group.seconds.push_back(
                        cost.serviceSeconds(job->clip, job->crf, preset));
                    continue;
                }
                group.seconds.push_back(fleet->serviceSecondsOn(
                    group.backend, job->clip, job->crf, preset));
                group.joules.push_back(fleet->energyJoulesOn(
                    group.backend, job->clip, job->crf, preset));
            }
        }
    }

    FarmResult out;
    out.sla.policy = policy.name();
    out.sla.offered = arrivals.size();
    if (outcomes != nullptr) {
        outcomes->clear();
        outcomes->reserve(arrivals.size());
    }

    std::vector<size_t> fifo;  // Admitted arrivals; [head, end) wait.
    fifo.reserve(arrivals.size());
    size_t head = 0;

    std::vector<double> queue_waits;
    queue_waits.reserve(arrivals.size());
    double service_sum = 0.0;
    double horizon = 0.0;
    int prev_preset = -1;
    size_t next_arrival = 0;

    const auto admit = [&](size_t job_index) {
        const UploadJob &job = arrivals[job_index];
        if (config.admissionLimit != 0 &&
            fifo.size() - head >= config.admissionLimit) {
            if (outcomes != nullptr) {
                JobOutcome &reject = outcomes->emplace_back();
                reject.id = job.id;
                reject.arrivalSec = job.arrivalSec;
                reject.rejected = true;
            }
            ++out.sla.rejected;
            return;
        }
        fifo.push_back(job_index);
    };

    while (next_arrival < arrivals.size() || head < fifo.size()) {
        if (head == fifo.size()) {
            admit(next_arrival++);  // An empty queue always admits.
        }
        // The next dispatch happens when the earliest server frees (or
        // immediately, for jobs that arrived while it was idle). Admit
        // everything that arrives up to that instant first, so admission
        // control sees the true queue contents. Nothing dispatches
        // during the pass, so the group picked before it still frees
        // first after it.
        size_t pick = 0;
        for (size_t g = 1; g < groups.size(); ++g) {
            if (groups[g].free.earliest() < groups[pick].free.earliest()) {
                pick = g;
            }
        }
        Group &group = groups[pick];
        const double t_free = group.free.earliest();
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival].arrivalSec <= t_free) {
            admit(next_arrival++);
        }

        const size_t job_index = fifo[head++];
        const UploadJob &job = arrivals[job_index];
        const double start = std::max(t_free, job.arrivalSec);
        const double deadline = job.arrivalSec + config.latencyTargetSec;
        const size_t row = set.comboOf(job_index) * rungs;
        const std::span<const double> seconds(group.seconds.data() + row,
                                              rungs);
        const int preset =
            policy.choosePreset(deadline - start, ladder, seconds);
        const size_t rung = rungOf(ladder, preset);
        const double service = seconds[rung];
        const double end = start + service;
        group.free.replaceEarliest(end);
        const bool missed = end > deadline;
        if (outcomes != nullptr) {
            JobOutcome &done = outcomes->emplace_back();
            done.id = job.id;
            done.arrivalSec = job.arrivalSec;
            done.preset = preset;
            done.startSec = start;
            done.endSec = end;
            done.missedDeadline = missed;
            done.backend = group.backend;
        }

        ++out.sla.completed;
        if (missed) {
            ++out.sla.deadlineMisses;
        }
        if (prev_preset >= 0 && preset != prev_preset) {
            ++out.sla.presetSwitches;
        }
        prev_preset = preset;
        queue_waits.push_back(start - job.arrivalSec);
        service_sum += service;
        if (fleet != nullptr) {
            out.energyJoules += group.joules[row + rung];
        }
        horizon = std::max(horizon, end);
    }

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

ArrivalSet::ArrivalSet(const std::vector<UploadJob> &arrivals)
    : jobs_(arrivals)
{
    combo_of_.reserve(arrivals.size());
    std::map<std::pair<std::string_view, int>, uint32_t> ids;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const UploadJob &job = arrivals[i];
        if (i > 0 && !(arrivals[i - 1].arrivalSec <= job.arrivalSec)) {
            throw std::invalid_argument(
                "serve: farm arrivals must be sorted by arrivalSec (job " +
                std::to_string(job.id) + ")");
        }
        const auto [it, added] = ids.try_emplace(
            {job.clip, job.crf}, static_cast<uint32_t>(first_.size()));
        if (added) {
            first_.push_back(&job);
        }
        combo_of_.push_back(it->second);
    }
}

FarmResult
simulateFarm(const ArrivalSet &arrivals, const FarmConfig &config,
             const Policy &policy, const CostOracle &cost,
             std::vector<JobOutcome> *outcomes)
{
    return runFarm(arrivals, config, policy, cost, {{"", config.servers}},
                   nullptr, outcomes);
}

FarmResult
simulateFarm(const ArrivalSet &arrivals, const FarmConfig &config,
             const Policy &policy, const FleetCostOracle &cost,
             const std::vector<ServerGroup> &pool,
             std::vector<JobOutcome> *outcomes)
{
    return runFarm(arrivals, config, policy, cost, pool, &cost, outcomes);
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
