#include "serve/farm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

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
 * A group's server free times as per-cell lanes. Every server starts in
 * the lane of never-used servers, all free at t = 0. Each cost-table
 * cell (combo row + rung) has a FIFO lane of its own: a dispatch takes
 * the server at the head of the lane with the least head and appends
 * it, freeing at the job's end, to the tail of the job's cell lane. A
 * winner tree over the lane heads gives the least head; a dispatch
 * replays the popped lane's path, and the target lane's when that lane
 * was empty, so it costs O(log lanes) whatever the group's size.
 *
 * Exact by construction (DESIGN §14). The earliest free time never
 * decreases: dispatch k replaces the minimum t_k with end_k = start_k +
 * s_k >= t_k, since s_k >= 0 (runFarm rejects any other cell), and
 * every other free time was already >= t_k. start_k = max(t_k, arrival
 * of the FIFO head) and FIFO heads arrive in sorted order, so starts
 * never decrease, across groups too, because the picked group's
 * earliest time is the global minimum. A lane holds only ends start +
 * s of its cell's one constant s, appended in dispatch order, and
 * floating-point addition is monotone: every lane is sorted, and the
 * least lane head is the least free time. Servers in a group are
 * interchangeable (the farm reads only the value), so any exact
 * minimum gives the same outcomes bit for bit.
 *
 * A head's key is its free time's bit pattern, which orders like the
 * value here: free times start at +0 and grow only by service times
 * >= 0, so none is negative, -0 or NaN. An empty lane's key is all
 * ones, above every such pattern, +inf included, so it never wins.
 */
class FreeTimes
{
  public:
    FreeTimes(int servers, size_t cells)
        : servers_(static_cast<size_t>(servers)), lanes_(cells + 1),
          leaves_(std::bit_ceil(cells + 1)), key_(leaves_, kEmpty),
          win_(2 * leaves_)
    {
        for (size_t s = 0; s < servers_.size(); ++s) {
            servers_[s] = {0.0, static_cast<uint32_t>(s + 1)};
        }
        servers_.back().next = kNone;
        lanes_[cells] = {0, static_cast<uint32_t>(servers_.size() - 1)};
        key_[cells] = std::bit_cast<uint64_t>(0.0);
        for (size_t i = 0; i < leaves_; ++i) {
            win_[leaves_ + i] = static_cast<uint32_t>(i);
        }
        for (size_t k = leaves_ - 1; k != 0; --k) {
            win_[k] = better(win_[2 * k], win_[2 * k + 1]);
        }
    }

    double earliest() const { return std::bit_cast<double>(key_[win_[1]]); }

    /** Replace the earliest free time with @p t, the end of a job
     *  priced by table cell @p cell. */
    void
    replaceEarliest(double t, size_t cell)
    {
        const uint32_t from = win_[1];
        Lane &popped = lanes_[from];
        const uint32_t s = popped.head;
        popped.head = servers_[s].next;
        key_[from] = popped.head == kNone
                         ? kEmpty
                         : std::bit_cast<uint64_t>(servers_[popped.head].free);

        servers_[s] = {t, kNone};
        Lane &to = lanes_[cell];
        const bool was_empty = to.head == kNone;
        if (was_empty) {
            to.head = s;
            key_[cell] = std::bit_cast<uint64_t>(t);
        } else {
            servers_[to.tail].next = s;
        }
        to.tail = s;
        replay(from);
        if (was_empty && cell != from) {
            replay(cell);
        }
    }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;
    static constexpr uint64_t kEmpty = UINT64_MAX;

    struct Server {
        double free;
        uint32_t next;  ///< Next server in its lane, or kNone.
    };
    struct Lane {
        uint32_t head = kNone;
        uint32_t tail = kNone;  ///< Valid only while head != kNone.
    };

    uint32_t better(uint32_t a, uint32_t b) const
    {
        return key_[b] < key_[a] ? b : a;
    }

    /** Recompute the winners on the path from lane @p i's leaf. */
    void
    replay(size_t i)
    {
        for (size_t k = (leaves_ + i) / 2; k != 0; k /= 2) {
            win_[k] = better(win_[2 * k], win_[2 * k + 1]);
        }
    }

    std::vector<Server> servers_;
    std::vector<Lane> lanes_;  ///< One per cell, then the unused lane.
    size_t leaves_;            ///< Lanes rounded up to a power of two.
    std::vector<uint64_t> key_;   ///< Per leaf: head's bits or kEmpty.
    std::vector<uint32_t> win_;   ///< Winner tree; win_[leaves_ + i] = i.
};

/** One group of interchangeable servers, all free at t = 0: the backend
 *  its outcomes carry, its cost table and its servers' free times. The
 *  table holds one row per combo and one column per ladder rung; joules
 *  is filled only when the run prices energy. */
struct Group {
    Group(const std::string &name, int servers, size_t cells)
        : backend(name), free(servers, cells)
    {
    }

    std::string backend;
    std::vector<double> seconds;
    std::vector<double> joules;
    FreeTimes free;
};

/** @p seconds, unless the lanes cannot order it: a service time must be
 *  finite and >= 0 (see FreeTimes). */
double
checkedSeconds(double seconds, const UploadJob &job, int preset,
               const std::string &backend)
{
    if (seconds >= 0.0 && seconds <= std::numeric_limits<double>::max()) {
        return seconds;
    }
    throw std::invalid_argument(
        "serve: service time " + std::to_string(seconds) + " s for clip '" +
        job.clip + "' CRF " + std::to_string(job.crf) + " preset " +
        std::to_string(preset) + " on " +
        (backend.empty() ? std::string("the default backend")
                         : "backend '" + backend + "'") +
        " is not a finite time >= 0");
}

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
    const std::vector<int> &ladder = cost.presetLadder();
    const size_t rungs = ladder.size();
    const size_t cells = set.combos().size() * rungs;
    std::vector<Group> groups;
    for (const ServerGroup &group : pool) {
        if (group.servers >= 1) {
            groups.emplace_back(group.backend, group.servers, cells);
        }
    }
    if (groups.empty() || config.shards < 1) {
        throw std::invalid_argument("serve: farm needs >= 1 server/shard");
    }
    for (Group &group : groups) {
        group.seconds.reserve(cells);
        for (const UploadJob *job : set.combos()) {
            for (int preset : ladder) {
                const double seconds =
                    fleet == nullptr
                        ? cost.serviceSeconds(job->clip, job->crf, preset)
                        : fleet->serviceSecondsOn(group.backend, job->clip,
                                                  job->crf, preset);
                group.seconds.push_back(
                    checkedSeconds(seconds, *job, preset, group.backend));
                if (fleet != nullptr) {
                    group.joules.push_back(fleet->energyJoulesOn(
                        group.backend, job->clip, job->crf, preset));
                }
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
        group.free.replaceEarliest(end, row + rung);
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
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const UploadJob &job = arrivals[i];
        if (i > 0 && !(arrivals[i - 1].arrivalSec <= job.arrivalSec)) {
            throw std::invalid_argument(
                "serve: farm arrivals must be sorted by arrivalSec (job " +
                std::to_string(job.id) + ")");
        }
        // Traffic draws from a handful of combos, so a flat search of
        // the first arrivals, CRF before clip, beats a map lookup.
        uint32_t id = 0;
        while (id < first_.size() && !(first_[id]->crf == job.crf &&
                                       first_[id]->clip == job.clip)) {
            ++id;
        }
        if (id == first_.size()) {
            first_.push_back(&job);
        }
        combo_of_.push_back(id);
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
