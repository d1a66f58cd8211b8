#include "sched/scheduler.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

namespace vepro::sched
{

ScheduleResult
schedule(const TaskGraph &graph, int cores)
{
    if (cores < 1) {
        throw std::invalid_argument("schedule: need at least one core");
    }
    graph.validate();

    const auto &tasks = graph.tasks();
    const size_t n = tasks.size();
    ScheduleResult result;
    result.placements.resize(n);
    if (n == 0) {
        result.occupancy = 0.0;
        return result;
    }

    // Remaining-dependency counts and reverse edges.
    std::vector<int> pending(n, 0);
    std::vector<std::vector<int>> consumers(n);
    for (const Task &t : tasks) {
        pending[static_cast<size_t>(t.id)] = static_cast<int>(t.deps.size());
        for (int dep : t.deps) {
            consumers[static_cast<size_t>(dep)].push_back(t.id);
        }
    }

    // Ready queue ordered by (ready time, task id).
    using ReadyEntry = std::pair<uint64_t, int>;
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                        std::greater<>> ready;
    std::vector<uint64_t> ready_time(n, 0);
    for (const Task &t : tasks) {
        if (t.deps.empty()) {
            ready.push({0, t.id});
        }
    }

    // Core free times, smallest first.
    std::priority_queue<std::pair<uint64_t, int>,
                        std::vector<std::pair<uint64_t, int>>,
                        std::greater<>> free_cores;
    for (int c = 0; c < cores; ++c) {
        free_cores.push({0, c});
    }

    // Event-driven, work-conserving loop: at each instant, pair every
    // idle core with the longest-ready task; otherwise advance time to
    // the next readiness or core-completion event.
    uint64_t busy = 0;
    size_t scheduled = 0;
    uint64_t now = 0;
    while (scheduled < n) {
        bool task_ready = !ready.empty() && ready.top().first <= now;
        bool core_idle = !free_cores.empty() && free_cores.top().first <= now;
        if (task_ready && core_idle) {
            auto [rt, id] = ready.top();
            ready.pop();
            auto [core_free, core] = free_cores.top();
            free_cores.pop();

            const Task &t = tasks[static_cast<size_t>(id)];
            uint64_t end = now + t.weight;
            result.placements[static_cast<size_t>(id)] = {id, core, now, end};
            busy += t.weight;
            ++scheduled;
            free_cores.push({end, core});

            for (int consumer : consumers[static_cast<size_t>(id)]) {
                auto ci = static_cast<size_t>(consumer);
                ready_time[ci] = std::max(ready_time[ci], end);
                if (--pending[ci] == 0) {
                    ready.push({ready_time[ci], consumer});
                }
            }
            result.makespan = std::max(result.makespan, end);
            continue;
        }
        // Advance to the next event.
        uint64_t next = UINT64_MAX;
        if (!ready.empty() && ready.top().first > now) {
            next = std::min(next, ready.top().first);
        }
        if (!free_cores.empty() && free_cores.top().first > now) {
            next = std::min(next, free_cores.top().first);
        }
        if (next == UINT64_MAX) {
            break;  // deadlock: unreachable tasks (reported below)
        }
        now = next;
    }

    if (scheduled != n) {
        throw std::invalid_argument("schedule: graph has unreachable tasks");
    }
    result.occupancy =
        result.makespan == 0
            ? 0.0
            : static_cast<double>(busy) /
                  (static_cast<double>(result.makespan) * cores);
    return result;
}

std::vector<uint64_t>
makespanCurve(const TaskGraph &graph)
{
    const int cores = static_cast<int>(std::min(
        graph.size(), static_cast<size_t>(kMaxCurveCores)));
    std::vector<uint64_t> curve;
    curve.reserve(static_cast<size_t>(cores));
    for (int k = 1; k <= cores; ++k) {
        curve.push_back(schedule(graph, k).makespan);
    }
    return curve;
}

uint64_t
makespanAt(const std::vector<uint64_t> &curve, int cores)
{
    if (curve.empty() || cores < 1 ||
        (cores > kMaxCurveCores &&
         curve.size() == static_cast<size_t>(kMaxCurveCores))) {
        throw std::out_of_range("sched: no exact makespan on " +
                                std::to_string(cores) + " cores in a " +
                                std::to_string(curve.size()) +
                                "-entry curve");
    }
    return curve[std::min(static_cast<size_t>(cores), curve.size()) - 1];
}

double
speedupAt(const std::vector<uint64_t> &curve, int cores)
{
    ScheduleResult wide;
    wide.makespan = makespanAt(curve, cores);
    return wide.speedupVs(makespanAt(curve, 1));
}

} // namespace vepro::sched
