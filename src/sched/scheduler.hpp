#ifndef VEPRO_SCHED_SCHEDULER_HPP
#define VEPRO_SCHED_SCHEDULER_HPP

/**
 * @file
 * Discrete-event list scheduler: executes a TaskGraph on N simulated
 * cores and reports the makespan, per-core assignment, and occupancy.
 */

#include <cstdint>
#include <vector>

#include "sched/taskgraph.hpp"

namespace vepro::sched
{

/** Placement of one task in the simulated execution. */
struct Placement {
    int task = -1;
    int core = -1;
    uint64_t start = 0;  ///< Start time in work units (instructions).
    uint64_t end = 0;    ///< Completion time.
};

/** Outcome of scheduling a graph onto N cores. */
struct ScheduleResult {
    uint64_t makespan = 0;            ///< Total simulated time.
    std::vector<Placement> placements;  ///< One per task, task-id order.
    double occupancy = 0.0;           ///< busy-core-time / (makespan * N).

    /** Speedup of this schedule relative to a single-core run. */
    double
    speedupVs(uint64_t single_core_makespan) const
    {
        return makespan == 0
                   ? 1.0
                   : static_cast<double>(single_core_makespan) /
                         static_cast<double>(makespan);
    }
};

/**
 * Greedy list scheduling: whenever a core is free, it takes the ready
 * task whose dependencies completed earliest (FIFO by readiness,
 * deterministic tie-break by task id). This matches the work-queue
 * behaviour of the thread pools in real encoders closely enough for
 * scalability shapes.
 *
 * @param graph Validated task graph (deps reference earlier ids).
 * @param cores Number of simulated cores, >= 1.
 */
ScheduleResult schedule(const TaskGraph &graph, int cores);

} // namespace vepro::sched

#endif // VEPRO_SCHED_SCHEDULER_HPP
