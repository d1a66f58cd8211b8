#ifndef VEPRO_CORE_THREADSTUDY_HPP
#define VEPRO_CORE_THREADSTUDY_HPP

/**
 * @file
 * Thread-scalability study plumbing (Figs. 12-16).
 *
 * The encoder models emit their real task graphs (weights measured in
 * instructions, dependencies from their threading structure); the
 * discrete-event scheduler places them on N simulated cores. Speedup is
 * makespan(1)/makespan(N).
 *
 * For the top-down-vs-threads study, buildSystemTrace() reconstructs the
 * instruction stream the whole socket executes: every core's task ops in
 * simulated-time order, with idle cores filled by work-queue spin-wait
 * loops whose polled line is invalidated by the producer (modelled as
 * foreign stores). An encoder that divides work evenly has almost no
 * idle time and its merged trace matches the single-thread one; an
 * encoder with a serial spine (x265) spends most of its slots in
 * coherence-missing spin loads — exactly the growing backend-boundedness
 * the paper observes.
 */

#include <cstdint>
#include <vector>

#include "encoders/encoder_model.hpp"
#include "sched/scheduler.hpp"
#include "trace/probe.hpp"

namespace vepro::core
{

/** Scalability result for one encoder at one thread count. */
struct ThreadPoint {
    int threads = 1;
    uint64_t makespan = 0;     ///< In instructions (work units).
    double speedup = 1.0;      ///< vs the same graph on one core.
    double occupancy = 1.0;    ///< Busy fraction of core-time.
    double estSeconds = 0.0;   ///< makespan / measured instr-rate.
};

/**
 * Schedule @p result's task graph on 1..max_threads cores.
 *
 * @param result      An encode produced with build_tasks = true.
 * @param max_threads Largest core count to evaluate (paper uses 8).
 */
std::vector<ThreadPoint> scalabilityCurve(
    const encoders::EncodeResult &result, int max_threads);

/** Knobs for the merged-socket trace reconstruction. */
struct SystemTraceConfig {
    /**
     * Whether idle workers poll the work queue (x265's thread pool spins
     * before sleeping) or block on a futex (the other encoders). Polling
     * cores execute coherence-missing spin loops that show up in the
     * socket's slot accounting; blocked cores execute nothing.
     */
    bool pollingWaits = true;
    /**
     * Fraction of each wait interval actually spent polling before the
     * pool parks the thread (x265 spins for a bounded window, then
     * sleeps). The rest of the idle time executes nothing.
     */
    double spinDuty = 0.015;
    /** Cap on emitted ops. */
    size_t maxOps = 3'000'000;
};

/**
 * Reconstruct the socket-wide instruction stream for @p threads cores.
 *
 * @param op_trace Full-run op trace the task graph indexes into.
 * @param graph    Task graph from the same encode.
 * @param threads  Core count.
 */
std::vector<trace::TraceOp> buildSystemTrace(
    const std::vector<trace::TraceOp> &op_trace,
    const sched::TaskGraph &graph, int threads,
    const SystemTraceConfig &config = {});

} // namespace vepro::core

#endif // VEPRO_CORE_THREADSTUDY_HPP
