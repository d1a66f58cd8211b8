#include "core/threadstudy.hpp"

#include <algorithm>
#include <stdexcept>

namespace vepro::core
{

using sched::Placement;
using sched::ScheduleResult;
using trace::OpClass;
using trace::TraceOp;

std::vector<ThreadPoint>
scalabilityCurve(const encoders::EncodeResult &result, int max_threads)
{
    if (result.taskGraph.empty()) {
        throw std::invalid_argument(
            "scalabilityCurve: encode lacks a task graph (pass "
            "build_tasks = true)");
    }
    const uint64_t single = sched::schedule(result.taskGraph, 1).makespan;
    const double instr_rate =
        result.wallSeconds > 0
            ? static_cast<double>(result.instructions) / result.wallSeconds
            : 0.0;

    std::vector<ThreadPoint> curve;
    for (int n = 1; n <= max_threads; ++n) {
        ScheduleResult sr = sched::schedule(result.taskGraph, n);
        ThreadPoint p;
        p.threads = n;
        p.makespan = sr.makespan;
        p.speedup = sr.speedupVs(single);
        p.occupancy = sr.occupancy;
        p.estSeconds = instr_rate > 0
                           ? static_cast<double>(sr.makespan) / instr_rate
                           : 0.0;
        curve.push_back(p);
    }
    return curve;
}

std::vector<TraceOp>
buildSystemTrace(const std::vector<TraceOp> &op_trace,
                 const sched::TaskGraph &graph, int threads,
                 const SystemTraceConfig &config)
{
    ScheduleResult sr = sched::schedule(graph, threads);

    // Time-ordered segments across all cores: executed tasks plus the
    // idle (spin-wait) gaps between them.
    struct Segment {
        uint64_t start;
        uint64_t end;
        int core;
        int task;  ///< -1 for a spin segment.
    };
    std::vector<Segment> segments;

    std::vector<std::vector<const Placement *>> per_core(
        static_cast<size_t>(threads));
    for (const Placement &p : sr.placements) {
        if (p.core >= 0 && p.core < threads) {
            per_core[static_cast<size_t>(p.core)].push_back(&p);
        }
    }
    for (int c = 0; c < threads; ++c) {
        auto &list = per_core[static_cast<size_t>(c)];
        std::sort(list.begin(), list.end(),
                  [](const Placement *a, const Placement *b) {
                      return a->start < b->start;
                  });
        uint64_t cursor = 0;
        for (const Placement *p : list) {
            if (p->start > cursor) {
                segments.push_back({cursor, p->start, c, -1});
            }
            segments.push_back({p->start, p->end, c, p->task});
            cursor = p->end;
        }
        if (cursor < sr.makespan) {
            segments.push_back({cursor, sr.makespan, c, -1});
        }
    }
    std::sort(segments.begin(), segments.end(),
              [](const Segment &a, const Segment &b) {
                  return a.start != b.start ? a.start < b.start
                                            : a.core < b.core;
              });

    static const uint64_t spin_site = trace::sitePc("core.spinwait");
    constexpr uint64_t kQueueLine = 0x7f000000ULL;

    // Sample spin iterations at the same op/instruction ratio as the
    // captured task trace (ops-in-trace / total task weight) so the
    // reconstructed stream keeps the socket's true spin/task balance
    // (each iteration emits 3 executed ops).
    uint64_t sampled = 0;
    for (const sched::Task &t : graph.tasks()) {
        sampled += std::min(t.opEnd, op_trace.size()) -
                   std::min(t.opBegin, op_trace.size());
    }
    const uint64_t weight = graph.totalWeight();
    const double ratio = weight > 0 ? static_cast<double>(sampled) /
                                          static_cast<double>(weight)
                                    : 0.0;

    std::vector<TraceOp> out;
    out.reserve(std::min(config.maxOps, op_trace.size() + (1u << 20)));
    for (const Segment &seg : segments) {
        if (out.size() >= config.maxOps) {
            break;
        }
        if (seg.task >= 0) {
            const sched::Task &t = graph.task(seg.task);
            size_t begin = std::min(t.opBegin, op_trace.size());
            size_t end = std::min(t.opEnd, op_trace.size());
            for (size_t i = begin; i < end && out.size() < config.maxOps;
                 ++i) {
                out.push_back(op_trace[i]);
            }
        } else {
            if (!config.pollingWaits) {
                continue;  // blocked workers execute nothing
            }
            // Spin-wait: the idle core polls the shared work queue; the
            // producer's enqueue invalidates the line each iteration, so
            // every poll load is a coherence miss.
            uint64_t idle = seg.end - seg.start;
            uint64_t iters = static_cast<uint64_t>(
                static_cast<double>(idle) * config.spinDuty * ratio / 3.0);
            for (uint64_t i = 0; i < iters && out.size() < config.maxOps;
                 ++i) {
                TraceOp inv;
                inv.pc = spin_site;
                inv.addr = kQueueLine;
                inv.cls = OpClass::Store;
                inv.foreign = true;
                out.push_back(inv);
                // The poll load chains to the previous iteration's load
                // (4 trace slots back), modelling the pause-paced polling
                // cadence of a real spin-wait loop.
                out.push_back({spin_site, kQueueLine, OpClass::Load, false,
                               4, 0, false});
                out.push_back({spin_site + 4, 0, OpClass::Alu, false, 1, 0,
                               false});
                out.push_back({spin_site + 8, 0, OpClass::BranchCond,
                               i + 1 < iters, 1, 0, false});
            }
        }
    }
    return out;
}

} // namespace vepro::core
