/**
 * @file
 * Thread-scaling example: build the task graph of one encode, schedule
 * it onto 1..N simulated cores, and print the speedup curve plus a
 * Gantt-style per-core summary — the paper's Section 4.6 workflow on a
 * single clip.
 *
 * Usage: thread_scaling [encoder] [max-threads]
 *   e.g. thread_scaling x265 8
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/report.hpp"
#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"
#include "sched/scheduler.hpp"
#include "video/suite.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    const std::string name = argc > 1 ? argv[1] : "SVT-AV1";
    const int max_threads = argc > 2 ? std::atoi(argv[2]) : 8;

    video::SuiteScale scale;
    scale.divisor = 2;  // scaling shapes need a realistic superblock grid
    scale.frames = 10;
    video::Video clip = video::loadSuiteVideo("game1", scale);

    auto encoder = encoders::encoderByName(name);
    encoders::EncodeParams params;
    params.crf = encoder->crfRange() == 63 ? 40 : 32;
    params.preset = encoder->presetInverted() ? 2 : 6;

    // Mix counters only: task weights come from the op count.
    encoders::EncodeResult r =
        encoder->encode(clip, params, {}, /*build_tasks=*/true);
    std::printf("%s: %zu tasks, total weight %s instructions, critical "
                "path %s (parallelism bound %.2f)\n\n",
                name.c_str(), r.taskGraph.size(),
                core::fmtCount(r.taskGraph.totalWeight()).c_str(),
                core::fmtCount(r.taskGraph.criticalPath()).c_str(),
                static_cast<double>(r.taskGraph.totalWeight()) /
                    static_cast<double>(r.taskGraph.criticalPath()));

    core::Table table({"Threads", "Makespan", "Speedup", "Occupancy",
                       "Est. time (s)"});
    for (const core::ThreadPoint &p :
         core::scalabilityCurve(r, max_threads)) {
        table.addRow({std::to_string(p.threads), core::fmtCount(p.makespan),
                      core::fmt(p.speedup, 2), core::fmt(p.occupancy, 2),
                      core::fmt(p.estSeconds, 2)});
    }
    table.print(name + " thread scalability (game1, simulated cores)");

    // Per-core busy share at max threads.
    sched::ScheduleResult sr = sched::schedule(r.taskGraph, max_threads);
    std::vector<uint64_t> busy(static_cast<size_t>(max_threads), 0);
    for (const sched::Placement &p : sr.placements) {
        if (p.core >= 0) {
            busy[static_cast<size_t>(p.core)] += p.end - p.start;
        }
    }
    std::printf("\nper-core busy share at %d threads:", max_threads);
    for (int c = 0; c < max_threads; ++c) {
        std::printf(" c%d=%.0f%%", c,
                    100.0 * static_cast<double>(busy[static_cast<size_t>(c)]) /
                        static_cast<double>(sr.makespan));
    }
    std::printf("\n");
    return 0;
}
