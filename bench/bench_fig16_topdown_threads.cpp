/**
 * @file
 * Fig. 16 — top-down analysis versus thread count for the four encoders
 * on game1. The paper's finding: Libaom, SVT-AV1, and x264 keep the same
 * slot breakdown as threads rise, while x265 becomes markedly more
 * backend-bound — the signature of one primary thread doing the work
 * while helpers wait.
 *
 * The socket-wide instruction stream per thread count is reconstructed
 * from the scheduled task graph (core/threadstudy.hpp): executed task
 * ops in time order, idle cores filled with coherence-missing work-queue
 * spin loops.
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"
#include "lab/progress.hpp"
#include "uarch/core.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    core::RunScale scale = core::RunScale::fromArgs(argc, argv);
    video::SuiteScale geometry = scale.suite;
    if (geometry.divisor == 8) {
        geometry.divisor = 4;
        geometry.frames = 8;
    }
    video::Video clip = video::loadSuiteVideo("game1", geometry);

    core::Table table({"Encoder", "Threads", "Retiring", "Bad-spec",
                       "Frontend", "Backend", "IPC/core"});
    // This figure replays reconstructed socket-wide traces, which needs
    // the materialised op trace (random access across task op ranges),
    // so the encode streams into a VectorSink; the four encoders are
    // independent and run on scale.jobs workers.
    const std::vector<std::string> names = {"Libaom", "SVT-AV1", "x264",
                                            "x265"};
    std::vector<std::vector<std::vector<std::string>>> rows(names.size());
    core::parallelFor(names.size(), scale.jobs, [&](size_t i) {
        const std::string &name = names[i];
        auto enc = encoders::encoderByName(name);
        encoders::EncodeParams p;
        p.crf = enc->crfRange() == 63 ? 40 : 32;
        p.preset = enc->presetInverted() ? 2 : 6;
        trace::ProbeConfig pc;
        pc.collectOps = true;
        pc.maxOps = 1'200'000;
        pc.opWindow = 60'000;
        pc.opInterval = 300'000;
        trace::VectorSink captured;
        auto r = enc->encode(clip, p, pc, true, &captured);

        core::SystemTraceConfig trace_cfg;
        // x265's thread pool polls (spin-waits); the others block.
        trace_cfg.pollingWaits =
            enc->threadModel() == encoders::ThreadModel::SerialSpine;
        for (int threads : {1, 2, 4, 8}) {
            auto system_trace = core::buildSystemTrace(
                captured.ops(), r.taskGraph, threads, trace_cfg);
            uarch::Core core;
            uarch::CoreStats s = core.run(system_trace);
            rows[i].push_back(
                {name, std::to_string(threads),
                 core::fmt(s.slots.fraction(s.slots.retiring), 3),
                 core::fmt(s.slots.fraction(s.slots.badSpec), 3),
                 core::fmt(s.slots.fraction(s.slots.frontend), 3),
                 core::fmt(s.slots.fraction(s.slots.backend), 3),
                 core::fmt(s.ipc(), 2)});
        }
        // Serialised via Progress: this line is emitted from a worker.
        lab::Progress::standard().linef("  [%s done]", name.c_str());
    });
    for (const auto &encoder_rows : rows) {
        for (const auto &row : encoder_rows) {
            table.addRow(row);
        }
    }
    table.print("Fig 16: top-down analysis vs thread count (game1)");
    std::printf("\nExpected shape: Libaom / SVT-AV1 / x264 roughly flat "
                "across thread counts; x265's backend share grows "
                "sharply.\n");
    return 0;
}
