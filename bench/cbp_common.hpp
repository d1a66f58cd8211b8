#ifndef VEPRO_BENCH_CBP_COMMON_HPP
#define VEPRO_BENCH_CBP_COMMON_HPP

/**
 * @file
 * Shared driver for the CBP predictor figures (8-10): capture a branch
 * trace from an instrumented SVT-AV1 encode of each clip (warmed past
 * the first frames, like the paper's mid-run 1B-instruction interval),
 * then replay it through the paper's four predictor configurations.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bpred/runner.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"
#include "lab/figures.hpp"
#include "lab/progress.hpp"

namespace vepro::bench
{

/** The paper's Fig. 8-10 predictor set. */
inline const std::vector<std::string> &
paperPredictors()
{
    static const std::vector<std::string> specs = {
        "gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB"};
    return specs;
}

/** Run one CBP figure: capture traces at (preset, crf), evaluate all
 *  four predictors per clip, print MPKI and miss-rate tables. */
inline int
runCbpFigure(int argc, char **argv, const char *figure, int preset, int crf)
{
    auto scale = core::RunScale::fromArgs(argc, argv, {"videos", "jobs"});
    auto encoder = encoders::encoderByName("SVT-AV1");

    std::vector<std::string> header = {"Video"};
    for (const std::string &s : paperPredictors()) {
        header.push_back(s);
    }
    core::Table mpki(header);
    core::Table rate(header);

    // One fused encode per clip: all four predictors score the branch
    // stream live through a MuxSink, so no branch trace is materialised.
    // Clips are independent and run on scale.jobs worker threads.
    std::vector<video::SuiteEntry> videos = lab::sweepClips(scale);
    std::vector<std::vector<bpred::RunResult>> results(videos.size());
    std::vector<uint64_t> dropped(videos.size(), 0);
    core::parallelFor(videos.size(), scale.jobs, [&](size_t i) {
        video::Video clip = video::loadSuiteVideo(videos[i], scale.suite);
        encoders::EncodeParams params;
        params.preset = preset;
        params.crf = crf;

        trace::ProbeConfig pc;
        pc.collectBranches = true;
        pc.maxBranches = 2'000'000;
        // Start the trace past the keyframe, "roughly halfway through".
        pc.branchWarmupOps = 2'000'000;

        std::vector<std::unique_ptr<bpred::BranchPredictor>> preds;
        std::vector<bpred::StreamRunner> runners;
        trace::MuxSink mux;
        runners.reserve(paperPredictors().size());
        for (const std::string &spec : paperPredictors()) {
            preds.push_back(bpred::makePredictor(spec));
            runners.emplace_back(*preds.back());
            mux.add(&runners.back());
        }
        encoders::EncodeResult r =
            encoder->encode(clip, params, pc, false, &mux);

        for (bpred::StreamRunner &runner : runners) {
            runner.setInstructions(r.branchTraceInstructions);
            results[i].push_back(runner.result());
        }
        dropped[i] = r.droppedBranches;
    });

    // Reported after the workers, in clip order, so two runs print the
    // same lines whatever order the clips finish in.
    for (size_t i = 0; i < videos.size(); ++i) {
        lab::Progress::standard().linef(
            "  [%s: %llu branches]", videos[i].name.c_str(),
            static_cast<unsigned long long>(results[i].front().branches));
        if (dropped[i] > 0) {
            lab::Progress::standard().linef(
                "  warning: %s hit the branch cap (%llu branches "
                "dropped); MPKI covers the recorded window only",
                videos[i].name.c_str(),
                static_cast<unsigned long long>(dropped[i]));
        }
        std::vector<std::string> mpki_row = {videos[i].name};
        std::vector<std::string> rate_row = {videos[i].name};
        for (const bpred::RunResult &rr : results[i]) {
            mpki_row.push_back(core::fmt(rr.mpki(), 2));
            rate_row.push_back(core::fmt(rr.missRatePercent(), 2));
        }
        mpki.addRow(mpki_row);
        rate.addRow(rate_row);
    }
    mpki.print(std::string(figure) + ": simulated MPKI per video (preset " +
               std::to_string(preset) + ", CRF " + std::to_string(crf) + ")");
    rate.print(std::string(figure) + " (companion): miss rate in percent");
    std::printf("\nExpected shape: MPKI(gshare-2KB) > MPKI(gshare-32KB) and "
                "MPKI(tage-8KB) > MPKI(tage-64KB); TAGE beats Gshare at "
                "comparable budgets.\n");
    return 0;
}

} // namespace vepro::bench

#endif // VEPRO_BENCH_CBP_COMMON_HPP
