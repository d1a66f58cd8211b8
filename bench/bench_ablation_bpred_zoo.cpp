/**
 * @file
 * Ablation (beyond the paper) — a wider predictor zoo on the same branch
 * traces as Figs. 8-10: bimodal and tournament below/between the paper's
 * Gshare points, a perceptron, and extra TAGE budgets, quantifying how
 * much of the TAGE win is history length vs raw budget.
 *
 * All eleven predictors score each clip in ONE encode pass: the probe's
 * branch stream fans through a trace::MuxSink into eleven streaming
 * bpred::StreamRunner sinks, so nothing materialises a branch-trace
 * vector — memory stays O(1) regardless of trace length, and the encode
 * is not repeated per predictor.
 */

#include <cstdio>
#include <memory>

#include "bpred/runner.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"
#include "lab/figures.hpp"
#include "trace/sink.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    auto scale = core::RunScale::fromArgs(argc, argv, {"videos"});
    auto encoder = encoders::encoderByName("SVT-AV1");

    const std::vector<std::string> zoo = {
        "bimodal-2KB",  "bimodal-32KB",   "gshare-2KB",  "gshare-32KB",
        "tournament-8KB", "tournament-32KB", "perceptron-8KB", "tage-8KB",
        "tage-64KB",    "tage-256KB", "tage-sc-l-64KB"};

    std::vector<std::string> header = {"Video"};
    for (const auto &s : zoo) {
        header.push_back(s);
    }
    core::Table table(header);

    for (const video::SuiteEntry &e : lab::sweepClips(scale)) {
        video::Video clip = video::loadSuiteVideo(e, scale.suite);
        encoders::EncodeParams params;
        params.preset = 6;
        params.crf = 40;
        trace::ProbeConfig pc;
        pc.collectBranches = true;
        pc.maxBranches = 1'500'000;
        pc.branchWarmupOps = 1'000'000;

        std::vector<std::unique_ptr<bpred::BranchPredictor>> preds;
        std::vector<std::unique_ptr<bpred::StreamRunner>> runners;
        trace::MuxSink mux;
        for (const std::string &spec : zoo) {
            preds.push_back(bpred::makePredictor(spec));
            runners.push_back(
                std::make_unique<bpred::StreamRunner>(*preds.back()));
            mux.add(runners.back().get());
        }
        encoder->encode(clip, params, pc, false, &mux);

        std::vector<std::string> row = {e.name};
        for (const auto &runner : runners) {
            row.push_back(core::fmt(runner->result().missRatePercent(), 2));
        }
        table.addRow(row);
    }
    table.print("Ablation: predictor zoo miss rates (%) on SVT-AV1 branch "
                "traces (preset 6, CRF 40)");
    std::printf("\nExpected shape: bimodal worst, tournament/perceptron "
                "between the gshare points, TAGE best with diminishing "
                "returns past 64KB.\n");
    return 0;
}
