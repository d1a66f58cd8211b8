/**
 * @file
 * Fig. 3 — op-mix for each video as CRF rises (SVT-AV1): the stacked
 * Branch/Load/Store/AVX/SSE/Other shares, with the paper's observation
 * that the AVX share grows with CRF.
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    auto scale = core::RunScale::fromArgs(argc, argv, {"videos"});
    auto encoder = encoders::encoderByName("SVT-AV1");

    core::Table table({"Video", "CRF", "Branch", "Load", "Store", "AVX",
                       "SSE", "Other"});
    for (const video::SuiteEntry &e : core::selectedVideos(scale)) {
        video::Video clip = video::loadSuiteVideo(e, scale.suite);
        for (int crf : core::crfSweepAv1()) {
            encoders::EncodeParams p;
            p.crf = crf;
            p.preset = 4;
            encoders::EncodeResult r = encoder->encode(clip, p);
            auto pct = [&](trace::MixCategory c) {
                return core::fmt(r.mix.categoryPercent(c), 1);
            };
            table.addRow({e.name, std::to_string(crf),
                          pct(trace::MixCategory::Branch),
                          pct(trace::MixCategory::Load),
                          pct(trace::MixCategory::Store),
                          pct(trace::MixCategory::Avx),
                          pct(trace::MixCategory::Sse),
                          pct(trace::MixCategory::Other)});
        }
    }
    table.print("Fig 3: op-mix for each video; CRF increases within each "
                "cluster (SVT-AV1, preset 4)");
    std::printf("\nExpected shape: the AVX share grows as CRF rises.\n");
    return 0;
}
