/**
 * @file
 * Table 2 — instruction mix per video for SVT-AV1 at preset 8, CRF 63:
 * total instructions plus the Branch / Load / Store / AVX / SSE / Other
 * percentage breakdown, as Pin reported it in the paper.
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
    encoders::EncodeParams params;
    params.preset = 8;
    params.crf = 63;

    core::Table table({"Video", "# Insts.", "Branch", "Load", "Store",
                       "AVX", "SSE", "Other"});
    for (const video::SuiteEntry &e : core::selectedVideos(scale)) {
        video::Video clip = video::loadSuiteVideo(e, scale.suite);
        encoders::EncodeResult r = encoder->encode(clip, params);
        auto pct = [&](trace::MixCategory c) {
            return core::fmt(r.mix.categoryPercent(c), 1);
        };
        table.addRow({e.name,
                      core::fmtSci(static_cast<double>(r.instructions)),
                      pct(trace::MixCategory::Branch),
                      pct(trace::MixCategory::Load),
                      pct(trace::MixCategory::Store),
                      pct(trace::MixCategory::Avx),
                      pct(trace::MixCategory::Sse),
                      pct(trace::MixCategory::Other)});
    }
    table.print("Table 2: instruction mix in % (SVT-AV1, preset 8, CRF 63)");
    std::printf("\nPaper ranges: Branch 3.3-6.9, Load 25.8-29.4, "
                "Store 12.9-15.5, AVX 29.2-34.2, SSE 0.2-1.0, "
                "Other 17.6-23.3\n");
    return 0;
}
