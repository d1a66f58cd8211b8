/**
 * @file
 * Table 1 — the vbench video list: name, resolution class, FPS, and
 * entropy. We print the paper's values next to the entropy actually
 * measured on our synthetic stand-ins, which is the calibration the
 * whole suite rests on.
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "video/metrics.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    auto scale = core::RunScale::fromArgs(argc, argv, {});

    core::Table table({"Video", "Resolution", "FPS", "Entropy (paper)",
                       "Entropy (measured)", "Scaled size"});
    for (const video::SuiteEntry &e : video::vbenchMini()) {
        video::Video clip = video::loadSuiteVideo(e, scale.suite);
        auto [w, h] = video::scaledSize(e, scale.suite);
        table.addRow({e.name, video::resolutionClass(e),
                      core::fmt(e.fps, 0), core::fmt(e.paperEntropy, 2),
                      core::fmt(video::measureEntropy(clip), 2),
                      std::to_string(w) + "x" + std::to_string(h)});
    }
    table.print("Table 1: the list of videos from vbench (synthetic "
                "stand-ins at 1/" +
                std::to_string(scale.suite.divisor) + " scale)");
    return 0;
}
