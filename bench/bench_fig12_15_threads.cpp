/**
 * @file
 * Figs. 12-15 — thread-scalability of SVT-AV1, Libaom, x265, and x264 on
 * game1 from 1 to 8 threads, repeated across the paper's four x264
 * operating points (presets 0/2/5 and CRF 51/50/30 on the x264 axis).
 *
 * This host has one core, so scaling is simulated: each encoder's task
 * graph (weights measured in instructions, real dependency edges) is
 * scheduled onto N cores and speedup = makespan(1)/makespan(N). See
 * DESIGN.md's substitution table.
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"

namespace
{

using namespace vepro;

encoders::EncodeResult
taskedEncode(const std::string &name, int crf, int preset,
             const video::Video &clip)
{
    auto enc = encoders::encoderByName(name);
    encoders::EncodeParams p;
    p.crf = crf;
    p.preset = preset;
    // Mix counters only: task weights come from totalOps().
    return enc->encode(clip, p, {}, true);
}

void
printCurve(core::Table &table, const std::string &label,
           const encoders::EncodeResult &r)
{
    auto curve = core::scalabilityCurve(r, 8);
    std::vector<std::string> row = {label};
    for (const core::ThreadPoint &p : curve) {
        row.push_back(core::fmt(p.speedup, 2));
    }
    row.push_back(core::fmt(curve.back().estSeconds, 2) + "s");
    table.addRow(row);
}

} // namespace

int
main(int argc, char **argv)
{
    auto scale = core::RunScale::fromArgs(argc, argv, {});
    // The scalability shapes need paper-scale superblock grids; default
    // to full resolution unless the caller restricted geometry.
    video::SuiteScale geometry = scale.suite;
    if (geometry.divisor == 8) {
        geometry.divisor = 1;  // 1920x1080 game1
        geometry.frames = 10;
    }
    video::Video clip = video::loadSuiteVideo("game1", geometry);
    std::fprintf(stderr, "clip: %dx%d, %d frames\n", clip.width(),
                 clip.height(), clip.frameCount());

    // The three non-x264 encoders are shared by all four figures.
    auto svt = taskedEncode("SVT-AV1", 50, 6, clip);
    std::fprintf(stderr, "  [SVT-AV1 encoded]\n");
    auto aom = taskedEncode("Libaom", 50, 6, clip);
    std::fprintf(stderr, "  [Libaom encoded]\n");
    auto x265 = taskedEncode("x265", 40, 2, clip);
    std::fprintf(stderr, "  [x265 encoded]\n");

    struct FigSpec {
        const char *figure;
        int x264_preset;
        int x264_crf;
    };
    const FigSpec figures[] = {
        {"Fig 12 (x264 preset 0, CRF 51)", 0, 51},
        {"Fig 13 (x264 preset 2, CRF 51)", 2, 51},
        {"Fig 14 (x264 preset 5, CRF 50)", 5, 50},
        {"Fig 15 (x264 preset 5, CRF 30)", 5, 30},
    };
    for (const FigSpec &fig : figures) {
        auto x264 = taskedEncode("x264", fig.x264_crf, fig.x264_preset, clip);
        core::Table table({"Encoder", "1T", "2T", "3T", "4T", "5T", "6T",
                           "7T", "8T", "est. time@8T"});
        printCurve(table, "SVT-AV1", svt);
        printCurve(table, "Libaom", aom);
        printCurve(table, "x265", x265);
        printCurve(table, "x264", x264);
        table.print(std::string(fig.figure) +
                    ": speedup vs simulated thread count (game1)");
    }
    std::printf("\nExpected shape: SVT-AV1 reaches ~6x at 8 threads (best "
                "from 4 threads on); x264 strong early then saturating; "
                "Libaom capped near 4x by its tiles; x265 ~1.3x.\n");
    return 0;
}
