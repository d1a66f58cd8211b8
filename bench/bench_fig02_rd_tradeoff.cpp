/**
 * @file
 * Fig. 2 — the rate-distortion / runtime trade-off on game1:
 *  (a) PSNR BD-Rate (vs the x264 anchor) against execution time per
 *      encoder — the paper's "AV1 buys bitrate with runtime" plot;
 *  (b) PSNR against execution time for SVT-AV1 across CRF — diminishing
 *      quality returns for runtime.
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"
#include "video/metrics.hpp"

namespace
{

struct Curve {
    std::vector<vepro::video::RdPoint> rd;
    double totalSeconds = 0.0;
};

Curve
rdCurve(const vepro::encoders::EncoderModel &enc,
        const vepro::video::Video &clip, const std::vector<int> &crfs)
{
    Curve c;
    for (int crf : crfs) {
        vepro::encoders::EncodeParams p;
        p.crf = crf;
        p.preset = enc.presetInverted() ? 5 : 4;
        auto r = enc.encode(clip, p);
        c.rd.push_back({r.bitrateKbps, r.psnrDb});
        c.totalSeconds += r.wallSeconds;
    }
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vepro;
    auto scale = core::RunScale::fromArgs(argc, argv, {});
    // Rate-distortion comparisons need blocks that are small relative to
    // content features; at 1/8 scale a 16x16 macroblock covers what a
    // 128x128 block would at full resolution, flattering the AVC model.
    video::SuiteScale geometry = scale.suite;
    if (geometry.divisor == 8) {
        geometry.divisor = 4;
        geometry.frames = 6;
    }
    video::Video clip = video::loadSuiteVideo("game1", geometry);

    // (a) BD-Rate vs execution time, x264 as the reference encoder.
    const std::vector<int> av1_crfs = {16, 28, 40, 52};
    std::vector<int> x26x_crfs;
    for (int crf : av1_crfs) {
        x26x_crfs.push_back(core::mapCrfToX26x(crf));
    }

    auto x264 = encoders::encoderByName("x264");
    Curve anchor = rdCurve(*x264, clip, x26x_crfs);

    core::Table fig2a({"Encoder", "BD-Rate vs x264 (%)", "Total time (s)"});
    fig2a.addRow({"x264", "0.00", core::fmt(anchor.totalSeconds, 2)});
    for (const auto &enc : encoders::allEncoders()) {
        if (enc->name() == "x264") {
            continue;
        }
        Curve c = rdCurve(*enc,
                          clip, enc->crfRange() == 63 ? av1_crfs : x26x_crfs);
        double bd = video::bdRate(anchor.rd, c.rd);
        fig2a.addRow({enc->name(), core::fmt(bd, 2),
                      core::fmt(c.totalSeconds, 2)});
    }
    fig2a.print("Fig 2a: PSNR BD-Rate vs execution time (game1; negative "
                "BD-Rate = less bitrate at equal quality)");

    // (b) PSNR vs execution time for SVT-AV1 across the CRF sweep.
    auto svt = encoders::encoderByName("SVT-AV1");
    core::Table fig2b({"CRF", "Time (s)", "PSNR (dB)", "Bitrate (kbps)"});
    for (int crf : {8, 16, 24, 32, 40, 48, 56}) {
        encoders::EncodeParams p;
        p.crf = crf;
        p.preset = 4;
        auto r = svt->encode(clip, p);
        fig2b.addRow({std::to_string(crf), core::fmt(r.wallSeconds, 3),
                      core::fmt(r.psnrDb, 2), core::fmt(r.bitrateKbps, 0)});
    }
    fig2b.print("Fig 2b: PSNR vs execution time for SVT-AV1 (game1, "
                "preset 4)");
    std::printf("\nExpected shape: 2a: AV1-family encoders reach negative "
                "BD-Rate at much higher runtime; 2b: quality rises with "
                "runtime with diminishing returns.\n");
    return 0;
}
