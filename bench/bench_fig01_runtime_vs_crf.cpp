/**
 * @file
 * Fig. 1 — execution time vs CRF for the five encoders on game1. The
 * paper's point: SVT-AV1 sits roughly an order of magnitude above the
 * x264/x265/VP9 cluster at every quality point, with libaom between.
 * We print wall time and modeled instructions (the paper's later
 * figures show the two track each other).
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    auto scale = core::RunScale::fromArgs(argc, argv, {});
    video::Video clip = video::loadSuiteVideo("game1", scale.suite);

    core::Table time_table({"Encoder", "CRF10", "CRF20", "CRF30", "CRF40",
                            "CRF50", "CRF60"});
    core::Table inst_table = time_table;
    for (const auto &enc : encoders::allEncoders()) {
        std::vector<std::string> times = {enc->name()};
        std::vector<std::string> insts = {enc->name()};
        for (int crf : core::crfSweepAv1()) {
            encoders::EncodeParams p;
            p.crf = enc->crfRange() == 63 ? crf : core::mapCrfToX26x(crf);
            p.preset = enc->presetInverted() ? 5 : 4;
            encoders::EncodeResult r = enc->encode(clip, p);
            times.push_back(core::fmt(r.wallSeconds, 3) + "s");
            insts.push_back(core::fmt(r.instructions / 1e6, 1) + "M");
        }
        time_table.addRow(times);
        inst_table.addRow(insts);
    }
    time_table.print("Fig 1: execution time vs CRF (game1; x26x CRF mapped "
                     "onto the 0-51 range)");
    inst_table.print("Fig 1 (companion): modeled instructions vs CRF");
    std::printf("\nExpected shape: SVT-AV1 highest at every CRF (~10x the "
                "x264/x265/VP9 cluster), Libaom second.\n");
    return 0;
}
