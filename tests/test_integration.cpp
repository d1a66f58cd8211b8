/**
 * @file
 * Integration tests: the full paper pipeline — synthesise video, encode
 * with an encoder model, replay traces through the CBP framework and the
 * core model — with the headline qualitative findings asserted end to
 * end on small inputs.
 */

#include <gtest/gtest.h>

#include "bpred/runner.hpp"
#include "core/experiment.hpp"
#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"
#include "uarch/core.hpp"
#include "video/metrics.hpp"
#include "video/suite.hpp"

namespace vepro
{
namespace
{

video::Video
clip(const char *name = "game1", int frames = 3)
{
    video::SuiteScale scale;
    scale.divisor = 12;
    scale.frames = frames;
    return video::loadSuiteVideo(name, scale);
}

/** Larger clip for trend tests that need bench-scale statistics. */
video::Video
benchClip(int frames = 4)
{
    video::SuiteScale scale;
    scale.divisor = 8;
    scale.frames = frames;
    return video::loadSuiteVideo("game1", scale);
}

TEST(Integration, EncodeSimulatePipeline)
{
    auto enc = encoders::encoderByName("SVT-AV1");
    encoders::EncodeParams p;
    p.crf = 40;
    p.preset = 6;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 400'000;
    pc.opWindow = 100'000;
    pc.opInterval = 300'000;
    trace::VectorSink recorded;
    enc->encode(clip(), p, pc, false, &recorded);
    ASSERT_FALSE(recorded.ops().empty());

    uarch::Core core;
    uarch::CoreStats s = core.run(recorded.ops());
    EXPECT_GT(s.ipc(), 1.0);
    EXPECT_LT(s.ipc(), 3.5);
    double retiring = s.slots.fraction(s.slots.retiring);
    EXPECT_GT(retiring, 0.3);
    EXPECT_LT(retiring, 0.75);
    double sum = retiring + s.slots.fraction(s.slots.badSpec) +
                 s.slots.fraction(s.slots.frontend) +
                 s.slots.fraction(s.slots.backend);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

/** The fused streaming pipeline (encode -> StreamCore + StreamRunner
 *  live) must be bit-identical to capturing the traces and replaying
 *  them batch-style — the paper numbers cannot depend on which path a
 *  bench uses. */
TEST(Integration, FusedPipelineMatchesBatchReplay)
{
    auto enc = encoders::encoderByName("SVT-AV1");
    encoders::EncodeParams p;
    p.crf = 40;
    p.preset = 6;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 400'000;
    pc.opWindow = 100'000;
    pc.opInterval = 300'000;
    pc.collectBranches = true;
    pc.maxBranches = 200'000;
    pc.branchWarmupOps = 100'000;

    // Batch: capture, then replay.
    trace::VectorSink recorded;
    auto captured = enc->encode(clip(), p, pc, false, &recorded);
    uarch::Core core;
    uarch::CoreStats batch_core = core.run(recorded.ops());
    auto batch_pred = bpred::makePredictor("tage-8KB");
    bpred::RunResult batch_bp =
        bpred::runTrace(*batch_pred, recorded.branches(),
                        captured.branchTraceInstructions);

    // Fused: the same encode streams into the core model and the
    // predictor runner; nothing is materialised.
    uarch::StreamCore sim;
    auto stream_pred = bpred::makePredictor("tage-8KB");
    bpred::StreamRunner runner(*stream_pred);
    trace::MuxSink mux{&sim, &runner};
    auto fused = enc->encode(clip(), p, pc, false, &mux);
    runner.setInstructions(fused.branchTraceInstructions);

    EXPECT_EQ(fused.instructions, captured.instructions);
    EXPECT_EQ(fused.branchTraceInstructions,
              captured.branchTraceInstructions);

    const uarch::CoreStats &s = sim.stats();
    EXPECT_EQ(s.cycles, batch_core.cycles);
    EXPECT_EQ(s.instructions, batch_core.instructions);
    EXPECT_EQ(s.slots.retiring, batch_core.slots.retiring);
    EXPECT_EQ(s.slots.badSpec, batch_core.slots.badSpec);
    EXPECT_EQ(s.slots.frontend, batch_core.slots.frontend);
    EXPECT_EQ(s.slots.backend, batch_core.slots.backend);
    EXPECT_EQ(s.mispredicts, batch_core.mispredicts);
    EXPECT_EQ(s.l1dMisses, batch_core.l1dMisses);
    EXPECT_EQ(s.l2Misses, batch_core.l2Misses);
    EXPECT_EQ(s.llcMisses, batch_core.llcMisses);

    EXPECT_EQ(runner.result().branches, batch_bp.branches);
    EXPECT_EQ(runner.result().misses, batch_bp.misses);
    EXPECT_DOUBLE_EQ(runner.result().mpki(), batch_bp.mpki());
}

/** runPoint is fused end to end and must agree with the batch path; the
 *  parallel driver must produce the same results as the serial one. */
TEST(Integration, ParallelSweepMatchesSerial)
{
    auto enc = encoders::encoderByName("SVT-AV1");
    core::RunScale scale;
    scale.maxTraceOps = 300'000;
    video::Video c = clip();

    const std::vector<int> crfs = {20, 40, 60};
    std::vector<core::SweepPoint> serial(crfs.size());
    for (size_t i = 0; i < crfs.size(); ++i) {
        serial[i] = core::runPoint(*enc, c, crfs[i], 6, scale);
    }

    std::vector<core::SweepPoint> parallel(crfs.size());
    core::parallelFor(crfs.size(), 3, [&](size_t i) {
        parallel[i] = core::runPoint(*enc, c, crfs[i], 6, scale);
    });

    for (size_t i = 0; i < crfs.size(); ++i) {
        EXPECT_EQ(parallel[i].core.cycles, serial[i].core.cycles);
        EXPECT_EQ(parallel[i].core.instructions,
                  serial[i].core.instructions);
        EXPECT_EQ(parallel[i].core.mispredicts, serial[i].core.mispredicts);
        EXPECT_EQ(parallel[i].encode.instructions,
                  serial[i].encode.instructions);
        EXPECT_DOUBLE_EQ(parallel[i].encode.psnrDb, serial[i].encode.psnrDb);
    }
}

TEST(Integration, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(core::parallelFor(8, 4,
                                   [](size_t i) {
                                       if (i == 5) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
}

TEST(Integration, InstructionCountFallsWithCrf)
{
    auto enc = encoders::encoderByName("SVT-AV1");
    video::Video v = clip();
    encoders::EncodeParams lo;
    lo.crf = 15;
    lo.preset = 6;
    encoders::EncodeParams hi;
    hi.crf = 58;
    hi.preset = 6;
    uint64_t fine = enc->encode(v, lo).instructions;
    uint64_t coarse = enc->encode(v, hi).instructions;
    EXPECT_GT(fine, coarse * 2)
        << "the paper's Fig. 4a: instructions shrink sharply with CRF";
}

TEST(Integration, BranchMpkiFallsWithCrf)
{
    // Fig. 6a is measured with performance counters, i.e. the core
    // model's front-end predictor over the executed stream.
    auto enc = encoders::encoderByName("SVT-AV1");
    video::Video v = benchClip();
    core::RunScale scale;
    scale.maxTraceOps = 900'000;
    double fine = core::runPoint(*enc, v, 10, 6, scale).core.branchMpki();
    double coarse = core::runPoint(*enc, v, 60, 6, scale).core.branchMpki();
    EXPECT_GT(fine, coarse * 1.4)
        << "the paper's Fig. 6a: branch MPKI falls as CRF rises";
}

TEST(Integration, CbpPredictorOrderingOnRealTraces)
{
    auto enc = encoders::encoderByName("SVT-AV1");
    encoders::EncodeParams p;
    p.crf = 40;
    p.preset = 6;
    trace::ProbeConfig pc;
    pc.collectBranches = true;
    pc.maxBranches = 500'000;
    trace::VectorSink recorded;
    auto r = enc->encode(clip(), p, pc, false, &recorded);
    ASSERT_GT(recorded.branches().size(), 50'000u);

    auto miss = [&](const char *spec) {
        auto pred = bpred::makePredictor(spec);
        return bpred::runTrace(*pred, recorded.branches(), r.instructions)
            .missRatePercent();
    };
    double g2 = miss("gshare-2KB");
    double g32 = miss("gshare-32KB");
    double t8 = miss("tage-8KB");
    double t64 = miss("tage-64KB");
    // The paper's Figs. 8-10 ordering.
    EXPECT_LT(g32, g2);
    EXPECT_LT(t64, t8 * 1.02);
    EXPECT_LT(t8, g2);
    EXPECT_LT(t64, g32);
}

TEST(Integration, RuntimeTracksInstructions)
{
    // Fig. 4's observation: wall time is proportional to instruction
    // count across encoders (IPC is roughly constant).
    video::Video v = clip();
    std::vector<std::pair<double, double>> points;
    for (const auto &enc : encoders::allEncoders()) {
        encoders::EncodeParams p;
        p.crf = enc->crfRange() * 2 / 3;
        p.preset = enc->presetInverted() ? 2 : 6;
        auto r = enc->encode(v, p);
        points.push_back({static_cast<double>(r.instructions),
                          r.wallSeconds});
    }
    // Instruction ratio should predict time ratio within a loose factor.
    auto [imax, tmax] = *std::max_element(points.begin(), points.end());
    auto [imin, tmin] = *std::min_element(points.begin(), points.end());
    EXPECT_GT(imax / imin, 2.0);
    EXPECT_GT(tmax / tmin, imax / imin / 6.0);
}

TEST(Integration, ThreadStudyEndToEnd)
{
    auto enc = encoders::encoderByName("x265");
    encoders::EncodeParams p;
    p.crf = 32;
    p.preset = 2;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 500'000;
    pc.opWindow = 100'000;
    pc.opInterval = 200'000;
    trace::VectorSink recorded;
    auto r = enc->encode(clip("game1", 4), p, pc, true, &recorded);

    auto trace1 = core::buildSystemTrace(recorded.ops(), r.taskGraph, 1);
    auto trace8 = core::buildSystemTrace(recorded.ops(), r.taskGraph, 8);
    uarch::Core core;
    auto s1 = core.run(trace1);
    uarch::Core core8;
    auto s8 = core8.run(trace8);
    // With 8 threads the x265 model's socket spends far more of its
    // slots backend-bound (Fig. 16's signature).
    EXPECT_GT(s8.slots.fraction(s8.slots.backend),
              s1.slots.fraction(s1.slots.backend) + 0.05);
}

TEST(Integration, BdRateFavoursTheAv1Model)
{
    // Fig. 2a's qualitative point: the AV1-family encoder buys bitrate
    // at the same quality relative to the AVC-family encoder.
    video::Video v = clip("game1", 3);
    auto rd_curve = [&](const char *name, std::vector<int> crfs) {
        auto enc = encoders::encoderByName(name);
        std::vector<video::RdPoint> curve;
        for (int crf : crfs) {
            encoders::EncodeParams p;
            p.crf = crf;
            p.preset = enc->presetInverted() ? 3 : 5;
            auto r = enc->encode(v, p);
            curve.push_back({r.bitrateKbps, r.psnrDb});
        }
        return curve;
    };
    auto svt = rd_curve("SVT-AV1", {16, 28, 40, 52});
    auto x264 = rd_curve("x264", {13, 23, 32, 42});
    double bd = video::bdRate(x264, svt);
    EXPECT_LT(bd, 0.0) << "SVT-AV1 should need less bitrate at equal PSNR";
}

} // namespace
} // namespace vepro
