/**
 * @file
 * Unit tests for the five encoder models: registry, parameter envelopes,
 * monotonic preset/CRF behaviour, instrumented encode results, and task
 * graph construction for every threading model.
 */

#include <gtest/gtest.h>

#include <set>

#include "encoders/registry.hpp"
#include "video/generator.hpp"
#include "video/metrics.hpp"

namespace vepro::encoders
{
namespace
{

video::Video
tinyClip(int frames = 2, double entropy = 4.0)
{
    video::GeneratorParams p;
    p.width = 64;
    p.height = 48;
    p.frames = frames;
    p.entropy = entropy;
    p.seed = 17;
    return video::generate("tiny", p);
}

TEST(Registry, FiveEncodersInPaperOrder)
{
    auto all = allEncoders();
    ASSERT_EQ(all.size(), 5u);
    std::set<std::string> names;
    for (const auto &e : all) {
        names.insert(e->name());
    }
    EXPECT_TRUE(names.count("SVT-AV1"));
    EXPECT_TRUE(names.count("Libaom"));
    EXPECT_TRUE(names.count("Libvpx-vp9"));
    EXPECT_TRUE(names.count("x264"));
    EXPECT_TRUE(names.count("x265"));
}

TEST(Registry, LookupAndErrors)
{
    EXPECT_EQ(encoderByName("SVT-AV1")->name(), "SVT-AV1");
    EXPECT_THROW(encoderByName("av2"), std::out_of_range);
}

TEST(Registry, ParameterRangesMatchThePaper)
{
    // AV1/VP9 family: CRF 0-63, preset 0-8 (0 slowest). x264/x265:
    // CRF 0-51, preset 0-9 measured in the opposite direction.
    for (const char *name : {"SVT-AV1", "Libaom", "Libvpx-vp9"}) {
        auto e = encoderByName(name);
        EXPECT_EQ(e->crfRange(), 63) << name;
        EXPECT_EQ(e->presetRange(), 8) << name;
        EXPECT_FALSE(e->presetInverted()) << name;
    }
    for (const char *name : {"x264", "x265"}) {
        auto e = encoderByName(name);
        EXPECT_EQ(e->crfRange(), 51) << name;
        EXPECT_EQ(e->presetRange(), 9) << name;
        EXPECT_TRUE(e->presetInverted()) << name;
    }
}

TEST(Registry, ThreadModelsMatchDesign)
{
    EXPECT_EQ(encoderByName("SVT-AV1")->threadModel(),
              ThreadModel::Wavefront);
    EXPECT_EQ(encoderByName("x264")->threadModel(),
              ThreadModel::FrameParallel);
    EXPECT_EQ(encoderByName("Libaom")->threadModel(),
              ThreadModel::TileParallel);
    EXPECT_EQ(encoderByName("x265")->threadModel(),
              ThreadModel::SerialSpine);
}

TEST(ToolConfigs, Av1ModelUsesTheFullPartitionSet)
{
    auto svt = encoderByName("SVT-AV1");
    auto vp9 = encoderByName("Libvpx-vp9");
    EncodeParams p;
    p.preset = 4;
    p.crf = 30;
    EXPECT_EQ(svt->toolConfig(p).partitionMask, codec::kPartitionsAv1);
    EXPECT_EQ(vp9->toolConfig(p).partitionMask, codec::kPartitionsRect);
    EXPECT_GT(svt->toolConfig(p).intraModes, vp9->toolConfig(p).intraModes);
}

TEST(ToolConfigs, X264UsesMacroblocks)
{
    EncodeParams p;
    p.preset = 5;
    p.crf = 23;
    EXPECT_EQ(encoderByName("x264")->toolConfig(p).superblockSize, 16);
    EXPECT_EQ(encoderByName("x265")->toolConfig(p).superblockSize, 64);
}

/** Slower presets must never reduce any search-effort knob. */
class PresetMonotonicity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetMonotonicity, SlowerPresetsSearchHarder)
{
    auto enc = encoderByName(GetParam());
    int slowest = enc->presetInverted() ? enc->presetRange() : 0;
    int fastest = enc->presetInverted() ? 0 : enc->presetRange();
    EncodeParams p;
    p.crf = enc->crfRange() / 2;
    p.preset = slowest;
    codec::ToolConfig slow = enc->toolConfig(p);
    p.preset = fastest;
    codec::ToolConfig fast = enc->toolConfig(p);

    EXPECT_GE(slow.intraModes, fast.intraModes);
    EXPECT_GE(slow.me.range, fast.me.range);
    EXPECT_GE(slow.modePatience, fast.modePatience);
    EXPECT_LE(slow.earlyExitScale, fast.earlyExitScale);
    EXPECT_GE(slow.txSizeCandidates, fast.txSizeCandidates);
    EXPECT_GE(static_cast<int>(slow.fullRd), static_cast<int>(fast.fullRd));
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, PresetMonotonicity,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

TEST(Encode, PopulatesEveryResultField)
{
    auto enc = encoderByName("SVT-AV1");
    EncodeParams p;
    p.crf = 40;
    p.preset = 7;
    EncodeResult r = enc->encode(tinyClip(), p);
    EXPECT_EQ(r.encoder, "SVT-AV1");
    EXPECT_GT(r.instructions, 10000u);
    EXPECT_GT(r.stats.bits, 0u);
    EXPECT_GT(r.bitrateKbps, 0.0);
    EXPECT_GT(r.psnrDb, 20.0);
    EXPECT_LT(r.psnrDb, 60.0);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_EQ(r.mix.total(), r.instructions);
}

TEST(Encode, RejectsEmptyVideo)
{
    video::Video empty("e", 30);
    auto enc = encoderByName("x264");
    EXPECT_THROW(enc->encode(empty, {}), std::invalid_argument);
}

TEST(Encode, RejectsRecordingWithoutASink)
{
    auto enc = encoderByName("x264");
    trace::ProbeConfig ops, branches;
    ops.collectOps = true;
    branches.collectBranches = true;
    EXPECT_THROW(enc->encode(tinyClip(), {}, ops), std::invalid_argument);
    EXPECT_THROW(enc->encode(tinyClip(), {}, branches),
                 std::invalid_argument);
}

TEST(Encode, CrfControlsTheRateQualityTradeoff)
{
    auto enc = encoderByName("Libvpx-vp9");
    EncodeParams fine;
    fine.crf = 10;
    fine.preset = 7;
    EncodeParams coarse;
    coarse.crf = 55;
    coarse.preset = 7;
    video::Video clip = tinyClip();
    EncodeResult rf = enc->encode(clip, fine);
    EncodeResult rc = enc->encode(clip, coarse);
    EXPECT_GT(rf.bitrateKbps, rc.bitrateKbps * 1.5);
    EXPECT_GT(rf.psnrDb, rc.psnrDb + 2.0);
    EXPECT_GT(rf.instructions, rc.instructions)
        << "finer quality must do more work";
}

TEST(Encode, Deterministic)
{
    auto enc = encoderByName("x265");
    EncodeParams p;
    p.crf = 30;
    p.preset = 3;
    video::Video clip = tinyClip();
    EncodeResult a = enc->encode(clip, p);
    EncodeResult b = enc->encode(clip, p);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.bits, b.stats.bits);
    EXPECT_DOUBLE_EQ(a.psnrDb, b.psnrDb);
}

TEST(Encode, Av1ModelExecutesMoreInstructions)
{
    // The paper's headline: AV1-class encoders need far more instructions
    // for the same content at comparable quality/speed settings.
    video::GeneratorParams gp;
    gp.width = 160;
    gp.height = 96;
    gp.frames = 3;
    gp.entropy = 4.5;
    gp.seed = 23;
    video::Video clip = video::generate("cmp", gp);
    EncodeParams av1;
    av1.crf = 35;
    av1.preset = 4;
    EncodeParams avc;
    avc.crf = 28;   // comparable quality point on the 0-51 scale
    avc.preset = 5; // mid preset (inverted scale)
    uint64_t svt =
        encoderByName("SVT-AV1")->encode(clip, av1).instructions;
    uint64_t x264 = encoderByName("x264")->encode(clip, avc).instructions;
    EXPECT_GT(svt, x264 * 3) << "SVT-AV1 must be several times x264's work";
}

TEST(Encode, BranchTraceCollection)
{
    auto enc = encoderByName("SVT-AV1");
    EncodeParams p;
    p.crf = 50;
    p.preset = 8;
    trace::ProbeConfig pc;
    pc.collectBranches = true;
    pc.maxBranches = 50'000;
    trace::VectorSink recorded;
    enc->encode(tinyClip(), p, pc, false, &recorded);
    EXPECT_FALSE(recorded.branches().empty());
    EXPECT_LE(recorded.branches().size(), 50'000u);
    // Both directions must appear.
    bool taken = false, not_taken = false;
    for (const auto &b : recorded.branches()) {
        taken |= b.taken;
        not_taken |= !b.taken;
    }
    EXPECT_TRUE(taken);
    EXPECT_TRUE(not_taken);
}

TEST(Encode, OpTraceRespectsCaps)
{
    auto enc = encoderByName("Libaom");
    EncodeParams p;
    p.crf = 50;
    p.preset = 8;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 10'000;
    pc.opWindow = 1'000;
    pc.opInterval = 5'000;
    trace::VectorSink recorded;
    enc->encode(tinyClip(), p, pc, false, &recorded);
    EXPECT_FALSE(recorded.ops().empty());
    EXPECT_LE(recorded.ops().size(), 10'000u);
}

class TaskGraphShape : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TaskGraphShape, GraphIsValidAndLinked)
{
    auto enc = encoderByName(GetParam());
    EncodeParams p;
    p.crf = enc->crfRange() * 5 / 8;
    p.preset = enc->presetInverted() ? 2 : 6;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 200'000;
    pc.opWindow = 50'000;
    pc.opInterval = 100'000;
    trace::VectorSink recorded;
    EncodeResult r = enc->encode(tinyClip(3), p, pc, true, &recorded);

    ASSERT_FALSE(r.taskGraph.empty());
    r.taskGraph.validate();
    uint64_t weight = r.taskGraph.totalWeight();
    EXPECT_GT(weight, r.instructions / 2)
        << "tasks should cover most of the encode's work";
    EXPECT_LE(weight, r.instructions);
    for (const sched::Task &t : r.taskGraph.tasks()) {
        EXPECT_LE(t.opBegin, t.opEnd);
        EXPECT_LE(t.opEnd, recorded.ops().size());
        EXPECT_GE(t.weight, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, TaskGraphShape,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

/** Counts what a probe delivers. */
class CountingSink final : public trace::TraceSink
{
  public:
    void onOp(const trace::TraceOp &) override { ++ops; }
    void onOps(const trace::TraceOp *, size_t n) override { ops += n; }
    void onBranch(const trace::BranchRecord &) override { ++branches; }

    uint64_t ops = 0;
    uint64_t branches = 0;
};

class MixIsProbeConfigInvariant : public ::testing::TestWithParam<std::string>
{
};

/** The mix counts every modeled op, whatever the probe records: in a
 *  mix-only encode every kernel commits its tally, in a sampled and
 *  capped one kernels commit or run call by call, and in a streaming
 *  one every kernel runs call by call. All three must agree. */
TEST_P(MixIsProbeConfigInvariant, EveryConfigCountsTheSameMix)
{
    auto enc = encoderByName(GetParam());
    const video::Video clip = tinyClip();
    const EncodeParams p;
    const EncodeResult mix_only = enc->encode(clip, p);

    trace::ProbeConfig sampled;
    sampled.collectOps = true;
    sampled.opWindow = 2'000;
    sampled.opInterval = 10'000;
    sampled.maxOps = 20'000;
    sampled.collectBranches = true;
    sampled.maxBranches = 5'000;
    sampled.branchWarmupOps = mix_only.instructions / 2;
    CountingSink sampled_sink;
    const EncodeResult mixed =
        enc->encode(clip, p, sampled, false, &sampled_sink);
    EXPECT_EQ(sampled_sink.ops, sampled.maxOps);
    EXPECT_GT(mixed.droppedOps, 0u);
    EXPECT_GT(sampled_sink.branches, 0u);

    CountingSink streaming_sink;
    const EncodeResult streamed =
        enc->encode(clip, p, trace::ProbeConfig::streaming(), false,
                    &streaming_sink);
    EXPECT_GT(streaming_sink.ops, sampled_sink.ops);

    for (const EncodeResult *r : {&mixed, &streamed}) {
        EXPECT_EQ(r->instructions, mix_only.instructions);
        for (int c = 0; c < trace::kNumOpClasses; ++c) {
            EXPECT_EQ(r->mix.byClass[c], mix_only.mix.byClass[c])
                << trace::opClassName(static_cast<trace::OpClass>(c));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, MixIsProbeConfigInvariant,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

TEST(TaskGraphKinds, ReflectThreadingModels)
{
    auto encode_with_tasks = [&](const char *name) {
        auto enc = encoderByName(name);
        EncodeParams p;
        p.crf = enc->crfRange() * 3 / 4;
        p.preset = enc->presetInverted() ? 1 : 7;
        return enc->encode(tinyClip(3), p, {}, true);
    };

    auto kinds = [](const EncodeResult &r) {
        std::set<sched::TaskKind> s;
        for (const auto &t : r.taskGraph.tasks()) {
            s.insert(t.kind);
        }
        return s;
    };

    auto svt = kinds(encode_with_tasks("SVT-AV1"));
    EXPECT_TRUE(svt.count(sched::TaskKind::Superblock));
    EXPECT_TRUE(svt.count(sched::TaskKind::Filter));
    EXPECT_FALSE(svt.count(sched::TaskKind::Serial));

    auto x265 = kinds(encode_with_tasks("x265"));
    EXPECT_TRUE(x265.count(sched::TaskKind::Serial));
    EXPECT_TRUE(x265.count(sched::TaskKind::Lookahead));
    EXPECT_FALSE(x265.count(sched::TaskKind::Superblock));

    auto x264 = kinds(encode_with_tasks("x264"));
    EXPECT_TRUE(x264.count(sched::TaskKind::Superblock));
    EXPECT_TRUE(x264.count(sched::TaskKind::Lookahead));
}

TEST(Lookahead, EmitsWorkThroughProbe)
{
    video::Video clip = tinyClip(2);
    trace::Probe probe;
    {
        trace::ProbeScope scope(&probe);
        lookaheadPass(clip.frame(1), clip.frame(0), 0x1000000, 0x2000000);
    }
    uint64_t basic = probe.totalOps();
    EXPECT_GT(basic, 1000u);

    trace::Probe probe2;
    {
        trace::ProbeScope scope(&probe2);
        lookaheadPass(clip.frame(1), clip.frame(0), 0x1000000, 0x2000000,
                      true);
    }
    EXPECT_GT(probe2.totalOps(), basic * 2)
        << "the thorough (x265) lookahead does much more work";
}

TEST(Slowness, PresetEndpointsMapCorrectly)
{
    // Verified through the tool configs: preset 0 is the slowest for the
    // AV1 family, preset 9 the slowest for x264/x265.
    auto svt = encoderByName("SVT-AV1");
    EncodeParams p;
    p.crf = 30;
    p.preset = 0;
    int modes_slow = svt->toolConfig(p).intraModes;
    p.preset = 8;
    int modes_fast = svt->toolConfig(p).intraModes;
    EXPECT_GT(modes_slow, modes_fast);

    auto x264 = encoderByName("x264");
    p.crf = 23;
    p.preset = 9;
    int x_slow = x264->toolConfig(p).me.range;
    p.preset = 0;
    int x_fast = x264->toolConfig(p).me.range;
    EXPECT_GT(x_slow, x_fast);
}

} // namespace
} // namespace vepro::encoders
