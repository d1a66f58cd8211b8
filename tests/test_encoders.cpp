/**
 * @file
 * Unit tests for the five encoder models: registry, parameter envelopes,
 * monotonic preset/CRF behaviour, instrumented encode results, and task
 * graph construction for every threading model.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "core/fnv.hpp"
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

/** Every ToolConfig field on one line, doubles exact (%.17g). */
std::string
describeTools(const codec::ToolConfig &tc)
{
    char line[512];
    std::snprintf(
        line, sizeof line,
        "sb=%d min=%d parts=%u intra=%d intraRect=%d txSize=%d txType=%d "
        "refs=%d interp=%d me.range=%d me.exhaustive=%d me.subpel=%d "
        "me.sharp=%d me.exit=%.17g fullRd=%d exit=%.17g patience=%d "
        "pruneDepth=%d q=%d qRange=%d lambda=%.17g filter=%d ctx=%d\n",
        tc.superblockSize, tc.minBlockSize, tc.partitionMask, tc.intraModes,
        tc.intraModesRect, tc.txSizeCandidates, tc.txTypeCandidates,
        tc.refFramesSearched, tc.interpFilterCands, tc.me.range,
        tc.me.exhaustive, tc.me.subpel, tc.me.sharpSubpel,
        tc.me.earlyExitPerPel, tc.fullRd, tc.earlyExitScale,
        tc.modePatience, tc.pruneMinDepth, tc.qIndex, tc.qRange,
        tc.lambdaScale, tc.filterPasses, tc.coeffContexts);
    return line;
}

TEST(ToolConfigs, EveryModelsKnobsArePinned)
{
    // One digest per model over every preset x CRF {0, mid, max}: any
    // knob edit, in any model, changes its digest. A change that means
    // to move a knob updates that model's literal and says why.
    const std::map<std::string, uint64_t> pinned = {
        {"SVT-AV1", 0x13181da870defcd8ULL},
        {"Libaom", 0xc27131bcd725199aULL},
        {"Libvpx-vp9", 0x669c922a47042f4bULL},
        {"x265", 0xdfb05472d0aee9a7ULL},
        {"x264", 0xaf2cec1fef832937ULL},
    };
    for (const auto &enc : allEncoders()) {
        uint64_t digest = core::kFnv1a64Basis;
        for (int preset = 0; preset <= enc->presetRange(); ++preset) {
            for (int crf : {0, enc->crfRange() / 2, enc->crfRange()}) {
                EncodeParams p;
                p.crf = crf;
                p.preset = preset;
                digest = core::fnv1a64(describeTools(enc->toolConfig(p)),
                                       digest);
            }
        }
        EXPECT_EQ(digest, pinned.at(enc->name()))
            << enc->name() << ": 0x" << std::hex << digest;
    }
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
    ops.ops = trace::SamplePlan::all();
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
    pc.ops = trace::SamplePlan::windows(1'000, 5'000, 10'000);
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
    pc.ops = trace::SamplePlan::windows(50'000, 100'000, 200'000);
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
    sampled.ops = trace::SamplePlan::windows(2'000, 10'000, 20'000);
    sampled.collectBranches = true;
    sampled.maxBranches = 5'000;
    sampled.branchWarmupOps = mix_only.instructions / 2;
    CountingSink sampled_sink;
    const EncodeResult mixed =
        enc->encode(clip, p, sampled, false, &sampled_sink);
    EXPECT_EQ(sampled_sink.ops, sampled.ops.cap());
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

// ---- Golden encodes ----------------------------------------------------

/** Folds every delivered block into an FNV-1a 64 digest: its sizes, then
 *  each op's and each event's fields. Counts ops and branch events. */
class DigestSink final : public trace::TraceSink
{
  public:
    void onOp(const trace::TraceOp &) override
    {
        ADD_FAILURE() << "the probe delivers whole blocks";
    }
    void
    onBlock(trace::TraceBlock &&block) override
    {
        fold(block.ops.size());
        fold(block.events.size());
        for (const trace::TraceOp &op : block.ops) {
            foldOp(op);
        }
        for (const trace::TraceBlock::Event &e : block.events) {
            fold(e.pos);
            fold(e.kind);
            fold(e.taken);
            fold(e.value);
            branches += e.kind == trace::TraceBlock::Event::Branch;
        }
        ops += block.ops.size();
    }

    uint64_t digest = core::kFnv1a64Basis;
    uint64_t ops = 0;
    uint64_t branches = 0;

  private:
    template <typename T>
    void
    fold(T v)
    {
        digest = core::fnv1a64(
            {reinterpret_cast<const char *>(&v), sizeof v}, digest);
    }
    void
    foldOp(const trace::TraceOp &op)
    {
        fold(op.pc);
        fold(op.addr);
        fold(op.cls);
        fold(op.taken);
        fold(op.dep1);
        fold(op.dep2);
        fold(op.foreign);
    }
};

/** What a recording encode delivered. */
struct GoldenStream {
    uint64_t ops, branches, droppedOps, droppedBranches, digest;
};

/**
 * One pinned encode of tinyClip(): the model's counts, which every probe
 * config must reproduce, and the streams of the sampled and the
 * streaming config (see EncodeGolden.EveryConfigMatchesThePinnedRun).
 */
struct GoldenEncode {
    const char *encoder;
    int preset, crf;
    uint64_t instructions;
    codec::EncodeStats stats;
    const char *psnr;  ///< %a
    std::array<uint64_t, trace::kNumOpClasses> mix;
    GoldenStream sampled, streaming;
};

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** @p g as a GoldenEncode initialiser. */
std::string
goldenRow(const GoldenEncode &g)
{
    std::ostringstream o;
    const codec::EncodeStats &s = g.stats;
    o << "{\"" << g.encoder << "\", " << g.preset << ", " << g.crf << ", "
      << g.instructions << "ull,\n {" << s.bits << ", " << s.leafEvals
      << ", " << s.modeEvals << ", " << s.meCandidates << ", "
      << s.partitionNodes << ", " << s.prunes << ", " << s.leafCommits
      << "},\n \"" << g.psnr << "\",\n {";
    for (size_t c = 0; c < g.mix.size(); ++c) {
        o << (c ? ", " : "") << g.mix[c];
    }
    o << "},";
    for (const GoldenStream *st : {&g.sampled, &g.streaming}) {
        o << "\n {" << st->ops << ", " << st->branches << ", "
          << st->droppedOps << ", " << st->droppedBranches << ", 0x"
          << std::hex << st->digest << std::dec << "ull}"
          << (st == &g.sampled ? "," : "},");
    }
    return o.str();
}

const GoldenEncode kGoldenEncodes[] = {
    {"SVT-AV1", 4, 31, 3833819ull,
     {13864, 146, 966, 3399, 42, 0, 35},
     "0x1.406991918ea13p+5",
     {526252, 7501, 0, 605754, 252401, 208965, 53248, 1180668, 344824, 372564, 157676, 9258, 114708},
     {60000, 0, 130822, 0, 0x4e2dc6535845d01cull},
     {3780571, 106550, 0, 0, 0x293af94b28cbbe7full}},
    {"Libaom", 4, 31, 3512977ull,
     {13864, 146, 893, 2266, 42, 0, 35},
     "0x1.406991918ea13p+5",
     {483552, 7501, 0, 569698, 234373, 191052, 49376, 1081488, 330352, 306396, 146444, 6773, 105972},
     {60000, 0, 114954, 0, 0x4e2dc6535845d01cull},
     {3463601, 97206, 0, 0, 0x3d8e79a885789f7dull}},
    {"Libvpx-vp9", 4, 31, 1170510ull,
     {15688, 139, 436, 1023, 42, 2, 36},
     "0x1.407b23affe8a9p+5",
     {186750, 8226, 0, 270268, 139882, 61978, 13106, 255496, 45344, 108892, 31564, 3354, 45650},
     {59372, 0, 0, 0, 0x47e03002f05314a6ull},
     {1157404, 32459, 0, 0, 0xc0702f938e8eef84ull}},
    {"x264", 4, 25, 1278710ull,
     {12520, 511, 1363, 4548, 118, 14, 93},
     "0x1.3f4513ec02957p+5",
     {213317, 7672, 0, 254153, 129945, 77895, 26698, 282706, 22528, 155492, 36992, 13205, 58107},
     {60000, 0, 2718, 0, 0x38ccb39dea191592ull},
     {1252012, 40702, 0, 0, 0xa906b2b40a401d4ull}},
    {"x265", 4, 25, 1520139ull,
     {15864, 143, 518, 2194, 42, 0, 36},
     "0x1.406c15520a4cbp+5",
     {233747, 8234, 0, 306600, 158061, 81468, 18342, 364328, 59744, 183740, 42508, 7190, 56177},
     {60000, 0, 15297, 0, 0x2b0334e98f9fcb9cull},
     {1501797, 42674, 0, 0, 0xa5e22e8a25b234c9ull}},
    {"SVT-AV1", 0, 31, 22928636ull,
     {13160, 146, 1443, 197984, 42, 0, 37},
     "0x1.40c37b6aa0ee4p+5",
     {3202034, 7149, 0, 1415066, 583570, 1470608, 502470, 7613328, 756848, 5864208, 321328, 399757, 792270},
     {60000, 0, 1086206, 0, 0xcd2a234e3685d0d1ull},
     {22426166, 763344, 0, 0, 0xe7aa65e665ec97ddull}},
};

bool
sameCounts(const EncodeResult &a, const EncodeResult &b)
{
    const codec::EncodeStats &s = a.stats, &t = b.stats;
    return a.instructions == b.instructions &&
           a.mix.byClass == b.mix.byClass && s.bits == t.bits &&
           s.leafEvals == t.leafEvals && s.modeEvals == t.modeEvals &&
           s.meCandidates == t.meCandidates &&
           s.partitionNodes == t.partitionNodes && s.prunes == t.prunes &&
           s.leafCommits == t.leafCommits &&
           hexFloat(a.psnrDb) == hexFloat(b.psnrDb);
}

/**
 * Real encodes pinned bit for bit, each run three ways: mix-only, where
 * nothing records; sampled and capped, where small windows every 40 k
 * ops fall both on and between repeated search steps; and streaming
 * with branches past half the run, where every op records. The model's
 * counts (instructions, every EncodeStats field, PSNR, the mix) must be
 * the pinned ones under all three, and each recording config must
 * deliver the pinned streams. On a mismatch the test prints the row the
 * build computes; a change to the model re-pins it deliberately.
 */
TEST(EncodeGolden, EveryConfigMatchesThePinnedRun)
{
    const video::Video clip = tinyClip();
    for (const GoldenEncode &g : kGoldenEncodes) {
        SCOPED_TRACE(std::string(g.encoder) + " preset " +
                     std::to_string(g.preset));
        auto enc = encoderByName(g.encoder);
        EncodeParams p;
        p.preset = g.preset;
        p.crf = g.crf;
        const EncodeResult mix_only = enc->encode(clip, p);

        trace::ProbeConfig sampled;
        sampled.ops = trace::SamplePlan::windows(2'000, 40'000, 60'000);
        trace::ProbeConfig streaming = trace::ProbeConfig::streaming(true);
        streaming.branchWarmupOps = mix_only.instructions / 2;

        GoldenStream got[2];
        bool counts_agree = true;
        for (int i = 0; i < 2; ++i) {
            DigestSink sink;
            const EncodeResult r = enc->encode(
                clip, p, i == 0 ? sampled : streaming, false, &sink);
            got[i] = {sink.ops, sink.branches, r.droppedOps,
                      r.droppedBranches, sink.digest};
            counts_agree &= sameCounts(r, mix_only);
        }
        EXPECT_TRUE(counts_agree)
            << "a recording config changed the model's counts";

        const std::string psnr = hexFloat(mix_only.psnrDb);
        const GoldenEncode computed = {
            g.encoder,       g.preset,       g.crf,
            mix_only.instructions, mix_only.stats, psnr.c_str(),
            mix_only.mix.byClass,  got[0],         got[1]};
        EXPECT_EQ(goldenRow(computed), goldenRow(g));
    }
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
