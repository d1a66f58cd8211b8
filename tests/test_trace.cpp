/**
 * @file
 * Unit tests for the instrumentation layer: op classification, probes,
 * sampling, site PCs, control emission, and trace (de)serialisation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "trace/opclass.hpp"
#include "trace/probe.hpp"
#include "trace/profile.hpp"
#include "trace/sample_plan.hpp"
#include "trace/trace_io.hpp"

namespace vepro::trace
{
namespace
{

TEST(OpClass, CategoryMapping)
{
    EXPECT_EQ(categoryOf(OpClass::BranchCond), MixCategory::Branch);
    EXPECT_EQ(categoryOf(OpClass::BranchUncond), MixCategory::Branch);
    EXPECT_EQ(categoryOf(OpClass::Load), MixCategory::Load);
    EXPECT_EQ(categoryOf(OpClass::Store), MixCategory::Store);
    EXPECT_EQ(categoryOf(OpClass::SimdAlu), MixCategory::Avx);
    EXPECT_EQ(categoryOf(OpClass::SimdLoad), MixCategory::Avx);
    EXPECT_EQ(categoryOf(OpClass::SseAlu), MixCategory::Sse);
    EXPECT_EQ(categoryOf(OpClass::Alu), MixCategory::Other);
    EXPECT_EQ(categoryOf(OpClass::Div), MixCategory::Other);
}

TEST(OpClass, Predicates)
{
    EXPECT_TRUE(isBranch(OpClass::BranchCond));
    EXPECT_TRUE(isBranch(OpClass::BranchUncond));
    EXPECT_FALSE(isBranch(OpClass::Alu));
    EXPECT_TRUE(isMemory(OpClass::Load));
    EXPECT_TRUE(isMemory(OpClass::SimdStore));
    EXPECT_FALSE(isMemory(OpClass::Mul));
    EXPECT_TRUE(isLoad(OpClass::SimdLoad));
    EXPECT_FALSE(isLoad(OpClass::Store));
    EXPECT_TRUE(isStore(OpClass::SimdStore));
    EXPECT_FALSE(isStore(OpClass::Load));
}

TEST(OpClass, NamesAreDistinct)
{
    for (int i = 0; i < kNumOpClasses; ++i) {
        EXPECT_NE(opClassName(static_cast<OpClass>(i)), "?");
    }
    EXPECT_EQ(mixCategoryName(MixCategory::Avx), "AVX");
}

TEST(SitePc, StableAndDistinct)
{
    EXPECT_EQ(sitePc("codec.sad"), sitePc("codec.sad"));
    EXPECT_NE(sitePc("codec.sad"), sitePc("codec.sse"));
    EXPECT_EQ(sitePc("anything") % 1024, 0u) << "1 KiB aligned";
}

TEST(MixCounters, TotalsAndPercents)
{
    MixCounters mix;
    mix.byClass[static_cast<int>(OpClass::Load)] = 25;
    mix.byClass[static_cast<int>(OpClass::SimdAlu)] = 50;
    mix.byClass[static_cast<int>(OpClass::Alu)] = 25;
    EXPECT_EQ(mix.total(), 100u);
    EXPECT_DOUBLE_EQ(mix.categoryPercent(MixCategory::Load), 25.0);
    EXPECT_DOUBLE_EQ(mix.categoryPercent(MixCategory::Avx), 50.0);
    double sum = 0;
    for (int c = 0; c < kNumMixCategories; ++c) {
        sum += mix.categoryPercent(static_cast<MixCategory>(c));
    }
    EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(MixCounters, EmptyIsZero)
{
    MixCounters mix;
    EXPECT_EQ(mix.total(), 0u);
    EXPECT_DOUBLE_EQ(mix.categoryPercent(MixCategory::Load), 0.0);
}

TEST(MixCounters, Accumulate)
{
    MixCounters a, b;
    a.byClass[0] = 3;
    b.byClass[0] = 4;
    a += b;
    EXPECT_EQ(a.byClass[0], 7u);
}

/** A probe streaming into a VectorSink, the one way to materialise its
 *  traces; recorded() delivers the staged block first. */
struct CapturedProbe {
    explicit CapturedProbe(const ProbeConfig &config = {}) : probe(config)
    {
        probe.setSink(&sink);
    }
    CapturedProbe(const CapturedProbe &) = delete;  // probe points at sink
    CapturedProbe &operator=(const CapturedProbe &) = delete;
    const VectorSink &
    recorded()
    {
        probe.flushToSink();
        return sink;
    }
    VectorSink sink;
    Probe probe;
};

TEST(Probe, CountsAllEmissionKinds)
{
    Probe p;
    p.enterKernel(sitePc("t"), 8);
    p.ops(OpClass::SimdAlu, 10);
    p.mem(OpClass::Load, 0x1000);
    p.memRun(OpClass::SimdLoad, 0x2000, 4, 32);
    p.decision(sitePc("t.d"), true);
    p.loopBranches(5);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::SimdAlu)], 10u);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::Load)], 1u);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::SimdLoad)], 4u);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::BranchCond)], 6u);
    EXPECT_EQ(p.totalOps(), p.mix().total());
}

TEST(Probe, BranchTraceCollection)
{
    ProbeConfig cfg;
    cfg.collectBranches = true;
    cfg.maxBranches = 4;
    CapturedProbe c(cfg);
    c.probe.decision(sitePc("a"), true);
    c.probe.decision(sitePc("b"), false);
    c.probe.loopBranches(10);  // capped at 2 more
    ASSERT_EQ(c.recorded().branches().size(), 4u);
    EXPECT_TRUE(c.recorded().branches()[0].taken);
    EXPECT_FALSE(c.recorded().branches()[1].taken);
    EXPECT_EQ(c.recorded().branches()[0].pc, sitePc("a"));
}

TEST(Probe, BranchWarmupSkipsEarlyBranches)
{
    ProbeConfig cfg;
    cfg.collectBranches = true;
    cfg.branchWarmupOps = 100;
    CapturedProbe c(cfg);
    c.probe.decision(sitePc("early"), true);
    EXPECT_TRUE(c.recorded().branches().empty());
    c.probe.ops(OpClass::Alu, 200);
    c.probe.decision(sitePc("late"), true);
    ASSERT_EQ(c.recorded().branches().size(), 1u);
    EXPECT_EQ(c.recorded().branches()[0].pc, sitePc("late"));
}

TEST(Probe, OpTraceSamplingWindows)
{
    ProbeConfig cfg;
    cfg.ops = SamplePlan::windows(10, 100, 1000);
    CapturedProbe c(cfg);
    for (int i = 0; i < 300; ++i) {
        c.probe.ops(OpClass::Alu, 1);
    }
    // Three windows of ~10 ops each should be captured.
    EXPECT_GE(c.recorded().ops().size(), 20u);
    EXPECT_LE(c.recorded().ops().size(), 40u);
}

/** runAt() against the per-position rule it summarises: position p is
 *  recorded iff p % interval < window. Every run holds positions of one
 *  kind only, is maximal (its end is of the other kind, or never comes)
 *  and is the same run asked from any of its positions. */
TEST(SamplePlan, RunsFollowThePerPositionRule)
{
    struct Case {
        SamplePlan plan;
        uint64_t window;
        uint64_t interval;
    };
    std::vector<Case> cases = {
        {SamplePlan{}, 0, 1},
        {SamplePlan::all(), 1, 1},
        {SamplePlan::all(7), 1, 1},
        {SamplePlan::windows(0, 10, 5), 0, 10},
        {SamplePlan::windows(10, 10), 10, 10},
        {SamplePlan::windows(13, 10, 3), 13, 10},
        {SamplePlan::windows(1, 2), 1, 2},
        {SamplePlan::windows(9, 10), 9, 10},
        {SamplePlan::windows(150'000, 600'000, 1'200'000), 150'000, 600'000},
    };
    std::mt19937_64 rng(31);
    for (int i = 0; i < 300; ++i) {
        const uint64_t interval = 1 + rng() % 64;
        const uint64_t window = rng() % (interval + 3);
        cases.push_back(
            {SamplePlan::windows(window, interval, rng() % 400), window,
             interval});
    }
    for (const Case &c : cases) {
        SCOPED_TRACE("window " + std::to_string(c.window) + " interval " +
                     std::to_string(c.interval));
        auto recorded = [&](uint64_t p) { return p % c.interval < c.window; };
        // A long plan is checked over its first 5,000 positions and at
        // the end of the run that holds them.
        const uint64_t limit = std::min<uint64_t>(4 * c.interval + 9, 5'000);
        for (uint64_t at = 0; at < limit;) {
            const SamplePlan::Run run = c.plan.runAt(at);
            ASSERT_GT(run.end, at);
            EXPECT_EQ(run.record, recorded(at));
            const uint64_t stop = std::min(run.end, limit);
            for (uint64_t p = at; p < stop; ++p) {
                ASSERT_EQ(recorded(p), run.record) << "position " << p;
                const SamplePlan::Run from_p = c.plan.runAt(p);
                ASSERT_EQ(from_p.end, run.end) << "position " << p;
                ASSERT_EQ(from_p.record, run.record) << "position " << p;
            }
            if (run.end == SamplePlan::kNever) {
                // Only a plan with no window or a full one never ends a run.
                EXPECT_TRUE(c.window == 0 || c.window >= c.interval);
                break;
            }
            EXPECT_NE(recorded(run.end), run.record) << "end " << run.end;
            at = run.end;
        }
    }
    // The degenerate windows are the named plans, caps included.
    EXPECT_EQ(SamplePlan::windows(0, 10, 5), SamplePlan{});
    EXPECT_EQ(SamplePlan::windows(10, 10, 5), SamplePlan::all(5));
    EXPECT_EQ(SamplePlan::windows(12, 10), SamplePlan::all());
    EXPECT_NE(SamplePlan::all(5), SamplePlan::all());
    EXPECT_NE(SamplePlan::all(0), SamplePlan{});
}

TEST(Probe, OpTraceCap)
{
    ProbeConfig cfg;
    cfg.ops = SamplePlan::all(50);
    CapturedProbe c(cfg);
    c.probe.ops(OpClass::Alu, 500);
    EXPECT_EQ(c.recorded().ops().size(), 50u);
}

TEST(Probe, DisabledCollectionIsFree)
{
    CapturedProbe c;
    c.probe.ops(OpClass::Alu, 100);
    c.probe.decision(sitePc("x"), true);
    EXPECT_TRUE(c.recorded().ops().empty());
    EXPECT_TRUE(c.recorded().branches().empty());
    EXPECT_EQ(c.probe.totalOps(), 101u);
}

TEST(Probe, RecordingWithoutASinkThrows)
{
    ProbeConfig cfg;
    cfg.ops = SamplePlan::all();
    Probe staged(cfg);
    staged.ops(OpClass::Alu, 10);
    EXPECT_THROW(staged.flushToSink(), std::logic_error);
    // A full block is delivered mid-call, so the call itself throws.
    Probe full(ProbeConfig::streaming(true));
    EXPECT_THROW(full.ops(OpClass::Alu, TraceBlock::kOps + 1),
                 std::logic_error);
    // A probe that records nothing needs no sink.
    Probe mix_only;
    mix_only.ops(OpClass::Alu, TraceBlock::kOps + 1);
    mix_only.decision(sitePc("nosink.dec"), true);
    EXPECT_NO_THROW(mix_only.flushToSink());
}

TEST(Probe, MemRecordsAddresses)
{
    ProbeConfig cfg;
    cfg.ops = SamplePlan::all();
    CapturedProbe c(cfg);
    c.probe.mem(OpClass::Store, 0xdeadbeef);
    ASSERT_EQ(c.recorded().ops().size(), 1u);
    EXPECT_EQ(c.recorded().ops()[0].addr, 0xdeadbeefu);
    EXPECT_EQ(c.recorded().ops()[0].cls, OpClass::Store);
    EXPECT_FALSE(c.recorded().ops()[0].foreign);
}

TEST(Probe, MemRunStridesAddresses)
{
    ProbeConfig cfg;
    cfg.ops = SamplePlan::all();
    CapturedProbe c(cfg);
    c.probe.memRun(OpClass::SimdLoad, 0x1000, 3, 64);
    ASSERT_EQ(c.recorded().ops().size(), 3u);
    EXPECT_EQ(c.recorded().ops()[1].addr, 0x1040u);
    EXPECT_EQ(c.recorded().ops()[2].addr, 0x1080u);
}

TEST(Probe, LoopBranchesLastFallsThrough)
{
    ProbeConfig cfg;
    cfg.collectBranches = true;
    CapturedProbe c(cfg);
    c.probe.loopBranches(4);
    ASSERT_EQ(c.recorded().branches().size(), 4u);
    EXPECT_TRUE(c.recorded().branches()[0].taken);
    EXPECT_TRUE(c.recorded().branches()[2].taken);
    EXPECT_FALSE(c.recorded().branches()[3].taken);
}

TEST(Probe, AllocRegionsDisjointAndAligned)
{
    Probe p;
    uint64_t a = p.allocRegion(1000);
    uint64_t b = p.allocRegion(5000);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 1000);
}

TEST(ProbeScope, InstallsAndRestores)
{
    EXPECT_EQ(currentProbe(), nullptr);
    Probe outer;
    {
        ProbeScope s1(&outer);
        EXPECT_EQ(currentProbe(), &outer);
        Probe inner;
        {
            ProbeScope s2(&inner);
            EXPECT_EQ(currentProbe(), &inner);
        }
        EXPECT_EQ(currentProbe(), &outer);
    }
    EXPECT_EQ(currentProbe(), nullptr);
}

TEST(EmitControl, EmitsScalarMixture)
{
    Probe p;
    emitControl(p, sitePc("ctl"), 20, 0x1000, 0x2000, 16);
    const MixCounters &mix = p.mix();
    EXPECT_EQ(mix.byClass[static_cast<int>(OpClass::Load)], 80u);  // 4/unit
    EXPECT_GE(mix.byClass[static_cast<int>(OpClass::Store)], 30u);
    EXPECT_EQ(mix.byCategory(MixCategory::Avx), 0u);
}

/** Stream @p emit's records into a SiteProfileSink, the way
 *  examples/hot_functions profiles an encode. */
template <typename Fn>
SiteProfileSink
profileOf(Fn &&emit, const ProbeConfig &config = ProbeConfig::streaming())
{
    SiteProfileSink sink;
    Probe p(config);
    p.setSink(&sink);
    emit(p);
    p.flushToSink();
    return sink;
}

TEST(Profile, AttributesOpsToSites)
{
    SiteProfileSink sink = profileOf([](Probe &p) {
        p.enterKernel(sitePc("profile.hot"), 8);
        p.ops(OpClass::SimdAlu, 900);
        p.enterKernel(sitePc("profile.cold"), 8);
        p.ops(OpClass::Alu, 100);
    });
    auto report = profileReport(sink, 0.0);
    ASSERT_EQ(report.size(), 2u);
    EXPECT_EQ(report[0].name, "profile.hot");
    EXPECT_EQ(report[0].ops, 902u) << "900 ops + the call pair";
    EXPECT_NEAR(report[0].percent + report[1].percent, 100.0, 1e-9);
    EXPECT_GT(report[0].percent, report[1].percent);
}

TEST(Profile, MinShareFiltersRows)
{
    SiteProfileSink sink = profileOf([](Probe &p) {
        p.enterKernel(sitePc("profile.big"), 8);
        p.ops(OpClass::Alu, 9990);
        p.enterKernel(sitePc("profile.tiny"), 8);
        p.ops(OpClass::Alu, 4);
    });
    EXPECT_EQ(profileReport(sink, 1.0).size(), 1u);
    EXPECT_GE(profileReport(sink, 0.0).size(), 2u);
}

TEST(Profile, DisabledCollectsNothing)
{
    // Op tracing off: the probe streams no records to profile.
    SiteProfileSink sink = profileOf(
        [](Probe &p) {
            p.enterKernel(sitePc("profile.off"), 8);
            p.ops(OpClass::Alu, 100);
        },
        ProbeConfig{});
    EXPECT_TRUE(sink.siteOps().empty());
    EXPECT_TRUE(profileReport(sink).empty());
}

TEST(Profile, FormatContainsNames)
{
    SiteProfileSink sink = profileOf([](Probe &p) {
        p.enterKernel(sitePc("profile.fmt"), 8);
        p.ops(OpClass::Alu, 10);
    });
    std::string text = formatProfile(profileReport(sink, 0.0));
    EXPECT_NE(text.find("profile.fmt"), std::string::npos);
    EXPECT_NE(text.find("100.0"), std::string::npos);
}

TEST(Profile, SiteNameLookup)
{
    uint64_t pc = sitePc("profile.lookup");
    EXPECT_EQ(siteName(pc), "profile.lookup");
    EXPECT_EQ(siteName(0xdeadULL), "?");
}

// ---- Shared stream helpers (sink + TraceFile suites) ----------------

/** A deterministic emission workload exercising every probe API. */
void
emitWorkload(Probe &p)
{
    for (int round = 0; round < 40; ++round) {
        p.enterKernel(sitePc("sink.kernel.a"), 16);
        p.ops(OpClass::Alu, 30, 1);
        p.mem(OpClass::Load, 0x20000 + static_cast<uint64_t>(round) * 64);
        p.memRun(OpClass::SimdLoad, 0x40000, 8, 32, 2);
        p.decision(sitePc("sink.dec"), round % 3 != 0);
        p.loopBranches(9);
        p.enterKernel(sitePc("sink.kernel.b"), 8);
        p.ops(OpClass::SimdAlu, 50, 0, 3);
        p.mem(OpClass::Store, 0x60000 + static_cast<uint64_t>(round) * 8);
        p.decision(sitePc("sink.dec2"), round % 7 < 3);
    }
}

void
expectSameStreams(const std::vector<TraceOp> &a,
                  const std::vector<TraceOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << "op " << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << "op " << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << "op " << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << "op " << i;
        EXPECT_EQ(a[i].dep1, b[i].dep1) << "op " << i;
        EXPECT_EQ(a[i].dep2, b[i].dep2) << "op " << i;
        EXPECT_EQ(a[i].foreign, b[i].foreign) << "op " << i;
    }
}

// ---- TraceFile: on-disk capture / replay ---------------------------

/** Expect @p fn to throw a "trace:"-prefixed error naming @p path. */
template <typename Fn>
std::string
expectTraceError(Fn &&fn, const std::string &path)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("trace:", 0), 0u) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
        return what;
    }
    ADD_FAILURE() << "no trace error thrown for " << path;
    return {};
}

TEST(TraceFile, OpRoundTripPreservesEveryField)
{
    const std::string path = "/tmp/vepro_test_tracefile_ops.vetf";
    TraceOp a{0x400000, 0xfeed, OpClass::SimdLoad, false, 3, 7, false};
    TraceOp b{0x400004, 0xbeef, OpClass::Store, false, 0, 0, true};
    TraceOp c{0x400008, 0, OpClass::BranchCond, true, 1, 0, false};
    {
        FileSink sink(path);
        sink.onOp(a);
        sink.onOp(b);
        sink.onOp(c);
        sink.onBranch({0x400008, true});
        sink.flush();
        EXPECT_EQ(sink.opCount(), 3u);
        EXPECT_EQ(sink.branchCount(), 1u);
    }
    VectorSink back;
    TraceFileInfo info = FileSource(path).replay(back);
    expectSameStreams({a, b, c}, back.ops());
    ASSERT_EQ(back.branches().size(), 1u);
    EXPECT_EQ(back.branches()[0].pc, 0x400008u);
    EXPECT_TRUE(back.branches()[0].taken);
    EXPECT_EQ(info.opCount, 3u);
    EXPECT_EQ(info.branchCount, 1u);
    EXPECT_EQ(info.blockCount, 1u);
    EXPECT_EQ(info.fileBytes, std::filesystem::file_size(path));
    std::filesystem::remove(path);
}

/** Capture a probe workload to disk, replay it, and demand the exact
 *  record stream a live-fed sink sees — including across the 4096-op
 *  block boundary and for branch and kernel events. */
TEST(TraceFile, ReplayEqualsLiveStream)
{
    const ProbeConfig pc = ProbeConfig::streaming(true);
    Probe direct(pc);
    VectorSink live;
    SiteProfileSink live_profile;
    MuxSink live_mux{&live, &live_profile};
    direct.setSink(&live_mux);
    emitWorkload(direct);
    direct.flushToSink();

    const std::string path = "/tmp/vepro_test_tracefile_stream.vetf";
    {
        FileSink sink(path);
        Probe fed(pc);
        fed.setSink(&sink);
        emitWorkload(fed);
        fed.flushToSink();
        sink.flush();
        EXPECT_EQ(sink.opCount(), direct.recordedOps());
        EXPECT_EQ(sink.branchCount(), direct.recordedBranches());
    }

    VectorSink replayed;
    SiteProfileSink replayed_profile;
    MuxSink replay_mux{&replayed, &replayed_profile};
    TraceFileInfo info = FileSource(path).replay(replay_mux);
    replay_mux.flush();

    expectSameStreams(live.ops(), replayed.ops());
    ASSERT_EQ(live.branches().size(), replayed.branches().size());
    for (size_t i = 0; i < live.branches().size(); ++i) {
        EXPECT_EQ(live.branches()[i].pc, replayed.branches()[i].pc);
        EXPECT_EQ(live.branches()[i].taken, replayed.branches()[i].taken);
    }
    // Kernel events survive: the replayed profiler attributes the same
    // per-site op counts as the live one.
    ASSERT_EQ(live_profile.siteOps().size(),
              replayed_profile.siteOps().size());
    for (const auto &[site, n] : live_profile.siteOps()) {
        auto it = replayed_profile.siteOps().find(site);
        ASSERT_NE(it, replayed_profile.siteOps().end()) << siteName(site);
        EXPECT_EQ(it->second, n) << siteName(site);
    }
    EXPECT_EQ(info.opCount, direct.recordedOps());
    EXPECT_EQ(info.branchCount, direct.recordedBranches());
    EXPECT_GT(info.blockCount, 1u) << "workload must cross a block";
    // The varint/delta codec target: well under 6 bytes/op on a dense
    // probe stream (the old fixed-width records took 21).
    EXPECT_LE(info.bytesPerOp(), 6.0);
    std::filesystem::remove(path);
}

TEST(TraceFile, BlockBoundaryRoundTrip)
{
    for (uint64_t n : {4095u, 4096u, 4097u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        auto emit = [n](Probe &p) {
            p.enterKernel(sitePc("tracefile.boundary"), 16);
            p.ops(OpClass::SimdAlu, n, 0, 2);
            p.decision(sitePc("tracefile.boundary.dec"), n % 2 == 0);
            p.memRun(OpClass::SimdLoad, 0x9000, 4, 32, 1);
        };
        CapturedProbe capture(ProbeConfig::streaming(true));
        emit(capture.probe);

        const std::string path = "/tmp/vepro_test_tracefile_boundary.vetf";
        {
            FileSink sink(path);
            Probe fed(ProbeConfig::streaming(true));
            fed.setSink(&sink);
            emit(fed);
            fed.flushToSink();
            sink.flush();
        }
        VectorSink back;
        FileSource(path).replay(back);
        const VectorSink &live = capture.recorded();
        expectSameStreams(live.ops(), back.ops());
        ASSERT_EQ(live.branches().size(), back.branches().size());
        std::filesystem::remove(path);
    }
}

/** Record-at-a-time feeding (no probe): the sink stages standard 4096-op
 *  blocks itself, preserving op/branch/kernel interleaving. */
TEST(TraceFile, RecordAtATimeStagingPreservesOrder)
{
    const std::string path = "/tmp/vepro_test_tracefile_records.vetf";
    std::vector<TraceOp> ops(10'000);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].pc = 0x1000 + (i % 37) * 4;
        ops[i].cls = i % 5 == 0 ? OpClass::Load : OpClass::Alu;
        ops[i].addr = i % 5 == 0 ? 0x20000 + i * 8 : 0;
    }
    {
        FileSink sink(path);
        sink.onOps(ops.data(), 3000);
        sink.onBranch({0x5000, true});
        sink.onKernel(sitePc("tracefile.records"));
        sink.onOps(ops.data() + 3000, 7000);  // crosses two boundaries
        sink.onBranch({0x5004, false});
        sink.flush();
        EXPECT_EQ(sink.opCount(), ops.size());
        EXPECT_EQ(sink.branchCount(), 2u);
    }
    VectorSink back;
    TraceFileInfo info = FileSource(path).replay(back);
    expectSameStreams(ops, back.ops());
    ASSERT_EQ(back.branches().size(), 2u);
    EXPECT_EQ(back.branches()[0].pc, 0x5000u);
    EXPECT_FALSE(back.branches()[1].taken);
    EXPECT_EQ(info.blockCount, 3u) << "10000 ops = 2 full blocks + tail";
    std::filesystem::remove(path);
}

TEST(TraceFile, MetadataRoundTripAndInspect)
{
    const std::string path = "/tmp/vepro_test_tracefile_meta.vetf";
    {
        FileSink sink(path);
        sink.deferSeal(true);
        sink.onOp({0x1000, 0, OpClass::Alu, false, 0, 0, false});
        sink.flush();  // deferred: must NOT seal yet
        sink.setMetadata("{\"wallSeconds\":1.5}");
        sink.seal();
    }
    TraceFileInfo inspected = FileSource::inspect(path);
    EXPECT_EQ(inspected.metadata, "{\"wallSeconds\":1.5}");
    EXPECT_EQ(inspected.opCount, 1u);
    EXPECT_EQ(inspected.fileBytes, std::filesystem::file_size(path));

    VectorSink back;
    TraceFileInfo replayed = FileSource(path).replay(back);
    EXPECT_EQ(replayed.metadata, inspected.metadata);
    EXPECT_EQ(back.ops().size(), 1u);
    std::filesystem::remove(path);
}

TEST(TraceFile, RecordAfterSealThrows)
{
    const std::string path = "/tmp/vepro_test_tracefile_sealed.vetf";
    FileSink sink(path);
    sink.flush();
    TraceOp op{};
    EXPECT_THROW(sink.onOp(op), std::logic_error);
    EXPECT_THROW(sink.onBranch({0x1, true}), std::logic_error);
    std::filesystem::remove(path);
}

TEST(TraceFile, RejectsMissingFile)
{
    VectorSink sink;
    expectTraceError(
        [&] { FileSource("/tmp/does_not_exist_vepro.vetf").replay(sink); },
        "/tmp/does_not_exist_vepro.vetf");
    expectTraceError(
        [&] { FileSource::inspect("/tmp/does_not_exist_vepro.vetf"); },
        "/tmp/does_not_exist_vepro.vetf");
}

TEST(TraceFile, RejectsBadMagic)
{
    const std::string path = "/tmp/vepro_test_tracefile_bad.vetf";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE....garbage", f);
    std::fclose(f);
    VectorSink sink;
    std::string what =
        expectTraceError([&] { FileSource(path).replay(sink); }, path);
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    std::filesystem::remove(path);
}

/** The retired fixed-width formats are named, not mistaken for rot. */
TEST(TraceFile, RejectsLegacyFormatsWithVersionedError)
{
    for (const char *magic : {"VEPB", "VEPO"}) {
        SCOPED_TRACE(magic);
        const std::string path = "/tmp/vepro_test_tracefile_legacy.vetf";
        FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs(magic, f);
        const uint32_t version = 1;
        std::fwrite(&version, sizeof version, 1, f);
        std::fclose(f);
        VectorSink sink;
        std::string what =
            expectTraceError([&] { FileSource(path).replay(sink); }, path);
        EXPECT_NE(what.find("legacy"), std::string::npos) << what;
        EXPECT_NE(what.find(magic), std::string::npos) << what;
        EXPECT_NE(what.find("recapture"), std::string::npos) << what;
        std::filesystem::remove(path);
    }
}

TEST(TraceFile, RejectsWrongVersion)
{
    const std::string path = "/tmp/vepro_test_tracefile_version.vetf";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("VETF", f);
    const uint32_t version = 99;
    std::fwrite(&version, sizeof version, 1, f);
    std::fclose(f);
    VectorSink sink;
    std::string what =
        expectTraceError([&] { FileSource(path).replay(sink); }, path);
    EXPECT_NE(what.find("unsupported version 99"), std::string::npos)
        << what;
    std::filesystem::remove(path);
}

namespace
{

/** Write a small but representative capture and return its path. */
std::string
writeCorruptionFixture()
{
    const std::string path = "/tmp/vepro_test_tracefile_corrupt.vetf";
    FileSink sink(path);
    Probe fed(ProbeConfig::streaming(true));
    fed.setSink(&sink);
    fed.enterKernel(sitePc("tracefile.corrupt"), 8);
    fed.ops(OpClass::Alu, 600, 1);
    fed.mem(OpClass::Load, 0x30000);
    fed.decision(sitePc("tracefile.corrupt.dec"), true);
    fed.flushToSink();
    sink.setMetadata("fixture-metadata-0123456789");
    sink.flush();
    return path;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

/** EVERY single-byte corruption of a capture must be detected: header
 *  checks, per-block decode validation, footer counts, or the payload
 *  checksum — nothing decodes silently wrong. */
TEST(TraceFile, EverySingleByteFlipIsDetected)
{
    const std::string path = writeCorruptionFixture();
    const std::vector<char> good = readAll(path);
    ASSERT_GT(good.size(), 60u);
    const std::string flipped = path + ".flip";
    for (size_t i = 0; i < good.size(); ++i) {
        std::vector<char> bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        writeAll(flipped, bad);
        VectorSink sink;
        try {
            FileSource(flipped).replay(sink);
            ADD_FAILURE() << "flip at byte " << i << " went undetected";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()).rfind("trace:", 0), 0u)
                << "byte " << i << ": " << e.what();
        }
    }
    std::filesystem::remove(flipped);
    std::filesystem::remove(path);
}

/** Every proper prefix of a capture must fail as truncated. */
TEST(TraceFile, TruncationIsDetectedAtAnyLength)
{
    const std::string path = writeCorruptionFixture();
    const std::vector<char> good = readAll(path);
    const std::string cut = path + ".cut";
    // Every length up to the header, then a spread of longer prefixes.
    std::vector<size_t> lengths;
    for (size_t n = 0; n < 12 && n < good.size(); ++n) {
        lengths.push_back(n);
    }
    for (size_t n = 12; n < good.size(); n += 7) {
        lengths.push_back(n);
    }
    lengths.push_back(good.size() - 1);
    for (size_t n : lengths) {
        std::vector<char> bad(good.begin(),
                              good.begin() + static_cast<ptrdiff_t>(n));
        writeAll(cut, bad);
        VectorSink sink;
        std::string what =
            expectTraceError([&] { FileSource(cut).replay(sink); }, cut);
        EXPECT_NE(what.find("offset"), std::string::npos)
            << "truncated at " << n << ": " << what;
    }
    std::filesystem::remove(cut);
    std::filesystem::remove(path);
}

/** A flip in the (never-decoded) metadata is exactly what the checksum
 *  exists for. */
TEST(TraceFile, MetadataBitFlipFailsChecksum)
{
    const std::string path = writeCorruptionFixture();
    std::vector<char> bytes = readAll(path);
    // The metadata sits 36 footer bytes + its own length from the end.
    const size_t meta_at = bytes.size() - 36 - 10;
    bytes[meta_at] = static_cast<char>(bytes[meta_at] ^ 0x40);
    writeAll(path, bytes);
    VectorSink sink;
    std::string what =
        expectTraceError([&] { FileSource(path).replay(sink); }, path);
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    std::filesystem::remove(path);
}

// ---- Streaming sink architecture -----------------------------------

TEST(Sink, DropCountersAccountForCaps)
{
    ProbeConfig pc;
    pc.ops = SamplePlan::all(100);
    pc.collectBranches = true;
    pc.maxBranches = 5;
    CapturedProbe c(pc);
    emitWorkload(c.probe);
    EXPECT_EQ(c.probe.recordedOps(), 100u);
    EXPECT_EQ(c.recorded().ops().size(), 100u);
    EXPECT_GT(c.probe.droppedOps(), 0u);
    EXPECT_EQ(c.probe.recordedBranches(), 5u);
    EXPECT_EQ(c.recorded().branches().size(), 5u);
    EXPECT_GT(c.probe.droppedBranches(), 0u);
}

TEST(Sink, MuxFansOutToAllSinks)
{
    VectorSink first, second;
    SiteProfileSink profile;
    MuxSink mux{&first, &second};
    mux.add(&profile);

    Probe p(ProbeConfig::streaming(true));
    p.setSink(&mux);
    emitWorkload(p);
    p.flushToSink();
    mux.flush();

    expectSameStreams(first.ops(), second.ops());
    EXPECT_EQ(first.ops().size(), p.recordedOps());
    EXPECT_EQ(first.branches().size(), second.branches().size());
    uint64_t attributed = 0;
    for (const auto &[site, n] : profile.siteOps()) {
        attributed += n;
    }
    EXPECT_EQ(attributed, p.recordedOps());
}

TEST(Sink, StreamingConfigRecordsEverything)
{
    CapturedProbe c(ProbeConfig::streaming(true));
    const Probe &p = c.probe;
    emitWorkload(c.probe);
    EXPECT_EQ(c.recorded().ops().size(), p.recordedOps());
    EXPECT_EQ(p.droppedOps(), 0u);
    EXPECT_EQ(p.droppedBranches(), 0u);
    // Only the un-emitted half of each kernel-entry call pair (2 of the
    // 4 booked call-overhead ops) separates the stream from totalOps:
    // 80 enterKernel calls in the workload.
    EXPECT_EQ(p.recordedOps() + 80 * 2, p.totalOps());
}

/** The streaming profiler charges each kernel exactly the ops it
 *  recorded: its call pair (2 of the 4 booked call-overhead ops) plus
 *  every op emitted until the next kernel entry. */
TEST(Sink, SiteProfileAttributesEachKernelsOps)
{
    SiteProfileSink sink = profileOf(emitWorkload);
    ASSERT_EQ(sink.siteOps().size(), 2u);
    // Per round: a = 2 + 30 + 1 + 8 + 1 + 9, b = 2 + 50 + 1 + 1.
    EXPECT_EQ(sink.siteOps().at(sitePc("sink.kernel.a")), 40u * 51);
    EXPECT_EQ(sink.siteOps().at(sitePc("sink.kernel.b")), 40u * 54);
}

// ---- Emission-block boundaries (TraceBlock::kOps = 4096) ------------

/** Records the exact delivery sequence: op batches (sizes + contents),
 *  branch records, and kernel markers, in arrival order. */
class EventRecordingSink final : public TraceSink
{
  public:
    enum class Kind { OpBatch, Branch, Kernel };
    struct Event {
        Kind kind;
        size_t batchSize = 0;   ///< OpBatch only.
        BranchRecord branch{};  ///< Branch only.
        uint64_t site = 0;      ///< Kernel only.
    };

    void onOp(const TraceOp &op) override { onOps(&op, 1); }

    void
    onOps(const TraceOp *batch, size_t n) override
    {
        events.push_back({Kind::OpBatch, n, {}, 0});
        ops.insert(ops.end(), batch, batch + n);
    }

    void
    onBranch(const BranchRecord &branch) override
    {
        events.push_back({Kind::Branch, 0, branch, 0});
    }

    void
    onKernel(uint64_t site) override
    {
        events.push_back({Kind::Kernel, 0, {}, site});
    }

    std::vector<Event> events;
    std::vector<TraceOp> ops;
};

/**
 * Ops staged around the 4096-op emission-block boundary must arrive in
 * batches of at most kBlockOps, and a branch record must flush every
 * staged op first so the sink sees strict program order. 4095 / 4096 /
 * 4097 hit the stage-exactly-full, flush-then-stage, and
 * flush-mid-batch paths respectively.
 */
TEST(Sink, BlockBoundaryPreservesProgramOrder)
{
    const uint64_t site_dec = sitePc("sink.boundary.dec");
    const uint64_t site_k = sitePc("sink.boundary.kernel");
    for (uint64_t n : {4095u, 4096u, 4097u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Probe p(ProbeConfig::streaming(true));
        EventRecordingSink sink;
        p.setSink(&sink);

        p.ops(OpClass::Alu, n, 1);
        p.decision(site_dec, true);  // flushes the staged block
        p.enterKernel(site_k, 8);    // marker, then 2 bookkeeping ops
        p.flushToSink();

        // Every op that precedes the branch in program order (the n ALU
        // ops plus the BranchCond op itself) must arrive before the
        // branch record; the kernel marker and its call-pair ops follow.
        size_t ops_before_branch = 0;
        size_t branch_at = sink.events.size();
        for (size_t i = 0; i < sink.events.size(); ++i) {
            const auto &ev = sink.events[i];
            if (ev.kind == EventRecordingSink::Kind::Branch) {
                branch_at = i;
                break;
            }
            ASSERT_EQ(ev.kind, EventRecordingSink::Kind::OpBatch);
            ASSERT_LE(ev.batchSize, TraceBlock::kOps);
            ops_before_branch += ev.batchSize;
        }
        ASSERT_LT(branch_at, sink.events.size());
        EXPECT_EQ(ops_before_branch, n + 1);
        EXPECT_EQ(sink.events[branch_at].branch.pc, site_dec);
        EXPECT_TRUE(sink.events[branch_at].branch.taken);

        // The kernel marker comes after the branch and before its own
        // call-pair batch.
        ASSERT_EQ(sink.events[branch_at + 1].kind,
                  EventRecordingSink::Kind::Kernel);
        EXPECT_EQ(sink.events[branch_at + 1].site, site_k);
        ASSERT_EQ(sink.events[branch_at + 2].kind,
                  EventRecordingSink::Kind::OpBatch);
        EXPECT_EQ(sink.events[branch_at + 2].batchSize, 2u);

        // Concatenated batches are the exact program-order stream.
        ASSERT_EQ(sink.ops.size(), n + 3);
        for (uint64_t i = 0; i < n; ++i) {
            ASSERT_EQ(sink.ops[i].cls, OpClass::Alu) << "op " << i;
        }
        EXPECT_EQ(sink.ops[n].cls, OpClass::BranchCond);
        EXPECT_EQ(sink.ops[n].pc, site_dec);
        EXPECT_TRUE(sink.ops[n].taken);
        EXPECT_EQ(sink.ops[n + 1].cls, OpClass::BranchUncond);
        EXPECT_EQ(sink.ops[n + 2].cls, OpClass::Other);
        EXPECT_EQ(p.recordedOps(), n + 3);
        EXPECT_EQ(p.totalOps(), n + 1 + 4);
    }
}

// ---- The one staging rule (BlockStager) ------------------------------

/** A BlockSink that keeps every block it is handed. */
class BlockCollector final : public BlockSink
{
  public:
    BlockCollector() : BlockSink("collector") {}
    void flush() override { close(); }
    std::vector<TraceBlock> blocks;

  private:
    void take(TraceBlock &&block) override
    {
        blocks.push_back(std::move(block));
    }
};

/** A bare stager and the blocks it publishes. */
struct Staged {
    BlockStager stager;
    std::vector<TraceBlock> blocks;
    auto
    publish()
    {
        return [this](TraceBlock &&b) { blocks.push_back(std::move(b)); };
    }
};

std::vector<TraceOp>
numberedOps(size_t n)
{
    std::vector<TraceOp> ops(n);
    for (size_t i = 0; i < n; ++i) {
        ops[i].pc = 0x1000 + 4 * i;
        ops[i].cls = i % 3 == 0 ? OpClass::Load : OpClass::Alu;
        ops[i].addr = i % 3 == 0 ? 0x80000 + 8 * i : 0;
    }
    return ops;
}

void
expectSameBlocks(const std::vector<TraceBlock> &a,
                 const std::vector<TraceBlock> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("block " + std::to_string(i));
        expectSameStreams(a[i].ops, b[i].ops);
        ASSERT_EQ(a[i].events.size(), b[i].events.size());
        for (size_t e = 0; e < a[i].events.size(); ++e) {
            const TraceBlock::Event &x = a[i].events[e];
            const TraceBlock::Event &y = b[i].events[e];
            EXPECT_EQ(x.pos, y.pos) << "event " << e;
            EXPECT_EQ(x.kind, y.kind) << "event " << e;
            EXPECT_EQ(x.taken, y.taken) << "event " << e;
            EXPECT_EQ(x.value, y.value) << "event " << e;
        }
    }
}

TEST(BlockStager, SpansCutAtKOps)
{
    const std::vector<TraceOp> ops = numberedOps(TraceBlock::kOps + 1);
    for (size_t n : {TraceBlock::kOps - 1, TraceBlock::kOps,
                     TraceBlock::kOps + 1}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Staged s;
        s.stager.ops(ops.data(), n, s.publish());
        // A full block waits for the next op before it publishes.
        EXPECT_EQ(s.blocks.size(), n > TraceBlock::kOps ? 1u : 0u);
        s.stager.publishTo(s.publish());
        s.stager.publishTo(s.publish());  // the stage is empty again
        ASSERT_EQ(s.blocks.size(), n > TraceBlock::kOps ? 2u : 1u);
        EXPECT_EQ(s.blocks[0].ops.size(), std::min(n, TraceBlock::kOps));
        EXPECT_GE(s.blocks[0].ops.capacity(), TraceBlock::kOps);
        if (n > TraceBlock::kOps) {
            EXPECT_EQ(s.blocks[1].ops.size(), 1u);
            EXPECT_EQ(s.blocks[1].ops[0].pc, ops[TraceBlock::kOps].pc);
        }
    }
}

TEST(BlockStager, EventAfterAFullBlockEndsThatBlock)
{
    const std::vector<TraceOp> ops = numberedOps(TraceBlock::kOps + 1);
    Staged s;
    s.stager.ops(ops.data(), TraceBlock::kOps, s.publish());
    s.stager.event(TraceBlock::Event::Kernel, 0x7000, false, s.publish());
    EXPECT_TRUE(s.blocks.empty());
    s.stager.op(ops.back(), s.publish());
    ASSERT_EQ(s.blocks.size(), 1u);
    ASSERT_EQ(s.blocks[0].events.size(), 1u);
    EXPECT_EQ(s.blocks[0].events[0].pos, TraceBlock::kOps);
    EXPECT_EQ(s.blocks[0].events[0].value, 0x7000u);
}

TEST(BlockStager, TheKOpsthEventPublishes)
{
    const std::vector<TraceOp> ops = numberedOps(10);
    Staged s;
    s.stager.ops(ops.data(), ops.size(), s.publish());
    for (size_t i = 1; i < TraceBlock::kOps; ++i) {
        s.stager.event(TraceBlock::Event::Branch, 0x5000 + i, i % 2 == 0,
                       s.publish());
    }
    EXPECT_TRUE(s.blocks.empty());
    s.stager.event(TraceBlock::Event::Branch, 0x5000, true, s.publish());
    s.stager.publishTo(s.publish());  // nothing left staged
    ASSERT_EQ(s.blocks.size(), 1u);
    EXPECT_EQ(s.blocks[0].ops.size(), 10u);
    EXPECT_EQ(s.blocks[0].events.size(), TraceBlock::kOps);
    EXPECT_EQ(s.blocks[0].events.back().pos, 10u);
}

TEST(BlockStager, OneSpanCrossesTwoBoundaries)
{
    const std::vector<TraceOp> ops = numberedOps(10'000);
    Staged s;
    s.stager.ops(ops.data(), 3000, s.publish());
    s.stager.event(TraceBlock::Event::Branch, 0x5000, true, s.publish());
    s.stager.ops(ops.data() + 3000, 7000, s.publish());
    s.stager.publishTo(s.publish());
    ASSERT_EQ(s.blocks.size(), 3u);
    EXPECT_EQ(s.blocks[0].ops.size(), TraceBlock::kOps);
    EXPECT_EQ(s.blocks[1].ops.size(), TraceBlock::kOps);
    EXPECT_EQ(s.blocks[2].ops.size(), 10'000 - 2 * TraceBlock::kOps);
    ASSERT_EQ(s.blocks[0].events.size(), 1u);
    EXPECT_EQ(s.blocks[0].events[0].pos, 3000u);
    std::vector<TraceOp> joined;
    for (const TraceBlock &b : s.blocks) {
        joined.insert(joined.end(), b.ops.begin(), b.ops.end());
    }
    expectSameStreams(ops, joined);
}

/** Blocks depend only on the records: one record at a time, spans,
 *  whole blocks, and whole blocks re-delivered as records by a MuxSink
 *  all cut the same blocks, branch bursts past kOps events included. */
TEST(BlockStager, RecordsAndWholeBlocksCutTheSameBlocks)
{
    const std::vector<TraceOp> ops = numberedOps(20'000);
    auto feed = [&](TraceSink &sink, bool spans) {
        size_t pos = 0;
        for (size_t round = 0; pos < ops.size(); ++round) {
            const size_t n =
                std::min(ops.size() - pos, 1000 + 997 * round % 5000);
            if (spans) {
                sink.onOps(ops.data() + pos, n);
            } else {
                for (size_t i = 0; i < n; ++i) {
                    sink.onOp(ops[pos + i]);
                }
            }
            pos += n;
            sink.onKernel(0x4000 + round);
            const size_t burst = round == 2 ? 5000 : 300;
            for (size_t b = 0; b < burst; ++b) {
                sink.onBranch({0x6000 + b % 64, b % 3 != 0});
            }
        }
        sink.flush();
    };
    BlockCollector one_by_one, spans, whole, muxed;
    feed(one_by_one, false);
    feed(spans, true);
    ASSERT_GT(one_by_one.blocks.size(), 5u);
    expectSameBlocks(one_by_one.blocks, spans.blocks);

    MuxSink mux{&muxed};
    for (const TraceBlock &b : one_by_one.blocks) {
        TraceBlock copy = b;
        whole.onBlock(std::move(copy));
        mux.onBlock(TraceBlock(b));
    }
    whole.flush();
    mux.flush();
    expectSameBlocks(one_by_one.blocks, whole.blocks);
    expectSameBlocks(one_by_one.blocks, muxed.blocks);

    EXPECT_THROW(whole.onOp(ops[0]), std::logic_error);
}

/** The capture path the lab uses: a probe that records exactly kOps ops
 *  and then enters a kernel stages the kernel event at pos kOps, and
 *  the file must hold that block, not start the next one with it. */
TEST(TraceFile, CaptureKeepsTheProbesBlocks)
{
    auto emit = [](Probe &p) {
        p.enterKernel(sitePc("tracefile.cuts.a"), 16);  // 2 ops recorded
        p.ops(OpClass::SimdAlu, TraceBlock::kOps - 2, 1);
        p.enterKernel(sitePc("tracefile.cuts.b"), 16);
        p.ops(OpClass::Alu, 100);
        p.flushToSink();
    };
    BlockCollector live;
    Probe direct(ProbeConfig::streaming(true));
    direct.setSink(&live);
    emit(direct);
    live.flush();
    ASSERT_EQ(live.blocks.size(), 2u);
    ASSERT_EQ(live.blocks[0].events.size(), 2u);
    EXPECT_EQ(live.blocks[0].events[1].pos, TraceBlock::kOps);

    const std::string path = "/tmp/vepro_test_tracefile_cuts.vetf";
    {
        FileSink file(path);
        MuxSink mux{&file};
        Probe fed(ProbeConfig::streaming(true));
        fed.setSink(&mux);
        emit(fed);
        mux.flush();
    }
    BlockCollector replayed;
    FileSource(path).replay(replayed);
    replayed.flush();
    expectSameBlocks(live.blocks, replayed.blocks);
    std::filesystem::remove(path);
}

// ---- Recorded spans (Probe::commitQuietSpan) -------------------------

/** 28 ops over two kernels; span.b enters 14 ops past the start. */
void
spanCalls(Probe &p)
{
    p.enterKernel(sitePc("span.a"), 8);
    p.ops(OpClass::SimdAlu, 10, 1);
    p.enterKernel(sitePc("span.b"), 12);
    p.memRun(OpClass::SimdLoad, 0x8000, 6, 32);
    p.decision(sitePc("span.d"), true);
    p.loopBranches(3);
}

/** @p calls's span, recorded on a mix-only probe at op 37. */
template <typename Calls>
QuietSpan
recordSpan(Calls calls)
{
    Probe recorder;
    recorder.ops(OpClass::Other, 37);
    const QuietSpan start = recorder.mark();
    calls(recorder);
    return recorder.spanSince(start);
}

/** A 100-op window every 1000 ops. */
ProbeConfig
spanWindows()
{
    ProbeConfig cfg;
    cfg.ops = SamplePlan::windows(100, 1000);
    return cfg;
}

/** The span committed at op 250, between windows, leaves what its calls
 *  leave: the ops recorded in the next window run at span.b's PCs, in
 *  the code variant of its entry at op 264 (not the start's), after
 *  its deferred kernel event. */
TEST(QuietSpan, CommitLeavesWhatItsCallsLeave)
{
    const QuietSpan span = recordSpan(spanCalls);
    EXPECT_EQ(span.total, 28u);
    EXPECT_EQ(span.entryOffset, 14u);
    EXPECT_EQ(span.site, sitePc("span.b"));
    EXPECT_EQ(span.bodyLen, 12);

    BlockCollector direct, committed;
    Probe a(spanWindows()), b(spanWindows());
    a.setSink(&direct);
    b.setSink(&committed);
    a.ops(OpClass::Alu, 250);
    b.ops(OpClass::Alu, 250);
    spanCalls(a);
    ASSERT_TRUE(b.commitQuietSpan(span));
    for (Probe *p : {&a, &b}) {
        p->ops(OpClass::Alu, 722);  // to op 1000, the next window
        p->mem(OpClass::Load, 0x100);
        p->loopBranches(2);
        p->flushToSink();
    }
    direct.flush();
    committed.flush();
    EXPECT_EQ(b.totalOps(), a.totalOps());
    EXPECT_EQ(b.mix().byClass, a.mix().byClass);
    expectSameBlocks(direct.blocks, committed.blocks);
    // The first window's 100 ops, then the mem op and two loop branches.
    ASSERT_EQ(committed.blocks.size(), 1u);
    ASSERT_EQ(committed.blocks[0].ops.size(), 103u);
    EXPECT_EQ(committed.blocks[0].ops[100].pc, sitePc("span.b") + 4 * 1024);
    ASSERT_EQ(committed.blocks[0].events.size(), 1u);
    EXPECT_EQ(committed.blocks[0].events[0].pos, 100u);
    EXPECT_EQ(committed.blocks[0].events[0].value, sitePc("span.b"));
}

/** A span with no kernel entry keeps the kernel in force before it. */
TEST(QuietSpan, SpanWithoutAnEntryKeepsTheKernel)
{
    auto body = [](Probe &p) {
        p.ops(OpClass::Alu, 5);
        p.mem(OpClass::Store, 0x40);
    };
    const QuietSpan span = recordSpan(body);
    EXPECT_EQ(span.total, 6u);
    EXPECT_EQ(span.entryOffset, QuietSpan::kNoEntry);

    BlockCollector direct, committed;
    Probe a(spanWindows()), b(spanWindows());
    a.setSink(&direct);
    b.setSink(&committed);
    for (Probe *p : {&a, &b}) {
        p->ops(OpClass::Alu, 200);
        p->enterKernel(sitePc("span.k"), 8);
    }
    body(a);
    ASSERT_TRUE(b.commitQuietSpan(span));
    for (Probe *p : {&a, &b}) {
        p->ops(OpClass::Alu, 790);
        p->mem(OpClass::Load, 0x100);
        p->flushToSink();
    }
    direct.flush();
    committed.flush();
    EXPECT_EQ(b.mix().byClass, a.mix().byClass);
    expectSameBlocks(direct.blocks, committed.blocks);
    ASSERT_EQ(committed.blocks.size(), 1u);
    EXPECT_EQ(committed.blocks[0].events[0].value, sitePc("span.k"));
}

/** A span that would reach a window, or any span on a probe that records
 *  every op, does not commit and leaves the probe as it was. */
TEST(QuietSpan, CommitFailsWhereACallWouldRecord)
{
    const QuietSpan span = recordSpan(spanCalls);
    BlockCollector sink;
    Probe windowed(spanWindows());
    windowed.setSink(&sink);
    windowed.ops(OpClass::Alu, 980);  // 20 ops before the window
    const MixCounters before = windowed.mix();
    EXPECT_FALSE(windowed.commitQuietSpan(span));
    EXPECT_EQ(windowed.totalOps(), 980u);
    EXPECT_EQ(windowed.mix().byClass, before.byClass);

    Probe streaming(ProbeConfig::streaming());
    streaming.setSink(&sink);
    EXPECT_FALSE(streaming.commitQuietSpan(span));
    EXPECT_EQ(streaming.totalOps(), 0u);

    Probe mix_only;
    EXPECT_TRUE(mix_only.commitQuietSpan(span));
    EXPECT_EQ(mix_only.totalOps(), 28u);
}

} // namespace
} // namespace vepro::trace
