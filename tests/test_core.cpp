/**
 * @file
 * Unit tests for the experiment harness: report formatting, run scaling,
 * sweep helpers, the thread-study machinery — and the golden-stats
 * regression suite that pins the simulator's exact counters so hot-path
 * refactors can be checked against byte-identical numbers.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "backend/profile.hpp"
#include "bpred/runner.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"
#include "lab/jobspec.hpp"
#include "ladder/ladder.hpp"
#include "print_results.hpp"
#include "serve/costmodel.hpp"
#include "trace/sample_plan.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "uarch/core.hpp"
#include "video/generator.hpp"

namespace vepro::trace
{
void
PrintTo(const SamplePlan &plan, std::ostream *os)
{
    *os << "{window " << plan.window() << ", interval " << plan.interval()
        << ", cap " << plan.cap() << "}";
}
} // namespace vepro::trace

namespace vepro::core
{
namespace
{

TEST(Report, MarkdownShape)
{
    Table t({"a", "b"});
    t.addRow({"1", "22"});
    t.addRow({"333", "4"});
    std::string md = t.toMarkdown();
    EXPECT_NE(md.find("| a "), std::string::npos);
    EXPECT_NE(md.find("| 333 |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Report, JsonRowsKeyedByHeader)
{
    Table t({"Video", "IPC"});
    t.addRow({"game1", "1.98"});
    t.addRow({"cat \"pet\"", "2.01"});
    EXPECT_EQ(t.toJson(), "[\n"
                          "  {\"Video\": \"game1\", \"IPC\": \"1.98\"},\n"
                          "  {\"Video\": \"cat \\\"pet\\\"\", "
                          "\"IPC\": \"2.01\"}\n"
                          "]");
    // Deterministic: the artifact byte-compare in CI depends on it.
    EXPECT_EQ(t.toJson(), t.toJson());
    EXPECT_EQ(Table({"a"}).toJson(), "[]");
}

TEST(Report, RowWidthValidated)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
    EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
    EXPECT_EQ(fmtSci(1.7e11), "1.7E+11");
    EXPECT_EQ(fmtSci(9.5e10), "9.5E+10");
    EXPECT_EQ(fmtSci(0.0), "0");
}

/** Every RunScale flag over @p args, as vepro-lab reads them. */
RunScale
parseScale(const std::vector<std::string> &args)
{
    RunScale scale;
    parseFlags(RunScale::flags(scale), args);
    return scale;
}

TEST(RunScale, ParsesFlags)
{
    RunScale quick = parseScale({"--quick"});
    EXPECT_EQ(quick.suite.divisor, 8);

    RunScale full = parseScale({"--full"});
    EXPECT_EQ(full.suite.divisor, 4);
    EXPECT_GT(full.maxTraceOps, quick.maxTraceOps);

    RunScale filt = parseScale({"--videos=game1,cat"});
    ASSERT_EQ(filt.videos.size(), 2u);
    EXPECT_EQ(filt.videos[0], "game1");
    EXPECT_EQ(filt.videos[1], "cat");
    EXPECT_EQ(selectedVideos(filt).size(), 2u);

    // --sim-jobs and the segment flags are not RunScale flags
    // (vepro-lab exits 2 on them), and --videos names at least one clip,
    // no empty one and none outside the suite.
    for (const char *rejected :
         {"--bogus", "--sim-jobs=2", "--segments=4", "--segment-warmup=8",
          "--videos=", "--videos=desktop,,cat", "--videos=bogus",
          "--videos=desktop,bogus"}) {
        EXPECT_THROW(parseScale({rejected}), std::invalid_argument)
            << rejected;
    }
}

/** The op plans behind the figures, pinned here rather than only by the
 *  ledger's digest: a 150 k window every 600 k ops up to each scale's
 *  cap, or every op under --uncapped. */
TEST(RunScale, TracingConfigPinsTheFiguresPlans)
{
    using trace::SamplePlan;
    const auto plan = [](const RunScale &scale) {
        const trace::ProbeConfig pc = tracingConfig(scale);
        EXPECT_FALSE(pc.collectBranches);
        return pc.ops;
    };
    EXPECT_EQ(plan(RunScale{}),
              SamplePlan::windows(150'000, 600'000, 1'200'000));
    EXPECT_EQ(plan(parseScale({"--quick"})), plan(RunScale{}));
    EXPECT_EQ(plan(parseScale({"--full"})),
              SamplePlan::windows(150'000, 600'000, 4'000'000));
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--uncapped"},
          std::vector<std::string>{"--uncapped", "--full"},
          std::vector<std::string>{"--full", "--uncapped"}}) {
        EXPECT_EQ(plan(parseScale(args)), SamplePlan::all()) << args[0];
    }

    // vepro-serve's cost specs and the ladder's rungs reach it through
    // their JobSpecs.
    lab::JobSpec serve_spec;
    serve_spec.maxTraceOps = serve::CostModelConfig{}.maxTraceOps;
    EXPECT_EQ(plan(serve_spec.toRunScale()),
              SamplePlan::windows(150'000, 600'000, 150'000));
    lab::JobSpec rung;
    rung.maxTraceOps =
        ladder::ladderConfigFromScale(parseScale({"--quick"})).maxTraceOps;
    EXPECT_EQ(plan(rung.toRunScale()),
              SamplePlan::windows(150'000, 600'000, 1'200'000));
}

TEST(RunScale, JobsParsingIsStrict)
{
    EXPECT_EQ(parseScale({"--jobs=4"}).jobs, 4);

    // 0 = auto-detect hardware threads, resolved at parse time so every
    // consumer sees a concrete count (floor 1).
    EXPECT_GE(parseScale({"--jobs=0"}).jobs, 1);

    // std::stoi would have accepted all of these silently.
    for (const char *bad :
         {"--jobs=4abc", "--jobs=", "--jobs=1e3", "--jobs= 2",
          "--jobs=-1", "--jobs=4.5"}) {
        EXPECT_THROW(parseScale({bad}), std::invalid_argument) << bad;
    }
}

TEST(RunScale, CacheFlags)
{
    RunScale scale = parseScale({"--no-cache", "--store=/tmp/altstore"});
    EXPECT_TRUE(scale.noCache);
    EXPECT_EQ(scale.storeDir, "/tmp/altstore");

    RunScale defaults;
    EXPECT_FALSE(defaults.noCache);
    EXPECT_EQ(defaults.storeDir, ".vepro-lab");

    EXPECT_THROW(parseScale({"--store="}), std::invalid_argument);
}

TEST(ParseIntStrict, AcceptsWholeIntegersOnly)
{
    EXPECT_EQ(parseIntStrict("17", "--n"), 17);
    EXPECT_EQ(parseIntStrict("-3", "--n"), -3);
    for (const char *bad : {"", "abc", "4abc", "1.5", "1e3", " 2", "2 "}) {
        EXPECT_THROW(parseIntStrict(bad, "--n"), std::invalid_argument)
            << "'" << bad << "'";
    }

    // The same whole-token rule for uint64_t (no sign) and finite doubles.
    EXPECT_EQ(parseU64Strict("18446744073709551615", "--s"), UINT64_MAX);
    for (const char *bad : {"", "-1", "7abc", "1.5", " 7", "7 ",
                            "18446744073709551616"}) {
        EXPECT_THROW(parseU64Strict(bad, "--s"), std::invalid_argument)
            << "'" << bad << "'";
    }
    EXPECT_DOUBLE_EQ(parseDoubleStrict("-2.5e1", "--x"), -25.0);
    for (const char *bad : {"", "2.5GHz", "60s", " 1", "1 ", "nan", "inf",
                            "-inf", "1e999"}) {
        EXPECT_THROW(parseDoubleStrict(bad, "--x"), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(RunScale, DefaultSelectsWholeSuite)
{
    RunScale scale;
    EXPECT_EQ(selectedVideos(scale).size(), 15u);
}

TEST(Sweeps, CrfPointsAndMapping)
{
    EXPECT_EQ(crfSweepAv1().size(), 6u);
    EXPECT_EQ(crfSweepAv1().front(), 10);
    EXPECT_EQ(crfSweepAv1().back(), 60);
    EXPECT_EQ(mapCrfToX26x(63), 51);
    EXPECT_EQ(mapCrfToX26x(0), 0);
}

TEST(RunPoint, ProducesLinkedEncodeAndSimulation)
{
    video::GeneratorParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 2;
    p.entropy = 4;
    p.seed = 3;
    video::Video clip = video::generate("rp", p);
    RunScale scale;
    scale.maxTraceOps = 200'000;
    auto enc = encoders::encoderByName("Libvpx-vp9");
    SweepPoint point = runPoint(*enc, clip, 45, 7, scale);
    EXPECT_GT(point.encode.instructions, 0u);
    EXPECT_GT(point.core.instructions, 0u);
    EXPECT_GT(point.core.ipc(), 0.3);
    EXPECT_LT(point.core.ipc(), 4.0);
    EXPECT_EQ(point.core.slots.total(), point.core.cycles * 4);
}

/** An encode with its task graph and the op trace the graph's op
 *  ranges index into. */
struct TaskedEncode {
    encoders::EncodeResult result;
    trace::VectorSink trace;
};

TaskedEncode
taskedEncode(const char *name)
{
    video::GeneratorParams p;
    p.width = 256;
    p.height = 128;
    p.frames = 6;
    p.entropy = 4;
    p.seed = 5;
    video::Video clip = video::generate("ts", p);
    auto enc = encoders::encoderByName(name);
    encoders::EncodeParams ep;
    ep.crf = enc->crfRange() * 5 / 8;
    ep.preset = enc->presetInverted() ? 2 : 6;
    trace::ProbeConfig pc;
    pc.ops = trace::SamplePlan::all(300'000);
    TaskedEncode out;
    out.result = enc->encode(clip, ep, pc, true, &out.trace);
    return out;
}

TEST(ThreadStudy, CurveStartsAtOneAndNeverRegresses)
{
    auto curve = scalabilityCurve(taskedEncode("SVT-AV1").result, 8);
    ASSERT_EQ(curve.size(), 8u);
    EXPECT_NEAR(curve[0].speedup, 1.0, 1e-9);
    for (size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].speedup, curve[i - 1].speedup - 1e-9);
        EXPECT_LE(curve[i].speedup, static_cast<double>(i + 1) + 1e-9);
    }
}

TEST(ThreadStudy, SerialSpineScalesWorstWavefrontBest)
{
    auto svt = scalabilityCurve(taskedEncode("SVT-AV1").result, 8);
    auto x265 = scalabilityCurve(taskedEncode("x265").result, 8);
    EXPECT_GT(svt.back().speedup, x265.back().speedup * 1.2);
    EXPECT_LT(x265.back().speedup, 1.9);
}

TEST(ThreadStudy, RequiresTaskGraph)
{
    encoders::EncodeResult empty;
    EXPECT_THROW(scalabilityCurve(empty, 4), std::invalid_argument);
}

TEST(SystemTrace, SingleThreadHasNoSpins)
{
    auto r = taskedEncode("x265");
    auto trace = buildSystemTrace(r.trace.ops(), r.result.taskGraph, 1);
    for (const auto &op : trace) {
        EXPECT_FALSE(op.foreign);
    }
    EXPECT_FALSE(trace.empty());
}

TEST(SystemTrace, IdleCoresSpinOnTheQueueLine)
{
    auto r = taskedEncode("x265");
    auto trace = buildSystemTrace(r.trace.ops(), r.result.taskGraph, 8);
    size_t foreign = 0, spins = 0;
    for (const auto &op : trace) {
        foreign += op.foreign;
        spins += !op.foreign && op.cls == trace::OpClass::Load &&
                 op.addr == 0x7f000000ULL;
    }
    EXPECT_GT(foreign, 100u) << "x265's idle helpers must generate "
                                "coherence traffic";
    EXPECT_GT(spins, 100u);
}

TEST(SystemTrace, RespectsOpCap)
{
    auto r = taskedEncode("SVT-AV1");
    SystemTraceConfig cfg;
    cfg.maxOps = 5'000;
    auto trace = buildSystemTrace(r.trace.ops(), r.result.taskGraph, 4, cfg);
    EXPECT_LE(trace.size(), 5'000u);
}

// ---- Golden-stats regression suite ---------------------------------
//
// Every number below was produced by `bench_simspeed --golden` and is
// the contract every hot-path refactor must preserve BIT-IDENTICALLY:
// the streaming pipeline, the core's scheduling structures, and the
// cache model may be rebuilt freely, but these counters must not move.
// If a change is *meant* to alter simulated behaviour, regenerate with
// `bench_simspeed --golden` and justify the new numbers in the commit.

TEST(GoldenStats, CoreCountersOnSynthTrace)
{
    trace::SynthConfig cfg;
    cfg.ops = 400'000;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    uarch::Core core;
    uarch::CoreStats s = core.run(t);

    EXPECT_EQ(s.cycles, 1049439u);
    EXPECT_EQ(s.instructions, 399744u);
    EXPECT_EQ(s.slots.retiring, 399744u);
    EXPECT_EQ(s.slots.badSpec, 2191255u);
    EXPECT_EQ(s.slots.frontend, 85298u);
    EXPECT_EQ(s.slots.backend, 1521459u);
    EXPECT_EQ(s.slots.backendMemory, 1521459u);
    EXPECT_EQ(s.slots.backendCore, 0u);
    EXPECT_EQ(s.stalls.rs, 394113u);
    EXPECT_EQ(s.stalls.rob, 0u);
    EXPECT_EQ(s.stalls.loadBuf, 0u);
    EXPECT_EQ(s.stalls.storeBuf, 0u);
    EXPECT_EQ(s.condBranches, 52886u);
    EXPECT_EQ(s.mispredicts, 3076u);
    EXPECT_EQ(s.l1iMisses, 48u);
    EXPECT_EQ(s.l1dAccesses, 188042u);
    EXPECT_EQ(s.l1dMisses, 141494u);
    EXPECT_EQ(s.l2Misses, 93742u);
    EXPECT_EQ(s.llcMisses, 81221u);
    EXPECT_EQ(s.invalidations, 5u);
}

TEST(GoldenStats, StreamingBlockDeliveryIsBitIdentical)
{
    // The same trace streamed through the sink interface in awkward
    // batch sizes must reproduce the batch-replay numbers above.
    trace::SynthConfig cfg;
    cfg.ops = 400'000;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    uarch::StreamCore sim;
    size_t pos = 0, chunk = 1;
    while (pos < t.size()) {
        size_t n = std::min(chunk, t.size() - pos);
        sim.onOps(t.data() + pos, n);
        pos += n;
        chunk = chunk % 4099 + 7;
    }
    sim.flush();
    EXPECT_EQ(sim.stats().cycles, 1049439u);
    EXPECT_EQ(sim.stats().mispredicts, 3076u);
    EXPECT_EQ(sim.stats().l1dMisses, 141494u);
    EXPECT_EQ(sim.stats().llcMisses, 81221u);
}

TEST(GoldenStats, CacheSinkCountersOnSynthTrace)
{
    trace::SynthConfig cfg;
    cfg.ops = 400'000;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    uarch::CacheSink sink;
    sink.onOps(t.data(), t.size());
    sink.flush();
    const uarch::Hierarchy &m = sink.hierarchy();

    EXPECT_EQ(sink.instructions(), 399744u);
    EXPECT_EQ(m.l1i().accesses(), 117423u);
    EXPECT_EQ(m.l1i().misses(), 48u);
    EXPECT_EQ(m.l1d().accesses(), 188042u);
    EXPECT_EQ(m.l1d().misses(), 141507u);
    EXPECT_EQ(m.l2().accesses(), 141555u);
    EXPECT_EQ(m.l2().misses(), 93740u);
    EXPECT_EQ(m.llc().accesses(), 93996u);
    EXPECT_EQ(m.llc().misses(), 81221u);
    EXPECT_EQ(m.l1d().invalidations() + m.l2().invalidations(), 5u);
}

TEST(GoldenStats, PredictorMissesOnSynthBranches)
{
    std::vector<trace::BranchRecord> b = trace::synthBranches(200'000);
    auto pred = bpred::makePredictor("tage-64KB");
    bpred::RunResult r = bpred::runTrace(*pred, b, 1'000'000);
    EXPECT_EQ(r.branches, 200'000u);
    EXPECT_EQ(r.misses, 20934u);
}

// ---------------------------------------------------------------------------
// One-pass multi-config fan-out (runPointMulti): the determinism
// contract is BIT-IDENTITY with sequential runPoint, not "close
// enough" — the MuxSink hands every core the exact record stream.

video::Video
multiClip()
{
    video::GeneratorParams p;
    p.width = 96;
    p.height = 64;
    p.frames = 2;
    p.entropy = 5;
    p.seed = 11;
    return video::generate("multi", p);
}

TEST(RunPointMulti, BitIdenticalToSequentialRunPoint)
{
    video::Video clip = multiClip();
    auto enc = encoders::encoderByName("SVT-AV1");
    RunScale scale;
    scale.maxTraceOps = 150'000;

    // Sequential baselines: one full encode per config.
    SweepPoint seq_default = runPoint(*enc, clip, 40, 6, scale);
    RunScale grav_scale = scale;
    grav_scale.backend = "graviton-like";
    SweepPoint seq_grav = runPoint(*enc, clip, 40, 6, grav_scale);

    // One pass through both configs.
    std::vector<uarch::CoreConfig> configs = {
        uarch::CoreConfig{},
        backend::resolveProfile("graviton-like").core};
    std::vector<SweepPoint> multi =
        runPointMulti(*enc, clip, 40, 6, scale, configs);
    ASSERT_EQ(multi.size(), 2u);
    EXPECT_EQ(multi[0].core, seq_default.core);
    EXPECT_EQ(multi[1].core, seq_grav.core);

    // The single encode serves every config verbatim.
    EXPECT_EQ(multi[0].encode.instructions, multi[1].encode.instructions);
    EXPECT_EQ(multi[0].encode.instructions, seq_default.encode.instructions);
    // Different machine geometries really did diverge (no sink aliasing).
    EXPECT_NE(multi[0].core.cycles, multi[1].core.cycles);
}

TEST(RunPointMulti, EmptyConfigsReturnEmpty)
{
    video::Video clip = multiClip();
    auto enc = encoders::encoderByName("SVT-AV1");
    RunScale scale;
    scale.maxTraceOps = 50'000;
    EXPECT_TRUE(runPointMulti(*enc, clip, 40, 6, scale, {}).empty());
}

TEST(RunPointMulti, DiskReplayMatchesLiveFanOut)
{
    video::Video clip = multiClip();
    auto enc = encoders::encoderByName("SVT-AV1");
    RunScale scale;
    scale.maxTraceOps = 150'000;
    std::vector<uarch::CoreConfig> configs = {
        uarch::CoreConfig{},
        backend::resolveProfile("graviton-like").core};

    // Capture the very trace a live run would stream.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "vepro_test_runpointmulti.vetf")
            .string();
    {
        encoders::EncodeParams params;
        params.crf = 40;
        params.preset = 6;
        trace::FileSink sink(path);
        enc->encode(clip, params, tracingConfig(scale), false, &sink);
    }

    std::vector<SweepPoint> live =
        runPointMulti(*enc, clip, 40, 6, scale, configs);
    ASSERT_EQ(live.size(), configs.size());
    trace::FileSource source(path);
    for (size_t i = 0; i < configs.size(); ++i) {
        uarch::StreamCore replayed(configs[i]);
        source.replay(replayed);
        replayed.flush();
        EXPECT_EQ(replayed.stats(), live[i].core);
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace vepro::core
