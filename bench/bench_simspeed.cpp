/**
 * @file
 * Simulator-throughput benchmark: how many simulated ops per second the
 * trace→simulation hot path sustains, per component and end to end.
 *
 * Replays the deterministic synthetic workload of trace/synth.hpp
 * through each stage of the pipeline in isolation and then fused:
 *
 *   probe_emit  — the delivery layer alone: kernel-facing emission API
 *                 (PC synthesis, sampling accounting, block flushing)
 *                 into a counting null sink.
 *   cache       — CacheSink: hierarchy-only replay of the op trace.
 *   core        — StreamCore: the full out-of-order model.
 *   bpred       — StreamRunner + TAGE on the synthetic branch trace
 *                 (reported in M branches/s).
 *   end_to_end  — probe emission fused into MuxSink{StreamCore,
 *                 CacheSink, StreamRunner}: the shape every vepro-lab
 *                 sweep point runs.
 *   capture     — probe emission into a trace::FileSink: the encode-side
 *                 cost of a trace-cache miss over plain executeDirect
 *                 (also logs the on-disk bytes/op of the codec).
 *   replay      — trace::FileSource decode into a counting sink: the
 *                 fixed per-run cost of a trace-cache hit before any
 *                 simulation work happens.
 *
 * Writes BENCH_simspeed.json (see --out) so the repository carries a
 * perf trajectory; --baseline compares against a committed file and
 * exits non-zero on a >tolerance regression (the CI perf-smoke gate).
 *
 * --golden prints the exact golden-stats counters pinned by
 * tests/test_core.cpp, for regeneration after an intentional
 * behaviour change.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/runner.hpp"
#include "core/flags.hpp"
#include "lab/json.hpp"
#include "trace/probe.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "uarch/core.hpp"

namespace
{

using namespace vepro;

using Clock = std::chrono::steady_clock;

/** Null sink that only counts deliveries (measures the probe side). */
class CountSink final : public trace::TraceSink
{
  public:
    void onOp(const trace::TraceOp &) override { ++ops_; }
    void onOps(const trace::TraceOp *, size_t n) override { ops_ += n; }
    void onBranch(const trace::BranchRecord &) override { ++branches_; }

    uint64_t ops() const { return ops_; }

  private:
    uint64_t ops_ = 0;
    uint64_t branches_ = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Best-of-@p reps throughput of @p run, in M records/s. */
template <typename Fn>
double
bestMops(int reps, Fn run)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        uint64_t records = run();
        double s = secondsSince(t0);
        double mops = s > 0.0 ? static_cast<double>(records) / s / 1e6 : 0.0;
        best = std::max(best, mops);
    }
    return best;
}

std::string
fmt3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/** The fixed configuration pinned by the golden-stats tests. */
constexpr uint64_t kGoldenOps = 400'000;
constexpr uint64_t kGoldenBranches = 200'000;

void
printGolden()
{
    trace::SynthConfig cfg;
    cfg.ops = kGoldenOps;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);

    uarch::Core core;
    uarch::CoreStats s = core.run(t);
    std::printf("// Core::run(synthTrace{ops=%llu}), default CoreConfig\n",
                static_cast<unsigned long long>(kGoldenOps));
    std::printf("cycles=%llu instructions=%llu\n",
                (unsigned long long)s.cycles,
                (unsigned long long)s.instructions);
    std::printf("slots: retiring=%llu badSpec=%llu frontend=%llu "
                "backend=%llu backendMemory=%llu backendCore=%llu\n",
                (unsigned long long)s.slots.retiring,
                (unsigned long long)s.slots.badSpec,
                (unsigned long long)s.slots.frontend,
                (unsigned long long)s.slots.backend,
                (unsigned long long)s.slots.backendMemory,
                (unsigned long long)s.slots.backendCore);
    std::printf("stalls: rs=%llu rob=%llu loadBuf=%llu storeBuf=%llu\n",
                (unsigned long long)s.stalls.rs,
                (unsigned long long)s.stalls.rob,
                (unsigned long long)s.stalls.loadBuf,
                (unsigned long long)s.stalls.storeBuf);
    std::printf("branches: cond=%llu mispredicts=%llu\n",
                (unsigned long long)s.condBranches,
                (unsigned long long)s.mispredicts);
    std::printf("mem: l1iMisses=%llu l1dAccesses=%llu l1dMisses=%llu "
                "l2Misses=%llu llcMisses=%llu invalidations=%llu\n",
                (unsigned long long)s.l1iMisses,
                (unsigned long long)s.l1dAccesses,
                (unsigned long long)s.l1dMisses,
                (unsigned long long)s.l2Misses,
                (unsigned long long)s.llcMisses,
                (unsigned long long)s.invalidations);

    uarch::CacheSink sink;
    sink.onOps(t.data(), t.size());
    sink.flush();
    const uarch::Hierarchy &m = sink.hierarchy();
    std::printf("// CacheSink over the same trace\n");
    std::printf("cachesink: instructions=%llu l1i=%llu/%llu l1d=%llu/%llu "
                "l2=%llu/%llu llc=%llu/%llu inval=%llu\n",
                (unsigned long long)sink.instructions(),
                (unsigned long long)m.l1i().accesses(),
                (unsigned long long)m.l1i().misses(),
                (unsigned long long)m.l1d().accesses(),
                (unsigned long long)m.l1d().misses(),
                (unsigned long long)m.l2().accesses(),
                (unsigned long long)m.l2().misses(),
                (unsigned long long)m.llc().accesses(),
                (unsigned long long)m.llc().misses(),
                (unsigned long long)(m.l1d().invalidations() +
                                     m.l2().invalidations()));

    std::vector<trace::BranchRecord> b =
        trace::synthBranches(kGoldenBranches);
    auto pred = bpred::makePredictor("tage-64KB");
    bpred::RunResult r = bpred::runTrace(*pred, b, kGoldenBranches * 5);
    std::printf("// tage-64KB on synthBranches(%llu)\n",
                (unsigned long long)kGoldenBranches);
    std::printf("bpred: branches=%llu misses=%llu\n",
                (unsigned long long)r.branches,
                (unsigned long long)r.misses);
}

struct Options {
    uint64_t ops = 6'000'000;
    int reps = 3;
    std::string mode = "default";
    std::string out = "BENCH_simspeed.json";
    std::string baseline;
    double tolerance = 0.30;
    bool golden = false;
};

/** True when @p a and @p b name the same file, existing or not. */
bool
sameFile(const std::string &a, const std::string &b)
{
    std::error_code ea, eb;
    const std::filesystem::path pa = std::filesystem::weakly_canonical(a, ea);
    const std::filesystem::path pb = std::filesystem::weakly_canonical(b, eb);
    return ea || eb ? a == b : pa == pb;
}

/** The gate's flags over @p o. A usage error exits 1 before anything
 *  is measured: 2 means "throughput regressed". */
core::FlagTable
simspeedFlags(Options &o)
{
    using enum core::FlagKind;
    using core::to;
    return {.program = "bench_simspeed", .rows = {
        {.name = "quick", .excludes = {"full"}, .help = "1.5 M ops (CI)",
         .set = [&o](auto &) { o.ops = 1'500'000; o.mode = "quick"; }},
        {.name = "full", .help = "24 M ops",
         .set = [&o](auto &) { o.ops = 24'000'000; o.mode = "full"; }},
        {.name = "reps", .kind = Int, .metavar = "N", .min = 1,
         .help = "best of N runs per stage", .set = to(o.reps)},
        {.name = "out", .kind = String, .metavar = "FILE",
         .help = "JSON to write (default BENCH_simspeed.json)",
         .set = to(o.out)},
        {.name = "baseline", .kind = String, .metavar = "FILE",
         .help = "gate against FILE: exit 2 on a regression",
         .set = to(o.baseline)},
        {.name = "tolerance", .kind = Double, .metavar = "F", .min = 0,
         .max = 1, .open = true, .needs = "baseline",
         .help = "the fall the gate allows (default 0.30)",
         .set = to(o.tolerance)},
        {.name = "golden",
         .excludes = {"quick", "full", "reps", "out", "baseline", "tolerance"},
         .help = "print the golden-stats counters instead",
         .set = to(o.golden)},
    }, .check = [&o] {
        if (!o.baseline.empty() && sameFile(o.out, o.baseline)) {
            throw core::UsageError("--out would overwrite the --baseline '" +
                                   o.baseline + "'");
        }
    }};
}

/** The keys the perf gate compares. Keys absent from an older baseline
 *  are skipped, so adding new measurements never breaks a gate. */
constexpr const char *kGateKeys[] = {
    "probe_emit", "cache", "core", "bpred", "end_to_end", "capture", "replay"};

/**
 * The baseline's throughput per gated key it holds, read before any
 * measurement. Exits 1 when the file is missing or malformed, holds no
 * gated key, or holds a value that is not a positive finite number:
 * such a baseline would pass every comparison.
 */
std::vector<std::pair<std::string, double>>
loadBaseline(const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr,
                     "bench_simspeed: baseline file '%s' is missing or "
                     "unreadable.\n"
                     "The perf gate cannot run without it. Regenerate with\n"
                     "  ./bench_simspeed --out=BENCH_simspeed.json\n"
                     "at the repo root and commit the file.\n",
                     path.c_str());
        std::exit(1);
    }
    auto unusable = [&](const std::string &why) {
        std::fprintf(stderr, "bench_simspeed: baseline '%s' is unusable: %s\n",
                     path.c_str(), why.c_str());
        std::exit(1);
    };
    std::stringstream ss;
    ss << f.rdbuf();
    std::vector<std::pair<std::string, double>> values;
    try {
        const lab::JsonValue base = lab::JsonValue::parse(ss.str());
        const lab::JsonValue &mops = base.at("mops");
        for (const char *key : kGateKeys) {
            if (const lab::JsonValue *v = mops.find(key)) {
                values.emplace_back(key, v->asDouble());
            }
        }
    } catch (const lab::JsonError &e) {
        unusable(e.what());
    }
    if (values.empty()) {
        unusable("no gated throughput in \"mops\"");
    }
    for (const auto &[key, x] : values) {
        if (!(std::isfinite(x) && x > 0.0)) {
            unusable("mops." + key + " is " + fmt3(x) +
                     ", not a positive throughput");
        }
    }
    return values;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    core::parseFlagsOrExit(simspeedFlags(opt), argc, argv, 1);
    if (opt.golden) {
        printGolden();
        return 0;
    }
    const std::vector<std::pair<std::string, double>> baseline =
        opt.baseline.empty() ? std::vector<std::pair<std::string, double>>{}
                             : loadBaseline(opt.baseline);

    const uint64_t n_branches = opt.ops / 4;
    std::printf("bench_simspeed: %llu ops, %llu branches, best of %d reps\n",
                (unsigned long long)opt.ops,
                (unsigned long long)n_branches, opt.reps);

    trace::SynthConfig cfg;
    cfg.ops = opt.ops;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    std::vector<trace::BranchRecord> b = trace::synthBranches(n_branches);

    lab::JsonValue mops = lab::JsonValue::object();

    double probe_emit = bestMops(opt.reps, [&] {
        CountSink count;
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&count);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        count.flush();
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "probe_emit", probe_emit);
    mops.set("probe_emit", lab::JsonValue::numberToken(fmt3(probe_emit)));

    double cache = bestMops(opt.reps, [&] {
        uarch::CacheSink sink;
        for (size_t i = 0; i < t.size(); i += 4096) {
            sink.onOps(t.data() + i, std::min<size_t>(4096, t.size() - i));
        }
        sink.flush();
        return t.size();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "cache", cache);
    mops.set("cache", lab::JsonValue::numberToken(fmt3(cache)));

    double core = bestMops(opt.reps, [&] {
        uarch::StreamCore sim;
        for (size_t i = 0; i < t.size(); i += 4096) {
            sim.onOps(t.data() + i, std::min<size_t>(4096, t.size() - i));
        }
        sim.flush();
        return t.size();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "core", core);
    mops.set("core", lab::JsonValue::numberToken(fmt3(core)));

    double bpred_tput = bestMops(opt.reps, [&] {
        auto pred = bpred::makePredictor("tage-64KB");
        bpred::StreamRunner runner(*pred);
        for (const trace::BranchRecord &r : b) {
            runner.onBranch(r);
        }
        runner.flush();
        return b.size();
    });
    std::printf("  %-11s %8.2f Mbr/s\n", "bpred", bpred_tput);
    mops.set("bpred", lab::JsonValue::numberToken(fmt3(bpred_tput)));

    if (std::getenv("VEPRO_BREAKDOWN") != nullptr) {
        double e2e_core = bestMops(opt.reps, [&] {
            uarch::StreamCore sim;
            trace::Probe probe{trace::ProbeConfig::streaming(true)};
            probe.setSink(&sim);
            trace::synthProbeWorkload(probe, opt.ops);
            probe.flushToSink();
            sim.flush();
            return probe.recordedOps();
        });
        std::printf("  %-11s %8.2f Mops/s\n", "e2e_core", e2e_core);
        double e2e_cache = bestMops(opt.reps, [&] {
            uarch::CacheSink sink;
            trace::Probe probe{trace::ProbeConfig::streaming(true)};
            probe.setSink(&sink);
            trace::synthProbeWorkload(probe, opt.ops);
            probe.flushToSink();
            sink.flush();
            return probe.recordedOps();
        });
        std::printf("  %-11s %8.2f Mops/s\n", "e2e_cache", e2e_cache);
        double e2e_bpred = bestMops(opt.reps, [&] {
            auto pred = bpred::makePredictor("tage-64KB");
            bpred::StreamRunner runner(*pred);
            trace::Probe probe{trace::ProbeConfig::streaming(true)};
            probe.setSink(&runner);
            trace::synthProbeWorkload(probe, opt.ops);
            probe.flushToSink();
            runner.flush();
            return probe.recordedOps();
        });
        std::printf("  %-11s %8.2f Mops/s\n", "e2e_bpred", e2e_bpred);
    }

    double end_to_end = bestMops(opt.reps, [&] {
        uarch::StreamCore sim;
        uarch::CacheSink sink;
        auto pred = bpred::makePredictor("tage-64KB");
        bpred::StreamRunner runner(*pred);
        trace::MuxSink mux{&sim, &sink, &runner};
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&mux);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        mux.flush();
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "end_to_end", end_to_end);
    mops.set("end_to_end", lab::JsonValue::numberToken(fmt3(end_to_end)));

    // TraceFile capture/replay: the two halves of the lab trace cache.
    const std::filesystem::path trace_path =
        std::filesystem::temp_directory_path() / "bench_simspeed.vetf";
    double bytes_per_op = 0.0;
    double capture = bestMops(opt.reps, [&] {
        trace::FileSink file(trace_path.string());
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&file);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        file.flush();
        bytes_per_op = file.opCount() > 0
                           ? static_cast<double>(file.bytesWritten()) /
                                 static_cast<double>(file.opCount())
                           : 0.0;
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s  (%.2f bytes/op on disk)\n", "capture",
                capture, bytes_per_op);
    mops.set("capture", lab::JsonValue::numberToken(fmt3(capture)));

    double replay = bestMops(opt.reps, [&] {
        CountSink count;
        trace::FileSource source(trace_path.string());
        trace::TraceFileInfo info = source.replay(count);
        count.flush();
        return info.opCount;
    });
    std::printf("  %-11s %8.2f Mops/s\n", "replay", replay);
    mops.set("replay", lab::JsonValue::numberToken(fmt3(replay)));
    std::filesystem::remove(trace_path);

    lab::JsonValue doc = lab::JsonValue::object();
    doc.set("schema", lab::JsonValue::number(1));
    doc.set("mode", lab::JsonValue::str(opt.mode));
    doc.set("ops", lab::JsonValue::number(opt.ops));
    doc.set("branches", lab::JsonValue::number(n_branches));
    doc.set("mops", std::move(mops));
    {
        std::ofstream f(opt.out);
        f << doc.dump(2) << "\n";
    }
    std::printf("wrote %s\n", opt.out.c_str());

    if (opt.baseline.empty()) {
        return 0;
    }

    const lab::JsonValue &new_mops = doc.at("mops");
    bool regressed = false;
    std::printf("vs baseline %s (tolerance %.0f%%):\n", opt.baseline.c_str(),
                opt.tolerance * 100.0);
    for (const auto &[key, old_mops] : baseline) {
        double new_val = new_mops.at(key).asDouble();
        double ratio = new_val / old_mops;
        bool bad = ratio < 1.0 - opt.tolerance;
        std::printf("  %-11s %8.2f -> %8.2f  (%+5.1f%%)%s\n", key.c_str(),
                    old_mops, new_val, (ratio - 1.0) * 100.0,
                    bad ? "  REGRESSION" : "");
        regressed = regressed || bad;
    }
    if (regressed) {
        std::fprintf(stderr,
                     "bench_simspeed: throughput regressed more than %.0f%% "
                     "against %s\n",
                     opt.tolerance * 100.0, opt.baseline.c_str());
        return 2;
    }
    return 0;
}
