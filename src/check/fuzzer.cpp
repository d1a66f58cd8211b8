#include "check/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "bpred/runner.hpp"
#include "codec/kernels.hpp"
#include "codec/transform.hpp"
#include "core/experiment.hpp"
#include "core/rng.hpp"
#include "core/segment.hpp"
#include "lab/json.hpp"
#include "lab/store.hpp"
#include "ladder/ladder.hpp"
#include "serve/farm.hpp"
#include "trace/probe.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "uarch/cache.hpp"
#include "uarch/core.hpp"
#include "video/scale.hpp"

namespace fs = std::filesystem;

namespace vepro::check
{

using core::SplitMix64;
using trace::TraceOp;

const std::vector<Target> &
allTargets()
{
    static const std::vector<Target> kAll = {
        Target::Core,  Target::Cache,    Target::Bpred,  Target::Kernels,
        Target::Store, Target::Parallel, Target::Energy, Target::TraceFile,
        Target::Ladder, Target::Probe,    Target::Farm};
    return kAll;
}

const char *
targetName(Target target)
{
    switch (target) {
      case Target::Core: return "core";
      case Target::Cache: return "cache";
      case Target::Bpred: return "bpred";
      case Target::Kernels: return "kernels";
      case Target::Store: return "store";
      case Target::Parallel: return "parallel";
      case Target::Energy: return "energy";
      case Target::TraceFile: return "tracefile";
      case Target::Ladder: return "ladder";
      case Target::Probe: return "probe";
      case Target::Farm: return "farm";
    }
    return "?";
}

bool
parseTarget(const std::string &name, Target &out)
{
    for (Target t : allTargets()) {
        if (name == targetName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

std::string
Fuzzer::reproCommand(Target target, uint64_t seed, Fault inject, bool quick)
{
    std::ostringstream cmd;
    cmd << "vepro-check --target=" << targetName(target)
        << " --seed=" << seed;
    if (quick) {
        cmd << " --quick";
    }
    if (inject != Fault::None) {
        cmd << " --inject=" << faultName(inject);
    }
    return cmd.str();
}

bool
loadCorpusCase(const std::string &path, CorpusCase &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    bool have_target = false, have_seed = false;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        const size_t eq = line.find('=');
        if (eq == std::string::npos) {
            err = path + ": expected key=value, got '" + line + "'";
            return false;
        }
        const std::string key = line.substr(first, eq - first);
        const std::string value = line.substr(eq + 1);
        if (key == "target") {
            if (!parseTarget(value, out.target)) {
                err = path + ": unknown target '" + value + "'";
                return false;
            }
            have_target = true;
        } else if (key == "seed") {
            try {
                out.seed = core::parseU64Strict(value, "seed");
            } catch (const std::exception &) {
                err = path + ": bad seed '" + value + "'";
                return false;
            }
            have_seed = true;
        } else {
            err = path + ": unknown key '" + key + "'";
            return false;
        }
    }
    if (!have_target || !have_seed) {
        err = path + ": needs both target= and seed= lines";
        return false;
    }
    return true;
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".case") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

namespace
{

// ---------------------------------------------------------------------
// Shrinking: ddmin-lite. Repeatedly delete chunks (halving the chunk
// size when stuck) while the predicate keeps failing. Bounded by a
// predicate-evaluation budget so shrinking a slow reproduction cannot
// stall the harness.

template <typename T, typename Pred>
std::vector<T>
ddminShrink(std::vector<T> input, const Pred &still_fails, int max_evals)
{
    std::vector<T> cur = std::move(input);
    int evals = 0;
    size_t chunk = cur.size() / 2;
    while (chunk >= 1 && evals < max_evals) {
        bool removed = false;
        for (size_t start = 0; start + chunk <= cur.size() &&
                               evals < max_evals;) {
            std::vector<T> candidate;
            candidate.reserve(cur.size() - chunk);
            candidate.insert(candidate.end(), cur.begin(),
                             cur.begin() + static_cast<ptrdiff_t>(start));
            candidate.insert(candidate.end(),
                             cur.begin() +
                                 static_cast<ptrdiff_t>(start + chunk),
                             cur.end());
            ++evals;
            if (still_fails(candidate)) {
                cur = std::move(candidate);
                removed = true;
            } else {
                start += chunk;
            }
        }
        if (!removed) {
            if (chunk == 1) {
                break;
            }
        }
        chunk = std::max<size_t>(1, chunk / 2);
        if (chunk > cur.size()) {
            chunk = std::max<size_t>(1, cur.size() / 2);
        }
    }
    return cur;
}

// ---------------------------------------------------------------------
// Core target

uarch::CoreConfig
randomCoreConfig(SplitMix64 &rng)
{
    // 1-in-4 cases run a REGISTRY profile's exact geometry instead of a
    // random draw, so the differential keeps covering the machines the
    // fleet sweep actually buys (backend/profile.cpp) as the registry
    // grows.
    if (rng.chance(1, 4)) {
        const auto &names = backend::profileNames();
        const backend::MachineProfile &prof =
            backend::profile(names[rng.below(names.size())]);
        if (prof.kind == backend::Kind::Core) {
            return prof.core;
        }
    }
    uarch::CoreConfig cfg;
    cfg.width = static_cast<int>(rng.range(1, 6));
    cfg.robSize = std::max(
        cfg.width, static_cast<int>(rng.range(8, 224)));
    // The fast core's wakeup bitmask covers 256 RS entries.
    cfg.rsSize = static_cast<int>(rng.range(4, 256));
    cfg.loadBufSize = static_cast<int>(rng.range(2, 80));
    cfg.storeBufSize = static_cast<int>(rng.range(2, 48));
    cfg.aluPorts = static_cast<int>(rng.range(1, 4));
    cfg.simdPorts = static_cast<int>(rng.range(1, 3));
    cfg.mulPorts = static_cast<int>(rng.range(1, 2));
    cfg.loadPorts = static_cast<int>(rng.range(1, 3));
    cfg.storePorts = static_cast<int>(rng.range(1, 2));
    cfg.branchPorts = static_cast<int>(rng.range(1, 2));
    cfg.mispredictPenalty = static_cast<int>(rng.range(5, 20));
    cfg.takenBranchBubble = static_cast<int>(rng.range(0, 2));

    static const char *const kSpecs[] = {
        "tage-8KB",      "tage-64KB",     "gshare-32KB", "bimodal-4KB",
        "perceptron-8KB", "tournament-16KB"};
    cfg.predictorSpec = kSpecs[rng.below(6)];

    // 650 pushes load completions past the fast core's 512-entry
    // calendar ring, forcing the wrap/re-file path.
    static const int kMemLat[] = {60, 180, 650};
    cfg.mem.memoryLatency = kMemLat[rng.below(3)];
    cfg.mem.prefetch.enabled = rng.chance(1, 3);
    if (rng.chance(1, 2)) {
        // Shrink the hierarchy so the trace actually misses.
        cfg.mem.l1d.sizeBytes = size_t{4096} << rng.below(3);
        cfg.mem.l1d.ways = 1 << rng.below(4);
        cfg.mem.l2.sizeBytes = size_t{32 * 1024} << rng.below(3);
        cfg.mem.llc.sizeBytes = size_t{256 * 1024} << rng.below(3);
        cfg.mem.llc.ways = static_cast<int>(rng.range(2, 20));
    }
    return cfg;
}

/** Diff two stats counter by counter; empty string when identical. */
std::string
diffStats(const uarch::CoreStats &ref, const uarch::CoreStats &fast)
{
    std::ostringstream out;
    uarch::CoreStats::forEachField(
        [&](const char *name, uint64_t r, uint64_t f) {
            if (r != f) {
                out << (out.tellp() > 0 ? ", " : "") << name << " ref=" << r
                    << " fast=" << f;
            }
        },
        ref, fast);
    return out.str();
}

/**
 * Run the optimized core. Chunked delivery exercises the streaming
 * backlog path; chunk boundaries come from the seed, so batch and
 * streamed runs are both covered across cases.
 */
uarch::CoreStats
fastCoreRun(const uarch::CoreConfig &cfg, const std::vector<TraceOp> &trace,
            SplitMix64 &rng)
{
    if (rng.chance(1, 2)) {
        return uarch::Core(cfg).run(trace);
    }
    uarch::StreamCore sim(cfg);
    size_t pos = 0;
    while (pos < trace.size()) {
        size_t n = std::min<size_t>(trace.size() - pos,
                                    rng.range(1, 8192));
        sim.onOps(trace.data() + pos, n);
        pos += n;
    }
    sim.flush();
    return sim.stats();
}

// ---------------------------------------------------------------------
// Cache target

struct CacheEvent {
    enum Kind : uint8_t { DataLoad, DataStore, Instr, Remote };
    Kind kind = DataLoad;
    uint64_t addr = 0;
};

uarch::Hierarchy::Config
randomHierarchyConfig(SplitMix64 &rng)
{
    uarch::Hierarchy::Config cfg;
    // The fast cache indexes with shifts: lineBytes must be a power of
    // two. Non-power-of-two way counts and set counts are fair game and
    // exercise the sets-round-down normalisation.
    const int line = 32 << rng.below(3);
    auto level = [&](uarch::CacheConfig &c, uint64_t min_sets,
                     uint64_t max_sets, int max_ways) {
        c.lineBytes = line;
        c.ways = static_cast<int>(rng.range(1, static_cast<uint64_t>(max_ways)));
        uint64_t sets = rng.range(min_sets, max_sets);
        c.sizeBytes = static_cast<size_t>(sets) *
                      static_cast<size_t>(c.ways) *
                      static_cast<size_t>(line);
    };
    level(cfg.l1i, 1, 64, 8);
    level(cfg.l1d, 1, 64, 8);
    level(cfg.l2, 4, 512, 12);
    level(cfg.llc, 16, 4096, 20);
    cfg.l1d.hitLatency = static_cast<int>(rng.range(1, 5));
    cfg.l2.hitLatency = static_cast<int>(rng.range(6, 20));
    cfg.llc.hitLatency = static_cast<int>(rng.range(21, 60));
    cfg.memoryLatency = static_cast<int>(rng.range(61, 400));
    cfg.prefetch.enabled = rng.chance(1, 2);
    cfg.prefetch.streams = static_cast<int>(rng.range(1, 16));
    cfg.prefetch.degree = static_cast<int>(rng.range(1, 4));
    return cfg;
}

std::vector<CacheEvent>
randomCacheEvents(SplitMix64 &rng, uint64_t n)
{
    std::vector<CacheEvent> events;
    events.reserve(n);
    // A small pool of hot lines plus strided walkers; segments switch
    // between reuse, streaming, set-conflict, and random modes.
    std::vector<uint64_t> hot;
    for (int i = 0; i < 16; ++i) {
        hot.push_back(rng.next() & 0xffff'ffffull);
    }
    while (events.size() < n) {
        const uint64_t seg = rng.range(8, 256);
        const uint64_t mode = rng.below(4);
        uint64_t base = rng.next() & 0xffff'ffffull;
        const uint64_t stride =
            (mode == 2) ? 4096 : (uint64_t{16} << rng.below(8));
        for (uint64_t i = 0; i < seg && events.size() < n; ++i) {
            CacheEvent e;
            const uint64_t k = rng.below(16);
            e.kind = k < 7    ? CacheEvent::DataLoad
                     : k < 11 ? CacheEvent::DataStore
                     : k < 14 ? CacheEvent::Instr
                              : CacheEvent::Remote;
            switch (mode) {
              case 0:  // hot-set reuse
                e.addr = hot[rng.below(hot.size())] + rng.below(64);
                break;
              case 1:  // streaming / strided (trains the prefetcher)
              case 2:  // 4 KiB stride: classic set-conflict ladder
                e.addr = base;
                base += stride;
                break;
              default:  // scattered
                e.addr = rng.next() & 0x3f'ffff'ffffull;
                break;
            }
            events.push_back(e);
        }
    }
    return events;
}

/**
 * Replay @p events on both hierarchies; returns the index of the first
 * latency mismatch (or SIZE_MAX), with the mismatching latencies.
 */
size_t
replayCacheEvents(const std::vector<CacheEvent> &events,
                  uarch::Hierarchy &fast, RefHierarchy &ref, int &lat_ref,
                  int &lat_fast)
{
    for (size_t i = 0; i < events.size(); ++i) {
        const CacheEvent &e = events[i];
        int lr = 0, lf = 0;
        switch (e.kind) {
          case CacheEvent::DataLoad:
            lr = ref.dataAccess(e.addr, false);
            lf = fast.dataAccess(e.addr, false);
            break;
          case CacheEvent::DataStore:
            lr = ref.dataAccess(e.addr, true);
            lf = fast.dataAccess(e.addr, true);
            break;
          case CacheEvent::Instr:
            lr = ref.instrAccess(e.addr);
            lf = fast.instrAccess(e.addr);
            break;
          case CacheEvent::Remote:
            ref.remoteStore(e.addr);
            fast.remoteStore(e.addr);
            break;
        }
        if (lr != lf) {
            lat_ref = lr;
            lat_fast = lf;
            return i;
        }
    }
    return SIZE_MAX;
}

std::string
diffCacheCounters(const RefHierarchy &ref, const uarch::Hierarchy &fast)
{
    struct Row {
        const char *name;
        uint64_t ref_v, fast_v;
    };
    const Row rows[] = {
        {"l1i.accesses", ref.l1i().accesses(), fast.l1i().accesses()},
        {"l1i.misses", ref.l1i().misses(), fast.l1i().misses()},
        {"l1d.accesses", ref.l1d().accesses(), fast.l1d().accesses()},
        {"l1d.misses", ref.l1d().misses(), fast.l1d().misses()},
        {"l1d.invalidations", ref.l1d().invalidations(),
         fast.l1d().invalidations()},
        {"l2.accesses", ref.l2().accesses(), fast.l2().accesses()},
        {"l2.misses", ref.l2().misses(), fast.l2().misses()},
        {"l2.invalidations", ref.l2().invalidations(),
         fast.l2().invalidations()},
        {"llc.accesses", ref.llc().accesses(), fast.llc().accesses()},
        {"llc.misses", ref.llc().misses(), fast.llc().misses()},
    };
    std::ostringstream out;
    for (const Row &r : rows) {
        if (r.ref_v != r.fast_v) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            out << r.name << " ref=" << r.ref_v << " fast=" << r.fast_v;
        }
    }
    return out.str();
}

// ---------------------------------------------------------------------
// Store target helpers

uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

double
adversarialDouble(SplitMix64 &rng)
{
    switch (rng.below(10)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::denorm_min();
      case 3: return -std::numeric_limits<double>::denorm_min();
      case 4: return std::numeric_limits<double>::max();
      case 5: return std::numeric_limits<double>::min();
      case 6: return 1.0 / 3.0;
      case 7: return -1.7976931348623157e308;
      case 8: return std::nextafter(1.0, 2.0);
      default: {
        // Random finite bit pattern.
        for (;;) {
            uint64_t u = rng.next();
            double d;
            std::memcpy(&d, &u, sizeof d);
            if (std::isfinite(d)) {
                return d;
            }
        }
      }
    }
}

std::string
randomString(SplitMix64 &rng)
{
    static const char kChars[] =
        "abcXYZ019 _-./\\\"';=\t\n{}[]<>%$#@!\xc3\xa9";  // incl. UTF-8 é
    const uint64_t len = rng.below(25);  // 0 = empty string
    std::string s;
    for (uint64_t i = 0; i < len; ++i) {
        s += kChars[rng.below(sizeof kChars - 1)];
    }
    return s;
}

lab::JobSpec
randomJobSpec(SplitMix64 &rng)
{
    lab::JobSpec spec;
    spec.encoder = randomString(rng);
    spec.video = randomString(rng);
    spec.crf = static_cast<int>(rng.next());
    spec.preset = static_cast<int>(rng.next());
    spec.threads = static_cast<int>(rng.range(1, 64));
    spec.divisor = static_cast<int>(rng.range(1, 16));
    spec.frames = static_cast<int>(rng.range(1, 600));
    spec.maxTraceOps = rng.chance(1, 4) ? rng.next() : rng.below(1u << 24);
    return spec;
}

lab::JobResult
randomJobResult(SplitMix64 &rng)
{
    // Every double from the adversarial set; every counter at any
    // width up to 64 bits, with the exact maximum as an edge case.
    auto draw = [&](const char *, auto &v) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                     double>) {
            v = adversarialDouble(rng);
        } else {
            v = rng.chance(1, 8) ? std::numeric_limits<uint64_t>::max()
                                 : rng.next() >> rng.below(64);
        }
    };
    lab::JobResult r;
    lab::EncodeSummary::forEachField(draw, r.encode);
    r.jobSeconds = adversarialDouble(rng);
    uarch::CoreStats::forEachField(draw, r.core);
    return r;
}

/**
 * Field-wise comparison, doubles by bit pattern; empty = identical.
 * Fields are named by their record paths: the summary's at the top
 * level, the counters under "core.".
 */
std::string
diffJobResult(const lab::JobResult &want, const lab::JobResult &got)
{
    std::ostringstream out;
    auto chk = [&](const std::string &name, auto w, auto g) {
        if constexpr (std::is_same_v<decltype(w), double>) {
            if (bitsOf(w) == bitsOf(g)) {
                return;
            }
            char wb[32], gb[32];
            std::snprintf(wb, sizeof wb, "%.17g", w);
            std::snprintf(gb, sizeof gb, "%.17g", g);
            out << (out.tellp() > 0 ? ", " : "") << name << " want=" << wb
                << " (0x" << std::hex << bitsOf(w) << ") got=" << gb
                << " (0x" << bitsOf(g) << std::dec << ")";
        } else if (w != g) {
            out << (out.tellp() > 0 ? ", " : "") << name << " want=" << w
                << " got=" << g;
        }
    };
    lab::EncodeSummary::forEachField(chk, want.encode, got.encode);
    chk("jobSeconds", want.jobSeconds, got.jobSeconds);
    uarch::CoreStats::forEachField(
        [&](const char *name, uint64_t w, uint64_t g) {
            chk(std::string("core.") + name, w, g);
        },
        want.core, got.core);
    return out.str();
}

// ---------------------------------------------------------------------
// Parallel target helpers

/**
 * Deterministically interleaved op/branch/kernel stream: the same
 * @p chunk_seed produces the identical record sequence (including chunk
 * boundaries) on every call, so the sequential reference and the
 * parallel runs under test consume exactly the same stream. The
 * ParallelDrop fault withholds the final op, which the segments=1
 * comparison must flag as a stats mismatch.
 */
void
replayInterleaved(trace::TraceSink &sink, uint64_t chunk_seed,
                  const std::vector<TraceOp> &ops,
                  const std::vector<trace::BranchRecord> &branches,
                  bool drop_last_op)
{
    SplitMix64 rng(chunk_seed);
    const size_t op_end =
        ops.size() - (drop_last_op && !ops.empty() ? 1 : 0);
    size_t op_pos = 0, br_pos = 0;
    while (op_pos < op_end || br_pos < branches.size()) {
        const bool do_ops =
            op_pos < op_end &&
            (br_pos >= branches.size() || !rng.chance(1, 3));
        if (do_ops) {
            const size_t n = std::min<size_t>(op_end - op_pos,
                                              rng.range(1, 6000));
            sink.onOps(ops.data() + op_pos, n);
            op_pos += n;
        } else {
            const size_t n = std::min<size_t>(branches.size() - br_pos,
                                              rng.range(1, 512));
            for (size_t i = 0; i < n; ++i) {
                sink.onBranch(branches[br_pos + i]);
            }
            br_pos += n;
        }
        if (rng.chance(1, 16)) {
            sink.onKernel(0x4000 + rng.below(8) * 0x100);
        }
    }
    sink.flush();
}

/** Diff the live and replayed cache-sink views (instructions +
 *  hierarchy counters). */
std::string
diffCacheSinks(const uarch::CacheSink &live, const uarch::CacheSink &rep)
{
    struct Row {
        const char *name;
        uint64_t live_v, rep_v;
    };
    const uarch::Hierarchy &r = live.hierarchy();
    const uarch::Hierarchy &p = rep.hierarchy();
    const Row rows[] = {
        {"instructions", live.instructions(), rep.instructions()},
        {"l1i.accesses", r.l1i().accesses(), p.l1i().accesses()},
        {"l1i.misses", r.l1i().misses(), p.l1i().misses()},
        {"l1d.accesses", r.l1d().accesses(), p.l1d().accesses()},
        {"l1d.misses", r.l1d().misses(), p.l1d().misses()},
        {"l2.misses", r.l2().misses(), p.l2().misses()},
        {"llc.misses", r.llc().misses(), p.llc().misses()},
    };
    std::ostringstream out;
    for (const Row &row : rows) {
        if (row.live_v != row.rep_v) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            out << row.name << " live=" << row.live_v
                << " replay=" << row.rep_v;
        }
    }
    return out.str();
}

} // namespace

// ---------------------------------------------------------------------
// Per-target cases

bool
Fuzzer::runCoreCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::CoreConfig cfg = randomCoreConfig(rng);
    uint64_t max_ops = options_.quick ? rng.range(2'000, 12'000)
                                      : rng.range(2'000, 60'000);
    if (rng.chance(1, 8)) {
        max_ops = rng.below(81);  // tiny traces: boundary behaviour
    }
    const std::vector<TraceOp> trace = trace::synthFuzzTrace(rng.fork(),
                                                             max_ops);

    const uarch::CoreStats ref = refCoreRun(cfg, trace, options_.inject);
    const uarch::CoreStats fast = fastCoreRun(cfg, trace, rng);
    std::string diff = diffStats(ref, fast);
    if (diff.empty()) {
        return false;
    }

    out.target = Target::Core;
    out.seed = seed;
    out.repro = reproCommand(Target::Core, seed, options_.inject, options_.quick);
    out.shrunkOps = trace.size();
    if (options_.shrink && trace.size() <= 150'000) {
        const Fault inject = options_.inject;
        auto still_fails = [&cfg, inject](const std::vector<TraceOp> &t) {
            return !diffStats(refCoreRun(cfg, t, inject),
                              uarch::Core(cfg).run(t))
                        .empty();
        };
        // The shrunk predicate uses the batch fast path; re-check the
        // original input under it before trusting shrink results.
        if (still_fails(trace)) {
            const std::vector<TraceOp> small =
                ddminShrink(trace, still_fails, 200);
            out.shrunkOps = small.size();
            diff = diffStats(refCoreRun(cfg, small, inject),
                             uarch::Core(cfg).run(small));
        }
    }
    out.detail = "CoreStats mismatch (" + std::to_string(trace.size()) +
                 " ops, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + diff;
    return true;
}

bool
Fuzzer::runCacheCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::Hierarchy::Config cfg = randomHierarchyConfig(rng);
    const uint64_t n = options_.quick ? rng.range(5'000, 40'000)
                                      : rng.range(5'000, 120'000);
    const std::vector<CacheEvent> events = randomCacheEvents(rng, n);

    auto diverges = [&cfg, this](const std::vector<CacheEvent> &ev,
                                 std::string &detail) {
        uarch::Hierarchy fast(cfg);
        RefHierarchy ref(cfg, options_.inject);
        int lr = 0, lf = 0;
        const size_t idx = replayCacheEvents(ev, fast, ref, lr, lf);
        if (idx != SIZE_MAX) {
            std::ostringstream d;
            d << "latency mismatch at event " << idx << "/" << ev.size()
              << " (addr 0x" << std::hex << ev[idx].addr << std::dec
              << "): ref=" << lr << " fast=" << lf;
            detail = d.str();
            return true;
        }
        detail = diffCacheCounters(ref, fast);
        return !detail.empty();
    };

    std::string detail;
    if (!diverges(events, detail)) {
        return false;
    }
    out.target = Target::Cache;
    out.seed = seed;
    out.repro = reproCommand(Target::Cache, seed, options_.inject, options_.quick);
    out.shrunkOps = events.size();
    if (options_.shrink) {
        std::string scratch;
        auto still_fails = [&](const std::vector<CacheEvent> &ev) {
            return diverges(ev, scratch);
        };
        const std::vector<CacheEvent> small =
            ddminShrink(events, still_fails, 200);
        out.shrunkOps = small.size();
        diverges(small, detail);
    }
    out.detail = "cache divergence (" + std::to_string(events.size()) +
                 " events, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + detail;
    return true;
}

bool
Fuzzer::runBpredCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    static const size_t kBudgets[] = {8 * 1024, 64 * 1024, 192 * 1024};
    const size_t budget = kBudgets[rng.below(3)];
    const uint64_t n = options_.quick ? rng.range(5'000, 50'000)
                                      : rng.range(5'000, 200'000);
    const std::vector<trace::BranchRecord> branches =
        trace::synthFuzzBranches(rng.fork(), n);

    auto diverges = [&, this](const std::vector<trace::BranchRecord> &brs,
                              std::string &detail) {
        auto fast = bpred::makePredictor(
            "tage-" + std::to_string(budget / 1024) + "KB");
        RefTage ref(budget, options_.inject);
        for (size_t i = 0; i < brs.size(); ++i) {
            const bool pf = fast->predict(brs[i].pc);
            const bool pr = ref.predict(brs[i].pc);
            if (pf != pr) {
                std::ostringstream d;
                d << "prediction mismatch at branch " << i << "/"
                  << brs.size() << " (pc 0x" << std::hex << brs[i].pc
                  << std::dec << "): ref=" << pr << " fast=" << pf;
                detail = d.str();
                return true;
            }
            fast->update(brs[i].pc, brs[i].taken, pf);
            ref.update(brs[i].pc, brs[i].taken, pr);
        }
        return false;
    };

    std::string detail;
    if (!diverges(branches, detail)) {
        return false;
    }
    out.target = Target::Bpred;
    out.seed = seed;
    out.repro = reproCommand(Target::Bpred, seed, options_.inject, options_.quick);
    out.shrunkOps = branches.size();
    if (options_.shrink) {
        std::string scratch;
        auto still_fails = [&](const std::vector<trace::BranchRecord> &b) {
            return diverges(b, scratch);
        };
        const std::vector<trace::BranchRecord> small =
            ddminShrink(branches, still_fails, 200);
        out.shrunkOps = small.size();
        diverges(small, detail);
    }
    out.detail = "predictor divergence (" + std::to_string(branches.size()) +
                 " branches, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + detail;
    return true;
}

bool
Fuzzer::runKernelsCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const codec::KernelTable &scalar = codec::scalarKernels();
    const codec::KernelTable &fast = codec::kernels();
    std::ostringstream detail;

    auto fail = [&](const std::string &what) {
        out.target = Target::Kernels;
        out.seed = seed;
        out.repro = reproCommand(Target::Kernels, seed, options_.inject, options_.quick);
        out.detail = "kernel divergence vs scalar oracle (isa=" +
                     std::string(fast.isa) + "): " + what;
        return true;
    };

    // Pixel kernels over a randomized geometry.
    static const int kDims[] = {4, 5, 7, 8, 12, 16, 24, 31, 32, 48, 64};
    const int w = kDims[rng.below(11)];
    const int h = kDims[rng.below(11)];
    const int a_stride = w + static_cast<int>(rng.below(25));
    const int b_stride = w + static_cast<int>(rng.below(25));
    std::vector<uint8_t> a(static_cast<size_t>(a_stride) * h);
    std::vector<uint8_t> b(static_cast<size_t>(b_stride) * h);
    for (uint8_t &x : a) {
        x = static_cast<uint8_t>(rng.next());
    }
    for (uint8_t &x : b) {
        x = static_cast<uint8_t>(rng.next());
    }

    uint64_t sad_want = scalar.sad(a.data(), a_stride, b.data(), b_stride,
                                   w, h);
    if (options_.inject == Fault::KernelsSad && w * h >= 64) {
        ++sad_want;  // deliberately wrong oracle; harness must notice
    }
    const uint64_t sad_got = fast.sad(a.data(), a_stride, b.data(),
                                      b_stride, w, h);
    if (sad_want != sad_got) {
        return fail("sad(" + std::to_string(w) + "x" + std::to_string(h) +
                    ") oracle=" + std::to_string(sad_want) +
                    " fast=" + std::to_string(sad_got));
    }
    if (scalar.sse(a.data(), a_stride, b.data(), b_stride, w, h) !=
        fast.sse(a.data(), a_stride, b.data(), b_stride, w, h)) {
        return fail("sse(" + std::to_string(w) + "x" + std::to_string(h) +
                    ")");
    }
    if (w >= 4 && h >= 4 &&
        scalar.satd4(a.data(), a_stride, b.data(), b_stride) !=
            fast.satd4(a.data(), a_stride, b.data(), b_stride)) {
        return fail("satd4");
    }
    if (w >= 8 && h >= 8 &&
        scalar.satd8(a.data(), a_stride, b.data(), b_stride) !=
            fast.satd8(a.data(), a_stride, b.data(), b_stride)) {
        return fail("satd8");
    }

    const size_t wh = static_cast<size_t>(w) * h;
    std::vector<int16_t> res_s(wh), res_f(wh);
    scalar.residual(a.data(), a_stride, b.data(), b_stride, w, h,
                    res_s.data());
    fast.residual(a.data(), a_stride, b.data(), b_stride, w, h,
                  res_f.data());
    if (res_s != res_f) {
        return fail("residual");
    }
    std::vector<uint8_t> rec_s(a.size(), 0), rec_f(a.size(), 0);
    scalar.reconstruct(a.data(), a_stride, res_s.data(), w, h, rec_s.data(),
                       a_stride);
    fast.reconstruct(a.data(), a_stride, res_s.data(), w, h, rec_f.data(),
                     a_stride);
    if (rec_s != rec_f) {
        return fail("reconstruct");
    }

    // Transform + quantiser round at a randomized size / q-point.
    static const int kTx[] = {4, 8, 16, 32};
    const int n = kTx[rng.below(4)];
    const int32_t *basis = codec::dctBasis(n);
    const size_t count = static_cast<size_t>(n) * n;
    std::vector<int16_t> src(count);
    for (int16_t &x : src) {
        x = static_cast<int16_t>(rng.next());
    }
    std::vector<int32_t> tx_s(count), tx_f(count);
    scalar.fdct(src.data(), tx_s.data(), n, basis);
    fast.fdct(src.data(), tx_f.data(), n, basis);
    if (tx_s != tx_f) {
        return fail("fdct(n=" + std::to_string(n) + ")");
    }
    std::vector<int32_t> coeff(count);
    for (int32_t &x : coeff) {
        x = static_cast<int32_t>(rng.next() % (1u << 23)) - (1 << 22);
    }
    for (const std::vector<int32_t> *in : {&tx_s, &coeff}) {
        std::vector<int16_t> px_s(count), px_f(count);
        scalar.idct(in->data(), px_s.data(), n, basis);
        fast.idct(in->data(), px_f.data(), n, basis);
        if (px_s != px_f) {
            return fail("idct(n=" + std::to_string(n) + ")");
        }
    }
    const double t = static_cast<double>(rng.below(64)) / 63.0;
    const double step = 0.6 * std::pow(2.0, t * 8.1);
    std::vector<int32_t> lv_s(count), lv_f(count);
    const int nz_s = scalar.quant(coeff.data(), lv_s.data(),
                                  static_cast<int>(count), step * 0.4,
                                  1.0 / step);
    const int nz_f = fast.quant(coeff.data(), lv_f.data(),
                                static_cast<int>(count), step * 0.4,
                                1.0 / step);
    if (nz_s != nz_f || lv_s != lv_f) {
        return fail("quant(n=" + std::to_string(n) + ")");
    }
    std::vector<int32_t> dq_s(count), dq_f(count);
    scalar.dequant(lv_s.data(), dq_s.data(), static_cast<int>(count), step);
    fast.dequant(lv_s.data(), dq_f.data(), static_cast<int>(count), step);
    if (dq_s != dq_f) {
        return fail("dequant(n=" + std::to_string(n) + ")");
    }
    return false;
}

bool
Fuzzer::runStoreCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const fs::path base = options_.tempDir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options_.tempDir);
    char sub[64];
    std::snprintf(sub, sizeof sub, "vepro-check-store-%016llx",
                  static_cast<unsigned long long>(seed));
    const fs::path dir = base / sub;

    auto fail = [&](const std::string &what) {
        out.target = Target::Store;
        out.seed = seed;
        out.repro = reproCommand(Target::Store, seed, options_.inject, options_.quick);
        out.detail = "store round-trip: " + what;
        std::error_code ec;
        fs::remove_all(dir, ec);
        return true;
    };

    lab::ResultStore store(dir.string(), nullptr);
    const lab::JobSpec spec = randomJobSpec(rng);
    lab::JobResult result = randomJobResult(rng);

    if (rng.chance(1, 4)) {
        // Non-finite doubles must be rejected with JsonError before any
        // file is written — never persisted as "nan"/"inf" tokens.
        static const double kBad[] = {
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
        result.encode.psnrDb = kBad[rng.below(3)];
        bool threw = false;
        try {
            store.save(spec, result);
        } catch (const lab::JsonError &) {
            threw = true;
        }
        if (!threw) {
            return fail("save() accepted a non-finite double");
        }
        std::error_code ec;
        if (fs::exists(store.pathFor(spec), ec)) {
            return fail("non-finite save left a record behind");
        }
        if (store.load(spec)) {
            return fail("load() found a record after a failed save");
        }
        fs::remove_all(dir, ec);
        return false;
    }

    try {
        store.save(spec, result);
    } catch (const std::exception &e) {
        return fail(std::string("save() threw: ") + e.what());
    }
    const std::optional<lab::JobResult> loaded = store.load(spec);
    if (!loaded) {
        return fail("load() missed a just-saved record");
    }
    lab::JobResult want = result;
    if (options_.inject == Fault::StoreBit) {
        // Flip the low mantissa bit of one double on the expectation
        // side: the bit-exact comparison must flag it.
        uint64_t bits = bitsOf(want.encode.wallSeconds) ^ 1u;
        std::memcpy(&want.encode.wallSeconds, &bits, sizeof bits);
    }
    const std::string diff = diffJobResult(want, *loaded);
    if (!diff.empty()) {
        return fail(diff);
    }

    // A different spec must not alias onto this record.
    lab::JobSpec other = spec;
    other.crf = spec.crf ^ 1;
    if (store.load(other)) {
        return fail("load() of a different spec hit this record");
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
    return false;
}

/**
 * The parallel-simulation differential. One seeded case replays the
 * same interleaved op/branch/kernel stream into a sequential StreamCore
 * and into core::SegmentSim, whose segments run on core::parallelFor,
 * and asserts:
 *
 *  1. segments=1 is bit-identical to the sequential core;
 *  2. segment exactness — SegmentSim's stitched event counters
 *     (instructions, retiring slots, conditional branches, L1D
 *     accesses) are bit-equal to the sequential core at every segment
 *     count, worker count and warmup depth, because warmup counters
 *     are discarded;
 *  3. segment convergence — growing the warmup prefix does not move
 *     the timing counters away from the sequential answer beyond a
 *     small stitching bound (a leak of warmup cycles into the stats
 *     blows far past the bound).
 */
bool
Fuzzer::runParallelCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::CoreConfig cfg = randomCoreConfig(rng);
    const uint64_t max_ops = options_.quick ? rng.range(16'000, 40'000)
                                            : rng.range(16'000, 120'000);
    const uint64_t max_brs = options_.quick ? rng.range(1'000, 8'000)
                                            : rng.range(1'000, 24'000);
    const std::vector<TraceOp> ops = trace::synthFuzzTrace(rng.fork(),
                                                           max_ops);
    const std::vector<trace::BranchRecord> branches =
        trace::synthFuzzBranches(rng.fork(), max_brs);
    const uint64_t chunk_seed = rng.next();
    const bool drop = options_.inject == Fault::ParallelDrop;

    auto fail = [&](const std::string &what) {
        out.target = Target::Parallel;
        out.seed = seed;
        out.repro = reproCommand(Target::Parallel, seed, options_.inject,
                                 options_.quick);
        out.shrunkOps = 0;  // two interleaved streams: not ddmin-shaped
        out.detail = "parallel divergence (" + std::to_string(ops.size()) +
                     " ops, " + std::to_string(branches.size()) +
                     " branches): " + what;
        return true;
    };

    // Sequential reference: one StreamCore replay on this thread. The
    // injected ParallelDrop fault breaks only this side.
    uarch::StreamCore seq_core(cfg);
    replayInterleaved(seq_core, chunk_seed, ops, branches, drop);
    const uarch::CoreStats ref = seq_core.stats();

    // Shared replay into a SegmentSim at the given geometry.
    auto segmentStats = [&](int segments, int warmup,
                            int jobs) -> uarch::CoreStats {
        core::SegmentSimConfig scfg;
        scfg.core = cfg;
        scfg.segments = segments;
        scfg.warmupBlocks = warmup;
        scfg.jobs = jobs;
        core::SegmentSim sim(scfg);
        replayInterleaved(sim, chunk_seed, ops, branches, false);
        return sim.stats();
    };

    // 2. segments=1 must be bit-identical (every field).
    const std::string one_diff = diffStats(ref, segmentStats(1, 8, 1));
    if (!one_diff.empty()) {
        return fail("segments=1: " + one_diff);
    }

    // 3. Real segmenting: exact counters bit-equal at two warmup depths;
    //    timing error must not grow as the warmup prefix deepens.
    const int segments = static_cast<int>(rng.range(2, 5));
    const int jobs = static_cast<int>(rng.range(1, 3));
    const uarch::CoreStats cold = segmentStats(segments, 0, jobs);
    const uarch::CoreStats warm = segmentStats(segments, 16, jobs);
    for (const uarch::CoreStats *s : {&cold, &warm}) {
        std::ostringstream diff;
        auto exact = [&](const char *name, uint64_t want, uint64_t got) {
            if (want != got) {
                if (diff.tellp() > 0) {
                    diff << ", ";
                }
                diff << name << " seq=" << want << " seg=" << got;
            }
        };
        exact("instructions", ref.instructions, s->instructions);
        exact("slots.retiring", ref.slots.retiring, s->slots.retiring);
        exact("condBranches", ref.condBranches, s->condBranches);
        exact("l1dAccesses", ref.l1dAccesses, s->l1dAccesses);
        if (diff.tellp() > 0) {
            return fail("segment exact counters (segments=" +
                        std::to_string(segments) + ", warmup=" +
                        std::to_string(s == &warm ? 16 : 0) +
                        "): " + diff.str());
        }
    }
    auto err = [&](const uarch::CoreStats &s) {
        return s.cycles > ref.cycles ? s.cycles - ref.cycles
                                     : ref.cycles - s.cycles;
    };
    // Generous stitching slack: a warmup-counter leak adds whole
    // blocks' worth of cycles per segment and lands far outside it.
    const uint64_t slack =
        ref.cycles / 32 + 1024 * static_cast<uint64_t>(segments);
    if (err(warm) > err(cold) + slack) {
        return fail("segment warmup diverges: |cycles-ref| grew from " +
                    std::to_string(err(cold)) + " (warmup=0) to " +
                    std::to_string(err(warm)) + " (warmup=16), ref=" +
                    std::to_string(ref.cycles) + ", segments=" +
                    std::to_string(segments));
    }
    return false;
}

/**
 * The trace capture/replay differential. One seeded case streams the
 * same deterministically interleaved op/branch/kernel stream (a) live
 * into a MuxSink{StreamCore, CacheSink, StreamRunner} stack and (b)
 * through a FileSink capture to disk, then replays the file through
 * FileSource into an identical stack. Every counter — CoreStats fields,
 * hierarchy counters, and predictor branch/miss totals — must be
 * bit-identical, proving the codec (varint + delta + dictionary,
 * per-class address chains, positioned events) is lossless for
 * everything the simulators consume.
 *
 * A segment leg then replays the capture into a core::SegmentSim and
 * demands all of its counters from a SegmentSim fed the same records
 * live. Segment boundaries follow block cuts, so this holds only while
 * FileSink cuts blocks by the stager's rule: a capture that moves the
 * 4096-event cuts of a branch burst moves the segments.
 *
 * The injected tracefile-delta fault skews every decoded pc delta by
 * one; the drifting PCs must surface here as a stats mismatch.
 */
bool
Fuzzer::runTraceFileCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::CoreConfig cfg = randomCoreConfig(rng);
    const uint64_t max_ops = options_.quick ? rng.range(16'000, 40'000)
                                            : rng.range(16'000, 120'000);
    const uint64_t max_brs = options_.quick ? rng.range(1'000, 8'000)
                                            : rng.range(1'000, 24'000);
    const std::vector<TraceOp> ops = trace::synthFuzzTrace(rng.fork(),
                                                           max_ops);
    const std::vector<trace::BranchRecord> branches =
        trace::synthFuzzBranches(rng.fork(), max_brs);
    const uint64_t chunk_seed = rng.next();
    // The segment leg's geometry, drawn after every other draw so each
    // seed keeps the stream, capture and stack it had without the leg.
    core::SegmentSimConfig seg_cfg;
    seg_cfg.core = cfg;
    seg_cfg.segments = static_cast<int>(rng.range(2, 4));
    seg_cfg.warmupBlocks = static_cast<int>(rng.range(0, 8));
    seg_cfg.jobs = static_cast<int>(rng.range(1, 2));

    const fs::path base = options_.tempDir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options_.tempDir);
    char name[64];
    std::snprintf(name, sizeof name, "vepro-check-trace-%016llx.vetf",
                  static_cast<unsigned long long>(seed));
    const fs::path file = base / name;

    auto fail = [&](const std::string &what) {
        out.target = Target::TraceFile;
        out.seed = seed;
        out.repro = reproCommand(Target::TraceFile, seed, options_.inject,
                                 options_.quick);
        out.shrunkOps = 0;  // interleaved stream + a file: not ddmin-shaped
        out.detail = "tracefile divergence (" + std::to_string(ops.size()) +
                     " ops, " + std::to_string(branches.size()) +
                     " branches): " + what;
        std::error_code ec;
        fs::remove(file, ec);
        return true;
    };

    static const char *const kPredSpec = "tage-8KB";

    // Live reference: the fused stack fed record-at-a-time.
    uarch::StreamCore live_core(cfg);
    uarch::CacheSink live_cache(cfg.mem);
    auto live_pred = bpred::makePredictor(kPredSpec);
    bpred::StreamRunner live_runner(*live_pred);
    trace::MuxSink live_mux{&live_core, &live_cache, &live_runner};
    replayInterleaved(live_mux, chunk_seed, ops, branches, false);

    // Capture the identical stream to disk (flush() seals the file).
    try {
        trace::FileSink sink(file.string());
        replayInterleaved(sink, chunk_seed, ops, branches, false);
        if (sink.opCount() != ops.size()) {
            return fail("capture op count " +
                        std::to_string(sink.opCount()) + " != stream's " +
                        std::to_string(ops.size()));
        }
    } catch (const std::exception &e) {
        return fail(std::string("capture threw: ") + e.what());
    }

    // Replay into a fresh, identically configured stack.
    uarch::StreamCore rep_core(cfg);
    uarch::CacheSink rep_cache(cfg.mem);
    auto rep_pred = bpred::makePredictor(kPredSpec);
    bpred::StreamRunner rep_runner(*rep_pred);
    trace::MuxSink rep_mux{&rep_core, &rep_cache, &rep_runner};
    trace::FileSource source(file.string());
    if (options_.inject == Fault::TraceFileDelta) {
        source.injectDeltaFault(true);
    }
    try {
        const trace::TraceFileInfo info = source.replay(rep_mux);
        rep_mux.flush();
        if (info.opCount != ops.size()) {
            return fail("footer op count " + std::to_string(info.opCount) +
                        " != stream's " + std::to_string(ops.size()));
        }
    } catch (const std::exception &e) {
        return fail(std::string("replay threw: ") + e.what());
    }

    const std::string core_diff = diffStats(live_core.stats(),
                                            rep_core.stats());
    if (!core_diff.empty()) {
        return fail("replayed core: " + core_diff);
    }
    const std::string cache_diff = diffCacheSinks(live_cache, rep_cache);
    if (!cache_diff.empty()) {
        return fail("replayed cache: " + cache_diff);
    }
    const bpred::RunResult lr = live_runner.result();
    const bpred::RunResult rr = rep_runner.result();
    if (lr.branches != rr.branches || lr.misses != rr.misses) {
        return fail("replayed bpred: live " + std::to_string(lr.branches) +
                    " branches/" + std::to_string(lr.misses) +
                    " misses, replay " + std::to_string(rr.branches) + "/" +
                    std::to_string(rr.misses));
    }

    core::SegmentSim live_seg(seg_cfg);
    replayInterleaved(live_seg, chunk_seed, ops, branches, false);
    core::SegmentSim rep_seg(seg_cfg);
    try {
        source.replay(rep_seg);
        rep_seg.flush();
    } catch (const std::exception &e) {
        return fail(std::string("segment replay threw: ") + e.what());
    }
    const std::string seg_diff = diffStats(live_seg.stats(), rep_seg.stats());
    if (!seg_diff.empty()) {
        return fail("replayed segments (segments=" +
                    std::to_string(seg_cfg.segments) + ", warmup=" +
                    std::to_string(seg_cfg.warmupBlocks) + ", jobs=" +
                    std::to_string(seg_cfg.jobs) + "): " + seg_diff);
    }

    std::error_code ec;
    fs::remove(file, ec);
    return false;
}

// ---------------------------------------------------------------------
// Ladder target

bool
Fuzzer::runLadderCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);

    auto fail = [&](const std::string &what) {
        out.target = Target::Ladder;
        out.seed = seed;
        out.repro = reproCommand(Target::Ladder, seed, options_.inject,
                                 options_.quick);
        out.detail = "ladder divergence vs naive oracle: " + what;
        return true;
    };

    // Hull differential on an integer-grid RD point set. Small integer
    // coordinates keep every cross product exact in doubles, so the
    // monotone chain and the O(n^2) oracle must agree bit for bit. A
    // forced collinear triple per case keeps the harness sensitive to
    // the strict-cross fault; random extras add ties, duplicates and
    // dominated points around it.
    std::vector<video::RdPoint> pts;
    const double r0 = 1.0 + static_cast<double>(rng.below(20));
    const double q0 = 1.0 + static_cast<double>(rng.below(20));
    const double dr = 1.0 + static_cast<double>(rng.below(4));
    const double dq = 1.0 + static_cast<double>(rng.below(4));
    for (int t = 0; t < 3; ++t) {
        pts.push_back({r0 + t * dr, q0 + t * dq});
    }
    const size_t extras = 2 + rng.below(7);
    for (size_t i = 0; i < extras; ++i) {
        pts.push_back({1.0 + static_cast<double>(rng.below(40)),
                       1.0 + static_cast<double>(rng.below(40))});
    }
    if (rng.below(2) == 0) {
        pts.push_back(pts[rng.below(pts.size())]);  // exact duplicate
    }
    const std::vector<size_t> want =
        refConvexHull(pts, options_.inject);
    const std::vector<size_t> got = ladder::convexHull(pts);
    if (want != got) {
        auto render = [&](const std::vector<size_t> &hull) {
            std::string s = "{";
            for (size_t i : hull) {
                s += (s.size() > 1 ? "," : "") + std::to_string(i);
            }
            return s + "}";
        };
        return fail("convexHull over " + std::to_string(pts.size()) +
                    " points: oracle=" + render(want) +
                    " fast=" + render(got));
    }

    // Scaler differential: the kernel-table scaling path against naive
    // per-pixel references, bit for bit.
    static const int kPlaneDims[] = {1, 2, 3, 5, 8, 15, 16, 17, 31, 40, 64};
    const int w = kPlaneDims[rng.below(11)];
    const int h = kPlaneDims[rng.below(11)];
    const int factor = 1 + static_cast<int>(rng.below(4));
    video::Plane src(w, h);
    for (int y = 0; y < h; ++y) {
        uint8_t *row = src.row(y);
        for (int x = 0; x < w; ++x) {
            row[x] = static_cast<uint8_t>(rng.next());
        }
    }
    const video::Plane down_want = refDownscalePlane(src, factor);
    const video::Plane down_got = video::downscalePlane(src, factor);
    auto planesEqual = [](const video::Plane &a, const video::Plane &b,
                          std::string &where) {
        if (a.width() != b.width() || a.height() != b.height()) {
            where = "dims";
            return false;
        }
        for (int y = 0; y < a.height(); ++y) {
            for (int x = 0; x < a.width(); ++x) {
                if (a.at(x, y) != b.at(x, y)) {
                    where = "(" + std::to_string(x) + "," +
                            std::to_string(y) + ") oracle=" +
                            std::to_string(a.at(x, y)) + " fast=" +
                            std::to_string(b.at(x, y));
                    return false;
                }
            }
        }
        return true;
    };
    std::string where;
    if (!planesEqual(down_want, down_got, where)) {
        return fail("downscalePlane(" + std::to_string(w) + "x" +
                    std::to_string(h) + ", /" + std::to_string(factor) +
                    ") at " + where);
    }
    const int uw = 1 + static_cast<int>(rng.below(80));
    const int uh = 1 + static_cast<int>(rng.below(80));
    const video::Plane up_want = refUpscalePlane(down_want, uw, uh);
    const video::Plane up_got = video::upscalePlane(down_got, uw, uh);
    if (!planesEqual(up_want, up_got, where)) {
        return fail("upscalePlane(-> " + std::to_string(uw) + "x" +
                    std::to_string(uh) + ") at " + where);
    }
    return false;
}

// ---------------------------------------------------------------------
// Probe target

namespace
{

/** One emission call of a probe-target case. */
struct ProbeCall {
    enum Kind : uint8_t { Kernel, Ops, Mem, MemRun, Decision, Loop };
    Kind kind = Ops;
    trace::OpClass cls = trace::OpClass::Alu;
    uint64_t n = 0;      ///< Op count, run length, iterations or body length.
    uint64_t value = 0;  ///< Site PC or data address.
    int stride = 0;
    uint8_t dep1 = 0;    ///< For a Kernel call: calls left out of its body.
    uint8_t dep2 = 0;
    bool taken = false;
};

/**
 * A config whose sampling boundaries come every few dozen ops: op
 * tracing on or off, sampled, empty or streaming windows, a small or no
 * op cap, and branch recording with a warmup and a cap.
 */
trace::ProbeConfig
randomProbeConfig(SplitMix64 &rng)
{
    trace::ProbeConfig cfg;
    cfg.collectOps = !rng.chance(1, 6);
    cfg.opInterval = rng.range(1, 64);
    switch (rng.below(5)) {
      case 0: cfg.opWindow = cfg.opInterval + rng.below(3); break;
      case 1: cfg.opWindow = 0; break;
      default: cfg.opWindow = rng.range(1, cfg.opInterval); break;
    }
    cfg.maxOps = rng.chance(1, 3) ? std::numeric_limits<size_t>::max()
                                  : rng.below(400);
    cfg.collectBranches = rng.chance(1, 2);
    cfg.maxBranches = rng.chance(1, 2) ? std::numeric_limits<size_t>::max()
                                       : rng.below(200);
    cfg.branchWarmupOps = rng.chance(1, 2) ? 0 : rng.below(2000);
    return cfg;
}

/** Calls whose op counts run from 0 to several intervals, so they
 *  straddle window ends and interval wraps. */
std::vector<ProbeCall>
randomProbeCalls(SplitMix64 &rng, uint64_t interval, size_t count)
{
    std::vector<ProbeCall> calls(count);
    for (ProbeCall &c : calls) {
        c.kind = static_cast<ProbeCall::Kind>(rng.below(6));
        c.cls = static_cast<trace::OpClass>(rng.below(trace::kNumOpClasses));
        c.n = rng.chance(1, 3) ? rng.below(4 * interval + 2) : rng.below(4);
        c.value = 0x400000 + rng.below(16) * 1024 + rng.below(4) * 4;
        c.stride = static_cast<int>(rng.range(0, 64)) - 8;
        c.dep1 = static_cast<uint8_t>(rng.below(4));
        c.dep2 = static_cast<uint8_t>(rng.below(4));
        c.taken = rng.chance(1, 2);
        if (c.kind == ProbeCall::Kernel) {
            c.n = rng.below(40);  // body length; 0 clamps to 1
        }
    }
    return calls;
}

/** One of the five counting calls, on a probe or a kernel body's
 *  emitter (a QuietTally has no enterKernel). */
template <typename E>
void
applyBodyCall(E &e, const ProbeCall &c)
{
    switch (c.kind) {
      case ProbeCall::Kernel: break;
      case ProbeCall::Ops: e.ops(c.cls, c.n, c.dep1, c.dep2); break;
      case ProbeCall::Mem: e.mem(c.cls, c.value, c.dep1); break;
      case ProbeCall::MemRun:
        e.memRun(c.cls, c.value, static_cast<int>(c.n), c.stride, c.dep1);
        break;
      case ProbeCall::Decision: e.decision(c.value, c.taken); break;
      case ProbeCall::Loop: e.loopBranches(c.n); break;
    }
}

template <typename P>
void
applyProbeCall(P &p, const ProbeCall &c)
{
    if (c.kind == ProbeCall::Kernel) {
        p.enterKernel(c.value, static_cast<int>(c.n));
    } else {
        applyBodyCall(p, c);
    }
}

std::string
describeProbeCall(const ProbeCall &c)
{
    static const char *const kNames[] = {"enterKernel", "ops",      "mem",
                                         "memRun",      "decision", "loopBranches"};
    return std::string(kNames[c.kind]) + "(n=" + std::to_string(c.n) + ")";
}

/** Every counter the probe reports, as (name, value). */
template <typename P>
std::vector<std::pair<std::string, uint64_t>>
probeCounters(const P &p)
{
    std::vector<std::pair<std::string, uint64_t>> out = {
        {"totalOps", p.totalOps()},
        {"recordedOps", p.recordedOps()},
        {"droppedOps", p.droppedOps()},
        {"recordedBranches", p.recordedBranches()},
        {"droppedBranches", p.droppedBranches()},
        {"branchTraceOpSpan", p.branchTraceOpSpan()},
    };
    for (int i = 0; i < trace::kNumOpClasses; ++i) {
        out.emplace_back(std::string("mix.") +
                             std::string(trace::opClassName(
                                 static_cast<trace::OpClass>(i))),
                         p.mix().byClass[static_cast<size_t>(i)]);
    }
    return out;
}

/** Keeps every delivered block, events included. A probe delivers its
 *  whole stream through onBlock. */
class BlockLog final : public trace::TraceSink
{
  public:
    void onOp(const TraceOp &op) override { (void)op; }
    void
    onBlock(trace::TraceBlock &&block) override
    {
        blocks.push_back(std::move(block));
    }

    std::vector<trace::TraceBlock> blocks;
};

bool
sameOp(const TraceOp &a, const TraceOp &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.cls == b.cls &&
           a.taken == b.taken && a.dep1 == b.dep1 && a.dep2 == b.dep2 &&
           a.foreign == b.foreign;
}

/** First difference between two delivered block streams; empty = same. */
std::string
diffBlockStreams(const BlockLog &ref, const BlockLog &fast)
{
    if (ref.blocks.size() != fast.blocks.size()) {
        return "block count ref=" + std::to_string(ref.blocks.size()) +
               " fast=" + std::to_string(fast.blocks.size());
    }
    for (size_t b = 0; b < ref.blocks.size(); ++b) {
        const trace::TraceBlock &r = ref.blocks[b];
        const trace::TraceBlock &f = fast.blocks[b];
        const std::string at = "block " + std::to_string(b) + ": ";
        if (r.ops.size() != f.ops.size() ||
            r.events.size() != f.events.size()) {
            return at + "ops/events ref=" + std::to_string(r.ops.size()) +
                   "/" + std::to_string(r.events.size()) + " fast=" +
                   std::to_string(f.ops.size()) + "/" +
                   std::to_string(f.events.size());
        }
        for (size_t i = 0; i < r.ops.size(); ++i) {
            if (!sameOp(r.ops[i], f.ops[i])) {
                std::ostringstream d;
                d << at << "op " << i << " ref pc 0x" << std::hex
                  << r.ops[i].pc << " addr 0x" << r.ops[i].addr
                  << ", fast pc 0x" << f.ops[i].pc << " addr 0x"
                  << f.ops[i].addr;
                return d.str();
            }
        }
        for (size_t i = 0; i < r.events.size(); ++i) {
            const auto &re = r.events[i];
            const auto &fe = f.events[i];
            if (re.pos != fe.pos || re.kind != fe.kind ||
                re.taken != fe.taken || re.value != fe.value) {
                return at + "event " + std::to_string(i) + " differs (pos " +
                       std::to_string(re.pos) + " vs " +
                       std::to_string(fe.pos) + ")";
            }
        }
    }
    return {};
}

/**
 * Run @p calls through trace::Probe and RefProbe side by side: counters
 * after every step, then the delivered block streams. A step is one
 * call, or with @p kernels a kernel group: an enterKernel call and the
 * calls up to the next one. The fast probe runs a group through
 * trace::emitKernel, except for its last dep1 (0-3) calls, which follow
 * the kernel call by call as the range coder's calls do in an encode;
 * they see the PC state a committed kernel leaves. Returns the first
 * difference, or an empty string when the two agree throughout.
 */
std::string
diffProbePass(const trace::ProbeConfig &cfg,
              const std::vector<ProbeCall> &calls, Fault fault, bool kernels)
{
    BlockLog fast_log, ref_log;
    trace::Probe fast(cfg);
    fast.setSink(&fast_log);
    fast.injectQuietFault(fault == Fault::ProbeQuiet);
    fast.injectTallyFault(fault == Fault::ProbeTally);
    RefProbe ref(cfg, ref_log);
    for (size_t i = 0, end = 0; i < calls.size(); i = end) {
        end = i + 1;
        if (kernels && calls[i].kind == ProbeCall::Kernel) {
            while (end < calls.size() &&
                   calls[end].kind != ProbeCall::Kernel) {
                ++end;
            }
            const size_t body_end =
                end - std::min<size_t>(calls[i].dep1, end - i - 1);
            trace::emitKernel(fast, calls[i].value,
                              static_cast<int>(calls[i].n), [&](auto &e) {
                                  for (size_t k = i + 1; k < body_end; ++k) {
                                      applyBodyCall(e, calls[k]);
                                  }
                              });
            for (size_t k = body_end; k < end; ++k) {
                applyProbeCall(fast, calls[k]);
            }
        } else {
            applyProbeCall(fast, calls[i]);
        }
        for (size_t k = i; k < end; ++k) {
            applyProbeCall(ref, calls[k]);
        }
        const auto rc = probeCounters(ref);
        const auto fc = probeCounters(fast);
        for (size_t k = 0; k < rc.size(); ++k) {
            if (rc[k].second != fc[k].second) {
                const std::string step =
                    end - i == 1 ? "call " + std::to_string(i) + " " +
                                       describeProbeCall(calls[i])
                                 : "kernel of calls " + std::to_string(i) +
                                       "-" + std::to_string(end - 1);
                return "after " + step + " at op " +
                       std::to_string(ref.totalOps()) + ": " + rc[k].first +
                       " ref=" + std::to_string(rc[k].second) +
                       " fast=" + std::to_string(fc[k].second);
            }
        }
    }
    fast.flushToSink();
    ref.flushToSink();
    return diffBlockStreams(ref_log, fast_log);
}

/** The per-call pass, then the kernel pass (see diffProbePass). */
std::string
diffProbeRun(const trace::ProbeConfig &cfg,
             const std::vector<ProbeCall> &calls, Fault fault)
{
    std::string detail = diffProbePass(cfg, calls, fault, false);
    if (detail.empty()) {
        detail = diffProbePass(cfg, calls, fault, true);
        if (!detail.empty()) {
            detail = "kernel pass: " + detail;
        }
    }
    return detail;
}

std::string
describeProbeConfig(const trace::ProbeConfig &cfg)
{
    auto num = [](uint64_t v) {
        return v == std::numeric_limits<uint64_t>::max() ? std::string("inf")
                                                         : std::to_string(v);
    };
    return std::string("ops=") + (cfg.collectOps ? "on" : "off") +
           " window=" + num(cfg.opWindow) + " interval=" +
           num(cfg.opInterval) + " maxOps=" + num(cfg.maxOps) +
           " branches=" + (cfg.collectBranches ? "on" : "off") +
           " maxBranches=" + num(cfg.maxBranches) +
           " warmup=" + num(cfg.branchWarmupOps);
}

} // namespace

/**
 * The probe differential: trace::Probe's header-inline quiet-region
 * fast path and its kernel tally against RefProbe, the per-call
 * accounting they replaced. One seeded case draws a config with
 * sampling boundaries every few dozen ops and a call sequence
 * (ddmin-shrunk on failure) whose op counts run from 0 to several
 * intervals, and runs it call by call, then grouped into kernels. The
 * injected probe-quiet fault lets the region past the window run
 * through the interval wrap; the next window's records go missing and
 * the counters must diverge. The injected probe-tally fault commits
 * kernels past the branch warmup quietly, losing their branch records.
 */
bool
Fuzzer::runProbeCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const trace::ProbeConfig cfg = randomProbeConfig(rng);
    const size_t count = options_.quick ? rng.range(200, 2'000)
                                        : rng.range(200, 12'000);
    const std::vector<ProbeCall> calls =
        randomProbeCalls(rng, cfg.opInterval, count);
    const Fault fault = options_.inject;

    std::string detail = diffProbeRun(cfg, calls, fault);
    if (detail.empty()) {
        return false;
    }
    out.target = Target::Probe;
    out.seed = seed;
    out.repro = reproCommand(Target::Probe, seed, options_.inject,
                             options_.quick);
    out.shrunkOps = calls.size();
    if (options_.shrink) {
        auto still_fails = [&](const std::vector<ProbeCall> &c) {
            return !diffProbeRun(cfg, c, fault).empty();
        };
        const std::vector<ProbeCall> small =
            ddminShrink(calls, still_fails, 200);
        out.shrunkOps = small.size();
        detail = diffProbeRun(cfg, small, fault);
    }
    out.detail = "probe divergence (" + describeProbeConfig(cfg) + "; " +
                 std::to_string(calls.size()) + " calls, shrunk to " +
                 std::to_string(out.shrunkOps) + "): " + detail;
    return true;
}

// ---------------------------------------------------------------------
// Energy target

namespace
{

/** %a (hex-float) rendering: divergence reports must show the exact
 *  bits, not a rounded decimal that can print identically for two
 *  different doubles. */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

} // namespace

bool
Fuzzer::runEnergyCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const auto &names = backend::profileNames();
    const backend::MachineProfile &prof =
        backend::profile(names[rng.below(names.size())]);

    auto fail = [&](const std::string &what) {
        out.target = Target::Energy;
        out.seed = seed;
        out.repro = reproCommand(Target::Energy, seed, options_.inject,
                                 options_.quick);
        out.detail =
            "energy divergence (profile " + prof.name + "): " + what;
        return true;
    };

    if (prof.kind == backend::Kind::Fixed) {
        const uint64_t blocks = rng.range(1, 5'000'000);
        const double fast_s = backend::fixedServiceSeconds(prof, blocks);
        const double ref_s =
            refFixedServiceSeconds(prof, blocks, options_.inject);
        if (fast_s != ref_s) {
            return fail("service seconds ref=" + hexDouble(ref_s) +
                        " fast=" + hexDouble(fast_s) + " at blocks=" +
                        std::to_string(blocks));
        }
        const double fast_j = backend::fixedEnergyJoules(prof, blocks);
        const double ref_j =
            refFixedEnergyJoules(prof, blocks, options_.inject);
        if (fast_j != ref_j) {
            return fail("joules ref=" + hexDouble(ref_j) +
                        " fast=" + hexDouble(fast_j) + " at blocks=" +
                        std::to_string(blocks));
        }
        return false;
    }

    // Random-but-plausible counters. The hierarchy invariant l2Misses
    // >= llcMisses is drawn with a STRICT gap, so the injected
    // weight-swap fault always moves the dynamic term.
    uarch::CoreStats s;
    s.instructions = rng.range(1, 50'000'000);
    s.mispredicts = rng.range(0, 500'000);
    s.l1iMisses = rng.range(0, 1'000'000);
    s.l1dMisses = rng.range(0, 2'000'000);
    s.llcMisses = rng.range(0, 200'000);
    s.l2Misses = s.llcMisses + rng.range(1, 500'000);

    const double fast = backend::dynamicNanojoules(prof, s);
    const double ref = refDynamicNanojoules(prof, s, options_.inject);
    if (fast != ref) {
        return fail("dynamic nJ ref=" + hexDouble(ref) +
                    " fast=" + hexDouble(fast) + " at instructions=" +
                    std::to_string(s.instructions));
    }

    // Cheap properties the formula must keep regardless of weights:
    // more retired instructions can never cost less energy, and energy
    // is non-negative.
    if (fast < 0.0) {
        return fail("negative nJ " + hexDouble(fast));
    }
    uarch::CoreStats more = s;
    more.instructions += rng.range(1, 1'000'000);
    const double bigger = backend::dynamicNanojoules(prof, more);
    if (bigger <= fast) {
        return fail("energy not monotone in instructions: " +
                    hexDouble(fast) + " -> " + hexDouble(bigger));
    }
    return false;
}

// ---------------------------------------------------------------------
// Farm target

namespace
{

/** Fleet cost oracle over a drawn table: every (backend, clip, crf,
 *  preset) cell is set up front, and a missing cell throws
 *  std::out_of_range, as an unresolved serve::CostModel combo does. The
 *  base-class queries answer for the primary backend. */
class TableOracle final : public serve::FleetCostOracle
{
  public:
    TableOracle(std::string primary, std::vector<int> ladder)
        : primary_(std::move(primary)), ladder_(std::move(ladder))
    {
    }

    void
    set(const std::string &backend, const std::string &clip, int crf,
        int preset, double seconds, double joules)
    {
        cells_[{backend, clip, crf, preset}] = {seconds, joules};
    }

    double
    serviceSeconds(const std::string &clip, int crf,
                   int preset) const override
    {
        return at(primary_, clip, crf, preset).first;
    }

    const std::vector<int> &presetLadder() const override { return ladder_; }

    double
    serviceSecondsOn(const std::string &backend, const std::string &clip,
                     int crf, int preset) const override
    {
        return at(backend, clip, crf, preset).first;
    }

    double
    energyJoulesOn(const std::string &backend, const std::string &clip,
                   int crf, int preset) const override
    {
        return at(backend, clip, crf, preset).second;
    }

  private:
    using Key = std::tuple<std::string, std::string, int, int>;

    const std::pair<double, double> &
    at(const std::string &backend, const std::string &clip, int crf,
       int preset) const
    {
        const auto it = cells_.find({backend, clip, crf, preset});
        if (it == cells_.end()) {
            throw std::out_of_range("farm target: no cost cell");
        }
        return it->second;
    }

    std::string primary_;
    std::vector<int> ladder_;
    std::map<Key, std::pair<double, double>> cells_;
};

/** One drawn farm-target case: inputs of both simulateFarm signatures. */
struct FarmCase {
    std::vector<serve::UploadJob> arrivals;
    serve::FarmConfig config;
    RefFarmPolicy policy;
    std::vector<serve::ServerGroup> pool;
    std::unique_ptr<TableOracle> oracle;
};

/** k distinct values drawn from @p choices (k <= its size). */
template <typename T>
std::vector<T>
drawDistinct(SplitMix64 &rng, std::vector<T> choices, size_t k)
{
    std::vector<T> out;
    while (out.size() < k) {
        const size_t i = rng.below(choices.size());
        out.push_back(choices[i]);
        choices.erase(choices.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return out;
}

/**
 * Draw a case. Times, costs and the latency target sit on a quarter-
 * second grid, so exact ties are common: tie bursts of arrivals, equal
 * costs, costs equal to a job's slack, and servers in different groups
 * freeing at the same instant. One cell in five is off the grid, so
 * float rounding in the sums is exercised too.
 */
FarmCase
drawFarmCase(SplitMix64 &rng)
{
    FarmCase c;
    const std::vector<int> ladder = drawDistinct<int>(
        rng, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, rng.range(1, 5));
    std::vector<std::string> clips = drawDistinct<std::string>(
        rng, {"game1", "desktop", "vlog", "news"}, rng.range(1, 4));
    for (std::string &clip : clips) {
        if (rng.chance(1, 3)) {
            clip = serve::rungClipId(clip, rng.chance(1, 2) ? 2 : 4);
        }
    }
    const std::vector<int> crfs =
        drawDistinct<int>(rng, {10, 23, 32, 45, 60}, rng.range(1, 3));

    const auto grid = [&](uint64_t lo, uint64_t hi) {
        return 0.25 * static_cast<double>(rng.range(lo, hi));
    };
    c.config.servers = static_cast<int>(rng.range(1, 6));
    c.config.shards = static_cast<int>(rng.range(1, 5));
    c.config.admissionLimit = rng.chance(1, 2) ? 0 : rng.range(1, 8);
    c.config.latencyTargetSec = grid(1, 160);

    const std::vector<std::string> names = drawDistinct<std::string>(
        rng, {"", "iron-a", "iron-b", "iron-c"}, rng.range(1, 3));
    for (const std::string &name : names) {
        c.pool.push_back({name, static_cast<int>(rng.range(1, 6))});
    }

    // A small palette (the latency target among it) makes equal costs
    // and costs equal to a fresh job's slack common.
    std::vector<double> palette = {c.config.latencyTargetSec};
    for (int i = 0; i < 3; ++i) {
        palette.push_back(grid(1, 80));
    }
    c.oracle = std::make_unique<TableOracle>(names.front(), ladder);
    for (const std::string &name : names) {
        for (const std::string &clip : clips) {
            for (int crf : crfs) {
                for (int preset : ladder) {
                    double seconds = palette[rng.below(palette.size())];
                    if (rng.chance(1, 5)) {
                        seconds = static_cast<double>(rng.range(1, 8000)) /
                                  97.0;
                    } else if (rng.chance(1, 2)) {
                        seconds = grid(1, 80);
                    }
                    const double joules =
                        static_cast<double>(rng.range(1, 1'000'000)) / 3.0;
                    c.oracle->set(name, clip, crf, preset, seconds, joules);
                }
            }
        }
    }

    c.policy.adaptive = rng.chance(1, 2);
    c.policy.preset = ladder[rng.below(ladder.size())];

    // Arrival gaps scale from a flood to a trickle; a third are 0.
    const uint64_t max_gap = uint64_t{4} << (2 * rng.below(3));
    const size_t count = rng.range(0, 300);
    double t = grid(0, 8);
    for (size_t i = 0; i < count; ++i) {
        if (i > 0 && !rng.chance(1, 3)) {
            t += grid(1, max_gap);
        }
        serve::UploadJob job;
        job.id = i;
        job.arrivalSec = t;
        job.clip = clips[rng.below(clips.size())];
        job.crf = crfs[rng.below(crfs.size())];
        c.arrivals.push_back(std::move(job));
    }
    return c;
}

/** A farm result as text, doubles in %a so that equal text means equal
 *  bits: one line per outcome, then the SLA row, energy and horizon. */
std::vector<std::string>
farmLines(const serve::FarmResult &r)
{
    std::vector<std::string> lines;
    for (const serve::JobOutcome &o : r.outcomes) {
        lines.push_back(
            "job " + std::to_string(o.id) + (o.rejected ? " rejected" : "") +
            " arrival=" + hexDouble(o.arrivalSec) +
            " preset=" + std::to_string(o.preset) +
            " start=" + hexDouble(o.startSec) + " end=" + hexDouble(o.endSec) +
            (o.missedDeadline ? " missed" : "") + " backend='" + o.backend +
            "'");
    }
    const serve::SlaReport &s = r.sla;
    lines.push_back(
        s.policy + ": offered=" + std::to_string(s.offered) +
        " completed=" + std::to_string(s.completed) +
        " rejected=" + std::to_string(s.rejected) +
        " p50=" + hexDouble(s.p50QueueSec) + " p99=" + hexDouble(s.p99QueueSec) +
        " throughput=" + hexDouble(s.throughputPerMin) +
        " missRate=" + hexDouble(s.deadlineMissRate) +
        " misses=" + std::to_string(s.deadlineMisses) +
        " switches=" + std::to_string(s.presetSwitches) +
        " meanService=" + hexDouble(s.meanServiceSec));
    lines.push_back("energy=" + hexDouble(r.energyJoules) +
                    " horizon=" + hexDouble(r.horizonSec));
    return lines;
}

/** First line where two farm results differ, or "" when they agree bit
 *  for bit on every outcome, SLA field, energy and horizon. */
std::string
diffFarmResults(const serve::FarmResult &ref, const serve::FarmResult &fast)
{
    const std::vector<std::string> r = farmLines(ref);
    const std::vector<std::string> f = farmLines(fast);
    for (size_t i = 0; i < std::max(r.size(), f.size()); ++i) {
        const std::string want = i < r.size() ? r[i] : "(none)";
        const std::string got = i < f.size() ? f[i] : "(none)";
        if (want != got) {
            return "line " + std::to_string(i) + ": ref {" + want +
                   "} fast {" + got + "}";
        }
    }
    return {};
}

/** Both simulateFarm signatures against RefFarm on @p arrivals. */
std::string
diffFarmRun(const FarmCase &c, const std::vector<serve::UploadJob> &arrivals,
            Fault fault)
{
    const RefFarm ref(c.config, c.policy, fault);
    const serve::StaticPolicy fixed(c.policy.preset);
    const serve::AdaptivePolicy adaptive;
    const serve::Policy &policy =
        c.policy.adaptive ? static_cast<const serve::Policy &>(adaptive)
                          : fixed;
    std::string d = diffFarmResults(
        ref.run(arrivals, *c.oracle),
        serve::simulateFarm(arrivals, c.config, policy, *c.oracle));
    if (!d.empty()) {
        return "homogeneous farm: " + d;
    }
    d = diffFarmResults(ref.run(arrivals, *c.oracle, c.pool),
                        serve::simulateFarm(arrivals, c.config, policy,
                                            *c.oracle, c.pool));
    return d.empty() ? d : "pool farm: " + d;
}

std::string
describeFarmCase(const FarmCase &c)
{
    std::string pool;
    for (const serve::ServerGroup &g : c.pool) {
        pool += (pool.empty() ? "" : ",") +
                (g.backend.empty() ? std::string("default") : g.backend) +
                "x" + std::to_string(g.servers);
    }
    return std::string(c.policy.adaptive
                           ? "adaptive"
                           : "static-p" + std::to_string(c.policy.preset)) +
           ", " + std::to_string(c.oracle->presetLadder().size()) +
           " rungs, servers=" + std::to_string(c.config.servers) +
           " pool=" + pool + " admission=" +
           std::to_string(c.config.admissionLimit) +
           " target=" + hexDouble(c.config.latencyTargetSec);
}

} // namespace

/**
 * The farm differential: serve::simulateFarm's FIFO dispatch and
 * per-group cost tables, through both signatures, against RefFarm's
 * sharded EDF heaps and per-dispatch oracle queries. One seeded case
 * draws sorted arrivals with tie bursts, a ladder, clips (rung ids
 * included) and CRFs, a cost table full of exact ties, 1-3 server
 * groups and an admission limit; failing arrivals are ddmin-shrunk.
 * The injected farm-tie fault hands equal free-time ties to the later
 * group, which every multi-group pool exposes at its first dispatch.
 */
bool
Fuzzer::runFarmCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const FarmCase c = drawFarmCase(rng);
    const Fault fault = options_.inject;

    std::string detail = diffFarmRun(c, c.arrivals, fault);
    if (detail.empty()) {
        return false;
    }
    out.target = Target::Farm;
    out.seed = seed;
    out.repro = reproCommand(Target::Farm, seed, options_.inject,
                             options_.quick);
    out.shrunkOps = c.arrivals.size();
    if (options_.shrink) {
        auto still_fails = [&](const std::vector<serve::UploadJob> &a) {
            return !diffFarmRun(c, a, fault).empty();
        };
        const std::vector<serve::UploadJob> small =
            ddminShrink(c.arrivals, still_fails, 200);
        out.shrunkOps = small.size();
        detail = diffFarmRun(c, small, fault);
    }
    out.detail = "farm divergence (" + describeFarmCase(c) + "; " +
                 std::to_string(c.arrivals.size()) +
                 " arrivals, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + detail;
    return true;
}

// ---------------------------------------------------------------------
// Harness

bool
Fuzzer::runCase(Target target, uint64_t seed, Divergence &out)
{
    switch (target) {
      case Target::Core: return runCoreCase(seed, out);
      case Target::Cache: return runCacheCase(seed, out);
      case Target::Bpred: return runBpredCase(seed, out);
      case Target::Kernels: return runKernelsCase(seed, out);
      case Target::Store: return runStoreCase(seed, out);
      case Target::Parallel: return runParallelCase(seed, out);
      case Target::Energy: return runEnergyCase(seed, out);
      case Target::TraceFile: return runTraceFileCase(seed, out);
      case Target::Ladder: return runLadderCase(seed, out);
      case Target::Probe: return runProbeCase(seed, out);
      case Target::Farm: return runFarmCase(seed, out);
    }
    return false;
}

int
Fuzzer::itersFor(Target target) const
{
    if (options_.iters > 0) {
        return options_.iters;
    }
    switch (target) {
      case Target::Core: return options_.quick ? 12 : 60;
      case Target::Cache: return options_.quick ? 20 : 100;
      case Target::Bpred: return options_.quick ? 12 : 60;
      case Target::Kernels: return options_.quick ? 40 : 300;
      case Target::Store: return options_.quick ? 40 : 200;
      // Parallel cases run the trace through four simulator instances
      // (the sequential reference and three segment variants).
      case Target::Parallel: return options_.quick ? 6 : 30;
      // Pure arithmetic over the profile registry: cheap, so plenty.
      case Target::Energy: return options_.quick ? 50 : 400;
      // Each case runs two live stacks plus a disk round-trip.
      case Target::TraceFile: return options_.quick ? 6 : 30;
      // Hull arithmetic plus two small-plane scaler round trips: cheap.
      case Target::Ladder: return options_.quick ? 40 : 300;
      // Up to a few thousand probe calls per case (12k in full mode),
      // counters diffed per call: 2-10 ms a case.
      case Target::Probe: return options_.quick ? 200 : 1000;
      // Four farm runs over at most 300 arrivals: well under 1 ms a case.
      case Target::Farm: return options_.quick ? 200 : 1000;
    }
    return 1;
}

FuzzReport
Fuzzer::run(Target target)
{
    FuzzReport report;
    const int iters = itersFor(target);
    for (int i = 0; i < iters; ++i) {
        ++report.cases;
        Divergence d;
        if (runCase(target, options_.baseSeed + static_cast<uint64_t>(i),
                    d)) {
            report.divergences.push_back(std::move(d));
        }
    }
    return report;
}

FuzzReport
Fuzzer::runAll()
{
    FuzzReport report;
    for (Target t : allTargets()) {
        FuzzReport r = run(t);
        report.cases += r.cases;
        for (Divergence &d : r.divergences) {
            report.divergences.push_back(std::move(d));
        }
    }
    return report;
}

FuzzReport
Fuzzer::runCorpus(const std::string &dir)
{
    FuzzReport report;
    for (const std::string &path : listCorpus(dir)) {
        CorpusCase c;
        std::string err;
        if (!loadCorpusCase(path, c, err)) {
            Divergence d;
            d.seed = 0;
            d.detail = "corpus: " + err;
            d.repro = "(fix " + path + ")";
            report.divergences.push_back(std::move(d));
            continue;
        }
        ++report.cases;
        Divergence d;
        if (runCase(c.target, c.seed, d)) {
            d.detail = "[" + path + "] " + d.detail;
            report.divergences.push_back(std::move(d));
        }
    }
    return report;
}

} // namespace vepro::check
