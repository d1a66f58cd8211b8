/**
 * @file
 * Unit tests for the microarchitecture substrate: cache geometry and
 * replacement, hierarchy timing and coherence, and the out-of-order core
 * model's throughput, top-down accounting, and stall attribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "print_results.hpp"
#include "trace/probe.hpp"
#include "uarch/cache.hpp"
#include "uarch/core.hpp"

namespace vepro::uarch
{
namespace
{

using trace::OpClass;
using trace::TraceOp;

TEST(Cache, HitsAfterFill)
{
    Cache c({"L1", 1024, 2, 64, 4});
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103f, false)) << "same 64B line";
    EXPECT_FALSE(c.access(0x1040, false)) << "next line";
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 1 KiB, 2-way, 64B lines -> 8 sets. Three lines mapping to set 0.
    Cache c({"L1", 1024, 2, 64, 4});
    uint64_t a = 0x0000, b = 0x2000, d = 0x4000;  // all set 0
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);     // a most recent
    c.access(d, false);     // evicts b (LRU)
    EXPECT_TRUE(c.access(a, false));
    EXPECT_FALSE(c.access(b, false)) << "b was evicted";
}

TEST(Cache, InvalidationDropsLine)
{
    Cache c({"L1", 1024, 2, 64, 4});
    c.access(0x1000, true);
    c.invalidate(0x1000);
    EXPECT_EQ(c.invalidations(), 1u);
    EXPECT_FALSE(c.access(0x1000, false));
    c.invalidate(0x9999000);  // absent: no effect
    EXPECT_EQ(c.invalidations(), 1u);
}

TEST(Cache, MpkiMath)
{
    Cache c({"L1", 1024, 2, 64, 4});
    c.access(0x0, false);
    c.access(0x40, false);
    EXPECT_DOUBLE_EQ(c.mpki(1000), 2.0);
    EXPECT_DOUBLE_EQ(c.mpki(0), 0.0);
    c.resetStats();
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({"x", 0, 2, 64, 1}), std::invalid_argument);
    EXPECT_THROW(Cache({"x", 64, 4, 64, 1}), std::invalid_argument);
}

TEST(Hierarchy, LatenciesByLevel)
{
    Hierarchy mem;
    int first = mem.dataAccess(0x100000, false);
    EXPECT_EQ(first, 180) << "cold miss goes to memory";
    EXPECT_EQ(mem.dataAccess(0x100000, false), 4) << "L1 hit";
    // Evict from L1 by touching > 32 KiB of conflicting lines, then the
    // line should come back from L2.
    for (int i = 1; i <= 600; ++i) {
        mem.dataAccess(0x100000 + static_cast<uint64_t>(i) * 4096, false);
    }
    int lat = mem.dataAccess(0x100000, false);
    EXPECT_GT(lat, 4);
    EXPECT_LE(lat, 38);
}

TEST(Hierarchy, RemoteStoreInvalidatesPrivateLevels)
{
    Hierarchy mem;
    mem.dataAccess(0x5000, false);
    EXPECT_EQ(mem.dataAccess(0x5000, false), 4);
    mem.remoteStore(0x5000);
    int lat = mem.dataAccess(0x5000, false);
    EXPECT_EQ(lat, 38) << "line must come from the shared LLC after a "
                          "remote write";
}

TEST(Hierarchy, InstrSideCountsSeparately)
{
    Hierarchy mem;
    EXPECT_GT(mem.instrAccess(0x400000), 0);
    EXPECT_EQ(mem.instrAccess(0x400000), 0) << "L1I hit has no extra cost";
    EXPECT_EQ(mem.l1i().accesses(), 2u);
    EXPECT_EQ(mem.l1i().misses(), 1u);
}

/** Build a trace of n copies of the given op. */
std::vector<TraceOp>
repeat(TraceOp op, int n)
{
    return std::vector<TraceOp>(static_cast<size_t>(n), op);
}

TEST(Core, EmptyTraceIsZero)
{
    Core core;
    CoreStats s = core.run({});
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.instructions, 0u);
}

TEST(Core, IndependentAluStreamNearsPortWidth)
{
    // 3 ALU ports, width 4: independent scalar ALU ops should sustain
    // close to 3 IPC.
    TraceOp op{0x400000, 0, OpClass::Alu, false, 0, 0, false};
    Core core;
    CoreStats s = core.run(repeat(op, 30000));
    EXPECT_GT(s.ipc(), 2.5);
    EXPECT_LE(s.ipc(), 3.05);
}

TEST(Core, SerialChainLimitsIpcToOne)
{
    TraceOp op{0x400000, 0, OpClass::Alu, false, 1, 0, false};
    Core core;
    CoreStats s = core.run(repeat(op, 20000));
    EXPECT_LT(s.ipc(), 1.1);
    EXPECT_GT(s.ipc(), 0.8);
}

TEST(Core, TopdownSlotsAccountEveryCycle)
{
    TraceOp op{0x400000, 0, OpClass::Alu, false, 1, 0, false};
    Core core;
    CoreStats s = core.run(repeat(op, 10000));
    EXPECT_EQ(s.slots.total(), s.cycles * 4);
    EXPECT_EQ(s.slots.backend,
              s.slots.backendMemory + s.slots.backendCore);
    EXPECT_EQ(s.slots.retiring, 10000u);
}

TEST(Core, CacheMissStreamIsMemoryBound)
{
    // Strided loads, each touching a new line across > LLC capacity, with
    // a dependent consumer: dominated by memory stalls.
    std::vector<TraceOp> trace;
    for (int i = 0; i < 20000; ++i) {
        trace.push_back({0x400000, 0x10000000ULL + static_cast<uint64_t>(i) * 4096,
                         OpClass::Load, false, 0, 0, false});
        trace.push_back({0x400004, 0, OpClass::Alu, false, 1, 0, false});
        trace.push_back({0x400008, 0, OpClass::Alu, false, 1, 0, false});
    }
    Core core;
    CoreStats s = core.run(trace);
    EXPECT_LT(s.ipc(), 1.0);
    EXPECT_GT(s.slots.fraction(s.slots.backend), 0.4);
    EXPECT_GT(s.slots.backendMemory, s.slots.backendCore);
    EXPECT_GT(s.l1dMpki(), 200.0);
}

TEST(Core, PredictableBranchesBarelyMiss)
{
    std::vector<TraceOp> trace;
    for (int i = 0; i < 20000; ++i) {
        trace.push_back({0x400000, 0, OpClass::Alu, false, 0, 0, false});
        trace.push_back({0x400010, 0, OpClass::BranchCond, true, 0, 0, false});
    }
    Core core;
    CoreStats s = core.run(trace);
    EXPECT_EQ(s.condBranches, 20000u);
    EXPECT_LT(s.branchMissRatePercent(), 0.5);
}

TEST(Core, RandomBranchesCauseBadSpeculation)
{
    std::vector<TraceOp> trace;
    uint64_t lfsr = 0xace1;
    for (int i = 0; i < 20000; ++i) {
        lfsr = (lfsr >> 1) ^ ((-(lfsr & 1)) & 0xb400);
        trace.push_back({0x400000, 0, OpClass::Alu, false, 0, 0, false});
        trace.push_back({0x400010, 0, OpClass::BranchCond,
                         (lfsr & 1) != 0, 0, 0, false});
    }
    Core core;
    CoreStats s = core.run(trace);
    EXPECT_GT(s.branchMissRatePercent(), 20.0);
    EXPECT_GT(s.slots.fraction(s.slots.badSpec), 0.3);
    EXPECT_LT(s.ipc(), 1.5);
}

TEST(Core, StoreBurstFillsStoreBuffer)
{
    TraceOp st{0x400000, 0x20000000, OpClass::Store, false, 0, 0, false};
    Core core;
    CoreStats s = core.run(repeat(st, 20000));
    EXPECT_GT(s.stalls.storeBuf, 100u)
        << "one store port / 42-entry SB cannot absorb 1 store per slot";
}

TEST(Core, ForeignOpsInvalidateButDoNotExecute)
{
    std::vector<TraceOp> trace;
    // Warm a line, then a foreign write to it, then re-load it.
    TraceOp warm{0x400000, 0x30000000, OpClass::Load, false, 0, 0, false};
    TraceOp foreign{0x400100, 0x30000000, OpClass::Store, false, 0, 0, true};
    for (int i = 0; i < 1000; ++i) {
        trace.push_back(warm);
        trace.push_back(foreign);
    }
    Core core;
    CoreStats s = core.run(trace);
    EXPECT_EQ(s.instructions, 1000u) << "foreign ops are not instructions";
    EXPECT_GT(s.invalidations, 300u);
    EXPECT_GT(s.l1dMisses, 300u)
        << "reloads mostly miss after invalidations (out-of-order issue "
           "lets a few slip past)";
}

TEST(Core, InstructionFootprintDrivesL1i)
{
    // Loop over 512 KiB of code: far beyond the 32 KiB L1I.
    std::vector<TraceOp> trace;
    for (int rep = 0; rep < 4; ++rep) {
        for (int i = 0; i < 8192; ++i) {
            trace.push_back({0x400000 + static_cast<uint64_t>(i) * 64, 0,
                             OpClass::Alu, false, 0, 0, false});
        }
    }
    Core core;
    CoreStats s = core.run(trace);
    EXPECT_GT(s.l1iMpki(), 100.0);
    EXPECT_GT(s.slots.fraction(s.slots.frontend), 0.2);
}

TEST(Core, RejectsBadGeometry)
{
    CoreConfig cfg;
    cfg.width = 0;
    EXPECT_THROW(Core{cfg}, std::invalid_argument);
}

TEST(CoreStats, DerivedMetricMath)
{
    CoreStats s;
    s.cycles = 1000;
    s.instructions = 2000;
    s.condBranches = 100;
    s.mispredicts = 5;
    s.l1dMisses = 20;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(s.branchMissRatePercent(), 5.0);
    EXPECT_DOUBLE_EQ(s.branchMpki(), 2.5);
    EXPECT_DOUBLE_EQ(s.l1dMpki(), 10.0);
}

TEST(Cache, FillInsertsWithoutCountingDemand)
{
    Cache c({"L2", 1024, 2, 64, 12});
    c.fill(0x4000);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.access(0x4000, false)) << "prefetched line must hit";
}

TEST(Prefetcher, StridedStreamFillsL2)
{
    Hierarchy::Config cfg;
    cfg.prefetch.enabled = true;
    Hierarchy with(cfg);
    Hierarchy without;
    // A steady 64B-stride stream inside 4 KiB regions.
    uint64_t l2_miss_with = 0, l2_miss_without = 0;
    for (int i = 0; i < 4000; ++i) {
        uint64_t addr = 0x10000000ULL + static_cast<uint64_t>(i) * 64;
        with.dataAccess(addr, false);
        without.dataAccess(addr, false);
    }
    l2_miss_with = with.l2().misses();
    l2_miss_without = without.l2().misses();
    EXPECT_GT(with.prefetchesIssued(), 1000u);
    EXPECT_LT(l2_miss_with * 2, l2_miss_without)
        << "the stride prefetcher must absorb most stream misses in L2";
}

TEST(Prefetcher, RandomTrafficIsNotPolluted)
{
    Hierarchy::Config cfg;
    cfg.prefetch.enabled = true;
    Hierarchy mem(cfg);
    uint64_t lfsr = 0x1234;
    for (int i = 0; i < 3000; ++i) {
        lfsr = lfsr * 6364136223846793005ULL + 1442695040888963407ULL;
        mem.dataAccess(0x20000000ULL + (lfsr % (64 * 1024 * 1024)), false);
    }
    // Random traffic confirms no strides: nearly no prefetches issue.
    EXPECT_LT(mem.prefetchesIssued(), 300u);
}

TEST(Core, MemoryLevelParallelismHelpsIndependentLoads)
{
    // Independent strided loads overlap their miss latencies; making each
    // load depend on the previous one serialises them.
    std::vector<TraceOp> parallel, serial;
    for (int i = 0; i < 8000; ++i) {
        uint64_t addr = 0x40000000ULL + static_cast<uint64_t>(i) * 4096;
        parallel.push_back({0x400000, addr, OpClass::Load, false, 0, 0,
                            false});
        serial.push_back({0x400000, addr, OpClass::Load, false, 1, 0,
                          false});
    }
    uarch::Core a, b;
    double ipc_par = a.run(parallel).ipc();
    double ipc_ser = b.run(serial).ipc();
    EXPECT_GT(ipc_par, ipc_ser * 3)
        << "an out-of-order core must overlap independent misses";
}

TEST(Core, HigherMispredictPenaltyCostsMoreBadSpec)
{
    std::vector<TraceOp> trace;
    uint64_t lfsr = 0xbeef;
    for (int i = 0; i < 20000; ++i) {
        lfsr = (lfsr >> 1) ^ ((-(lfsr & 1)) & 0xb400);
        trace.push_back({0x400000, 0, OpClass::Alu, false, 0, 0, false});
        trace.push_back({0x400010, 0, OpClass::BranchCond, (lfsr & 1) != 0,
                         0, 0, false});
    }
    CoreConfig cheap;
    cheap.mispredictPenalty = 5;
    CoreConfig costly;
    costly.mispredictPenalty = 30;
    Core a(cheap), b(costly);
    auto sa = a.run(trace);
    auto sb = b.run(trace);
    EXPECT_GT(sb.slots.fraction(sb.slots.badSpec),
              sa.slots.fraction(sa.slots.badSpec) + 0.1);
    EXPECT_LT(sb.ipc(), sa.ipc());
}

TEST(Core, BetterFrontEndPredictorRaisesIpc)
{
    // A long loop pattern: bimodal mispredicts every exit; TAGE learns it.
    std::vector<TraceOp> trace;
    for (int i = 0; i < 60000; ++i) {
        trace.push_back({0x400000, 0, OpClass::Alu, false, 0, 0, false});
        trace.push_back({0x400010, 0, OpClass::BranchCond,
                         (i % 7) != 6, 0, 0, false});
    }
    CoreConfig weak;
    weak.predictorSpec = "bimodal-4KB";
    CoreConfig strong;
    strong.predictorSpec = "tage-64KB";
    Core a(weak), b(strong);
    auto sa = a.run(trace);
    auto sb = b.run(trace);
    EXPECT_GT(sa.branchMissRatePercent(), sb.branchMissRatePercent() + 3.0);
    EXPECT_GT(sb.ipc(), sa.ipc());
}

TEST(Core, LoadBufferFillsUnderMissFlood)
{
    CoreConfig cfg;
    cfg.loadBufSize = 8;
    std::vector<TraceOp> trace;
    for (int i = 0; i < 20000; ++i) {
        trace.push_back({0x400000, 0x50000000ULL + static_cast<uint64_t>(i) * 4096,
                         OpClass::Load, false, 0, 0, false});
    }
    Core core(cfg);
    auto s = core.run(trace);
    EXPECT_GT(s.stalls.loadBuf, 1000u);
}

TEST(Core, SimdThroughputBoundByPorts)
{
    TraceOp op{0x400000, 0, OpClass::SimdAlu, false, 0, 0, false};
    Core core;
    CoreStats s = core.run(repeat(op, 30000));
    EXPECT_LE(s.ipc(), 2.05) << "two SIMD ports";
    EXPECT_GT(s.ipc(), 1.7);
}

TEST(Core, LongLatencySimdMulChainsStallRs)
{
    TraceOp op{0x400000, 0, OpClass::SimdMul, false, 1, 0, false};
    Core core;
    CoreStats s = core.run(repeat(op, 10000));
    EXPECT_LT(s.ipc(), 0.35) << "5-cycle serial multiply chain";
    EXPECT_GT(s.stalls.rs + s.stalls.rob, 1000u);
    EXPECT_GT(s.slots.backendCore, s.slots.backendMemory);
}

// ---- The counter list -----------------------------------------------

/** Writing counter i as i + 1 through the visitor and reading the
 *  struct back through it yields 20 distinct values under 20 distinct
 *  names: no counter is listed twice, none is skipped. */
TEST(CoreStatsFields, VisitorReachesEveryCounterOnce)
{
    CoreStats s;
    uint64_t next = 0;
    CoreStats::forEachField([&](const char *, uint64_t &v) { v = ++next; },
                            s);
    ASSERT_EQ(next, 20u);

    std::vector<uint64_t> values;
    std::vector<std::string> names;
    CoreStats::forEachField(
        [&](const char *name, uint64_t v) {
            values.push_back(v);
            names.emplace_back(name);
        },
        s);
    for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i], i + 1) << names[i];
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(CoreStatsFields, PlusEqualsAndEqualityCoverEveryCounter)
{
    CoreStats a;
    uint64_t next = 0;
    CoreStats::forEachField([&](const char *, uint64_t &v) { v = ++next; },
                            a);
    CoreStats sum = a;
    sum += a;
    uint64_t i = 0;
    CoreStats::forEachField(
        [&](const char *name, uint64_t v) { EXPECT_EQ(v, 2 * ++i) << name; },
        sum);

    // Each counter on its own breaks equality.
    for (uint64_t k = 1; k <= 20; ++k) {
        CoreStats b = a;
        CoreStats::forEachField(
            [&](const char *, uint64_t &v) { v += v == k; }, b);
        EXPECT_NE(a, b) << "counter " << k;
    }
    EXPECT_EQ(a, CoreStats(a));
}

// ---- Streaming core (TraceSink) ------------------------------------

/** A mixed workload trace: dependent ALU work, strided and random
 *  loads, stores, biased + noisy branches, and foreign invalidations —
 *  long enough to wrap the streaming backlog several times. */
std::vector<TraceOp>
mixedTrace(int n)
{
    std::vector<TraceOp> t;
    t.reserve(static_cast<size_t>(n));
    // core::XorShift64 is bit-compatible with the inline xorshift this
    // replaced; the golden stats below depend on the exact stream.
    vepro::core::XorShift64 rng(0x9e3779b97f4a7c15ull);
    for (int i = 0; i < n; ++i) {
        const uint64_t r = rng.next();
        uint64_t pc = 0x400000 + (static_cast<uint64_t>(i) % 300) * 4;
        switch (i % 11) {
          case 0:
            t.push_back({pc, 0x100000 + (r % 4096) * 64, OpClass::Load,
                         false, 0, 0, false});
            break;
          case 1:
            t.push_back({pc, 0x800000 + (static_cast<uint64_t>(i) % 512) * 8,
                         OpClass::Store, false, 1, 0, false});
            break;
          case 2:
            t.push_back({pc, 0, OpClass::BranchCond, r % 16 != 0, 1, 0,
                         false});
            break;
          case 3:
            t.push_back({pc, 0, OpClass::SimdMul, false, 2, 3, false});
            break;
          case 4:
            // Occasional foreign store: coherence traffic from another
            // core, interleaved mid-stream.
            if (r % 5 == 0) {
                t.push_back({0, 0x100000 + (r % 4096) * 64, OpClass::Store,
                             false, 0, 0, true});
            } else {
                t.push_back({pc, 0, OpClass::Alu, false, 1, 2, false});
            }
            break;
          case 5:
            t.push_back({pc, 0, OpClass::BranchUncond, true, 0, 0, false});
            break;
          case 6:
            t.push_back({pc, 0, OpClass::Div, false, 1, 0, false});
            break;
          default:
            t.push_back({pc, 0, OpClass::SimdAlu, false, 1, 4, false});
            break;
        }
    }
    return t;
}

/** Streaming must be invariant to delivery granularity: one op at a
 *  time, odd-sized batches, and one whole-trace batch (what Core::run
 *  does) all produce bit-identical statistics. */
TEST(StreamCore, DeliveryGranularityInvariant)
{
    std::vector<TraceOp> trace = mixedTrace(100000);

    Core batch;
    CoreStats expected = batch.run(trace);

    StreamCore per_op;
    for (const TraceOp &op : trace) {
        per_op.onOp(op);
    }
    per_op.flush();
    EXPECT_EQ(expected, per_op.stats());

    StreamCore chunked;
    size_t pos = 0;
    size_t chunk = 1;
    while (pos < trace.size()) {
        size_t n = std::min(chunk, trace.size() - pos);
        chunked.onOps(trace.data() + pos, n);
        pos += n;
        chunk = chunk % 977 + 13;  // odd, varying batch sizes
    }
    chunked.flush();
    EXPECT_EQ(expected, chunked.stats());
}

TEST(StreamCore, MatchesBatchOnEdgeTraces)
{
    // Trailing foreign ops and an all-foreign prefix.
    std::vector<TraceOp> trace;
    for (int i = 0; i < 40; ++i) {
        trace.push_back({0, 0x200000 + static_cast<uint64_t>(i) * 64,
                         OpClass::Store, false, 0, 0, true});
    }
    for (const TraceOp &op : mixedTrace(5000)) {
        trace.push_back(op);
    }
    for (int i = 0; i < 40; ++i) {
        trace.push_back({0, 0x100000 + static_cast<uint64_t>(i) * 64,
                         OpClass::Store, false, 0, 0, true});
    }
    Core batch;
    CoreStats expected = batch.run(trace);
    StreamCore stream;
    for (const TraceOp &op : trace) {
        stream.onOp(op);
    }
    stream.flush();
    EXPECT_EQ(expected, stream.stats());
}

TEST(StreamCore, EmptyStreamIsZero)
{
    StreamCore sim;
    sim.flush();
    EXPECT_TRUE(sim.finished());
    EXPECT_EQ(sim.stats(), CoreStats{});
}

TEST(StreamCore, RejectsOpsAfterFlush)
{
    StreamCore sim;
    TraceOp op{0x400000, 0, OpClass::Alu, false, 0, 0, false};
    sim.onOp(op);
    sim.flush();
    EXPECT_THROW(sim.onOp(op), std::logic_error);
    EXPECT_THROW(sim.onOps(&op, 1), std::logic_error);
}

TEST(CacheSink, CountsMemorySideOnly)
{
    CacheSink sink;
    // 100 loads of the same line: one demand miss.
    for (int i = 0; i < 100; ++i) {
        sink.onOp({0x400000, 0x100000, OpClass::Load, false, 0, 0, false});
    }
    EXPECT_EQ(sink.instructions(), 100u);
    EXPECT_EQ(sink.hierarchy().l1d().accesses(), 100u);
    EXPECT_EQ(sink.hierarchy().l1d().misses(), 1u);

    // A foreign store to that line invalidates it without counting as
    // an instruction; the next load misses again.
    sink.onOp({0, 0x100000, OpClass::Store, false, 0, 0, true});
    EXPECT_EQ(sink.instructions(), 100u);
    sink.onOp({0x400000, 0x100000, OpClass::Load, false, 0, 0, false});
    EXPECT_EQ(sink.hierarchy().l1d().misses(), 2u);
    EXPECT_GT(sink.hierarchy().l1d().invalidations(), 0u);
    EXPECT_DOUBLE_EQ(sink.mpkiOf(101), 1000.0);
}

} // namespace
} // namespace vepro::uarch
