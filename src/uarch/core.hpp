#ifndef VEPRO_UARCH_CORE_HPP
#define VEPRO_UARCH_CORE_HPP

/**
 * @file
 * Trace-driven out-of-order core model with Intel-style top-down
 * pipeline-slot accounting.
 *
 * The model follows the paper's measurement machine (Xeon E5-2650 v4,
 * Broadwell): 4-wide allocation/retire, 192-entry ROB, unified 60-entry
 * scheduler, 72/42-entry load/store buffers, two load ports and one
 * store port, a TAGE-class front-end direction predictor, and the
 * 32K/32K/256K/30M cache hierarchy. It consumes the op traces captured
 * by the instrumentation probes and produces exactly the statistics
 * the paper reports: IPC, the four top-down slot categories (plus the
 * memory/core backend split), branch miss rate and MPKI, per-level
 * cache MPKI, and resource-stall cycle counts for the RS, ROB, and
 * load/store buffers (Figs. 4-7, 11, 16).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bpred/predictor.hpp"
#include "trace/probe.hpp"
#include "uarch/cache.hpp"

namespace vepro::uarch
{

/** Core geometry and timing. Defaults model the paper's Xeon. */
struct CoreConfig {
    int width = 4;             ///< Allocation/retire width (slots/cycle).
    int robSize = 192;
    int rsSize = 60;
    int loadBufSize = 72;
    int storeBufSize = 42;

    int aluPorts = 3;
    int simdPorts = 2;
    int mulPorts = 1;
    int loadPorts = 2;
    int storePorts = 1;
    int branchPorts = 1;

    int mispredictPenalty = 14;  ///< Redirect cycles after a bad branch.
    int takenBranchBubble = 1;   ///< Fetch bubble after a taken branch.

    /** Front-end direction predictor (see bpred::makePredictor specs). */
    std::string predictorSpec = "tage-64KB";

    Hierarchy::Config mem;
};

/**
 * The paper's measurement machine, explicitly: identical to a
 * default-constructed CoreConfig (pinned by test_backend), but named so
 * profile-constructed configs read as what they are.
 */
CoreConfig xeonBdwConfig();

/**
 * An Arm server core of the Graviton/Neoverse class: wider issue and a
 * deeper window than the Broadwell Xeon, more L1/L2 capacity but a
 * slower outer hierarchy — the geometry "Where to Encode" prices
 * against x86. Consumed by the backend profile registry and the
 * vepro-check fuzzer (so the differential oracles exercise a real
 * profile geometry, not only random ones).
 */
CoreConfig gravitonLikeConfig();

/** Top-down pipeline-slot totals (slots = cycles x width). */
struct TopDownSlots {
    uint64_t retiring = 0;
    uint64_t badSpec = 0;
    uint64_t frontend = 0;
    uint64_t backend = 0;
    uint64_t backendMemory = 0;  ///< Portion of backend due to memory.
    uint64_t backendCore = 0;    ///< Portion due to execution resources.

    uint64_t
    total() const
    {
        return retiring + badSpec + frontend + backend;
    }

    double fraction(uint64_t part) const
    {
        return total() ? static_cast<double>(part) /
                             static_cast<double>(total())
                       : 0.0;
    }

    bool operator==(const TopDownSlots &) const = default;
};

/** Cycles during which allocation was blocked, by first blocking unit. */
struct ResourceStalls {
    uint64_t rs = 0;
    uint64_t rob = 0;
    uint64_t loadBuf = 0;
    uint64_t storeBuf = 0;

    bool operator==(const ResourceStalls &) const = default;
};

/** Everything measured by one simulation. */
struct CoreStats {
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    TopDownSlots slots;
    ResourceStalls stalls;

    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;

    uint64_t l1iMisses = 0;
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Misses = 0;
    uint64_t llcMisses = 0;
    uint64_t invalidations = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    branchMissRatePercent() const
    {
        return condBranches ? 100.0 * static_cast<double>(mispredicts) /
                                  static_cast<double>(condBranches)
                            : 0.0;
    }

    double mpkiOf(uint64_t misses) const
    {
        return instructions ? 1000.0 * static_cast<double>(misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    double branchMpki() const { return mpkiOf(mispredicts); }
    double l1dMpki() const { return mpkiOf(l1dMisses); }
    double l2Mpki() const { return mpkiOf(l2Misses); }
    double llcMpki() const { return mpkiOf(llcMisses); }
    double l1iMpki() const { return mpkiOf(l1iMisses); }

    /**
     * The one list of counters, in the result store's order and
     * spelling: calls f(name, s.counter...) once per counter, passing
     * that counter of every CoreStats in @p s (const or mutable). The
     * store record, vepro-check's diffs and the tests' printers walk
     * this list instead of naming fields.
     */
    template <class F, class... S>
    static void
    forEachField(F &&f, S &&...s)
    {
        f("cycles", s.cycles...);
        f("instructions", s.instructions...);
        f("retiring", s.slots.retiring...);
        f("badSpec", s.slots.badSpec...);
        f("frontend", s.slots.frontend...);
        f("backend", s.slots.backend...);
        f("backendMemory", s.slots.backendMemory...);
        f("backendCore", s.slots.backendCore...);
        f("rsStalls", s.stalls.rs...);
        f("robStalls", s.stalls.rob...);
        f("loadBufStalls", s.stalls.loadBuf...);
        f("storeBufStalls", s.stalls.storeBuf...);
        f("condBranches", s.condBranches...);
        f("mispredicts", s.mispredicts...);
        f("l1iMisses", s.l1iMisses...);
        f("l1dAccesses", s.l1dAccesses...);
        f("l1dMisses", s.l1dMisses...);
        f("l2Misses", s.l2Misses...);
        f("llcMisses", s.llcMisses...);
        f("invalidations", s.invalidations...);
    }

    bool operator==(const CoreStats &) const = default;
};

// A counter added to CoreStats but not to forEachField fails here.
static_assert(sizeof(CoreStats) == 20 * sizeof(uint64_t),
              "CoreStats::forEachField must list every counter");

/**
 * Streaming core model: a trace::TraceSink that simulates the op stream
 * as it arrives, fused with the producing encode.
 *
 * Ops are buffered in a small ring and simulated as soon as enough are
 * queued to keep the fetch stage fed; flush() drains the pipeline and
 * finalises the statistics. Cycle-for-cycle identical to replaying the
 * materialised trace through Core::run (which delegates here), but with
 * O(ring) memory instead of O(trace length), so uncapped full-fidelity
 * traces need no truncation or sampling.
 */
class StreamCore final : public trace::TraceSink
{
  public:
    explicit StreamCore(const CoreConfig &config = {});
    ~StreamCore() override;

    StreamCore(const StreamCore &) = delete;
    StreamCore &operator=(const StreamCore &) = delete;
    StreamCore(StreamCore &&) noexcept;
    StreamCore &operator=(StreamCore &&) noexcept;

    /**
     * Consume the next dynamic op. Foreign ops are applied as coherence
     * invalidations, not instructions. Throws std::logic_error after
     * flush().
     */
    void onOp(const trace::TraceOp &op) override;
    void onOps(const trace::TraceOp *ops, size_t n) override;

    /** End of trace: drain the pipeline and finalise stats(). */
    void flush() override;

    /**
     * Discard the statistics accumulated so far while keeping all
     * microarchitectural state warm (caches, branch predictor, TLB-less
     * hierarchy contents). The pipeline is drained first — every op
     * received so far retires — so the post-reset measurement starts
     * from an empty window. This is the warm-up path: run the warm-up
     * ops, reset, then measure. After this, flush() reports only the
     * ops consumed since the reset. Throws std::logic_error after
     * flush().
     */
    void resetStats();

    bool finished() const;

    /** The simulation results; valid once flush() has run. */
    const CoreStats &stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** The core model. One instance simulates one trace start-to-finish. */
class Core
{
  public:
    explicit Core(const CoreConfig &config = {});

    /**
     * Simulate the trace and return the statistics: the batch-replay
     * entry point, equivalent to streaming the trace through a
     * StreamCore. Foreign ops in the trace are applied as coherence
     * invalidations, not instructions.
     */
    CoreStats run(const std::vector<trace::TraceOp> &trace);

  private:
    CoreConfig config_;
};

/**
 * Cache-hierarchy-only sink: runs the memory side of the op stream (data
 * accesses, instruction-line fetches, coherence invalidations) through a
 * Hierarchy without the out-of-order core on top. Orders of magnitude
 * cheaper than StreamCore when only miss counts are needed.
 */
class CacheSink final : public trace::TraceSink
{
  public:
    explicit CacheSink(const Hierarchy::Config &config = Hierarchy::Config{})
        : mem_(config)
    {
    }

    void onOp(const trace::TraceOp &op) override;
    void onOps(const trace::TraceOp *ops, size_t n) override;

    const Hierarchy &hierarchy() const { return mem_; }
    uint64_t instructions() const { return instructions_; }

    /** Misses per kilo-instruction of one level's counter. */
    double
    mpkiOf(uint64_t misses) const
    {
        return instructions_ ? 1000.0 * static_cast<double>(misses) /
                                   static_cast<double>(instructions_)
                             : 0.0;
    }

  private:
    void step(const trace::TraceOp &op);

    Hierarchy mem_;
    uint64_t last_line_ = ~0ull;
    uint64_t instructions_ = 0;
};

} // namespace vepro::uarch

#endif // VEPRO_UARCH_CORE_HPP
