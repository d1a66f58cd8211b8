#ifndef VEPRO_TRACE_PROBE_HPP
#define VEPRO_TRACE_PROBE_HPP

/**
 * @file
 * Instrumentation probe: the repository's substitute for Intel Pin.
 *
 * Encoder kernels call into a Probe to report the dynamic instructions
 * they would execute as compiled AVX2 code: op class, synthetic program
 * counter, data address, branch outcome, and dependency distances. The
 * probe keeps instruction-mix counters (always on, batched — Table 2 /
 * Fig. 3) and streams two traces to a TraceSink:
 *
 *  - a branch trace (pc, taken) for the CBP predictor study (Figs. 8-10),
 *  - a sampled full-op trace for the out-of-order core model
 *    (Figs. 4-7, 11, 16).
 *
 * Synthetic PCs come from a per-call-site registry: each instrumented
 * kernel or decision point owns a stable 1 KiB code window derived from a
 * hash of its name, and ops within the site cycle through a small loop
 * body, mirroring the I-footprint of real compiled kernels.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "trace/opclass.hpp"
#include "trace/sample_plan.hpp"
#include "trace/sink.hpp"

namespace vepro::trace
{

/**
 * Stable synthetic PC for a named instrumentation site.
 *
 * The value is a pure function of the name (FNV-1a, masked into a
 * canonical user-space range and 1 KiB aligned), so traces are
 * reproducible across runs and machines.
 */
uint64_t sitePc(std::string_view name);

/**
 * Reverse lookup for profiling: the name registered for a site PC (the
 * 1 KiB-window base, ignoring code-variant offsets), or "?" if the PC
 * was never registered through sitePc().
 */
std::string siteName(uint64_t pc);

/** Instruction-mix totals, by op class and by reporting category. */
struct MixCounters {
    std::array<uint64_t, kNumOpClasses> byClass{};

    uint64_t total() const;
    uint64_t byCategory(MixCategory cat) const;
    /** Percentage share (0-100) of a category; 0 when empty. */
    double categoryPercent(MixCategory cat) const;

    MixCounters &operator+=(const MixCounters &other);
    bool operator==(const MixCounters &) const = default;
};

/**
 * Counter-only stand-in for a Probe inside emitKernel(): the five
 * counting calls of a kernel body add to a per-class count and a total,
 * nothing else. It has no enterKernel() and no accessors, so a body
 * that enters a nested kernel or reads probe state does not compile
 * against it. A fresh tally already holds enterKernel()'s own ops, so
 * the probe commits a quiet kernel in one pass over the counters.
 */
class QuietTally
{
  public:
    QuietTally()
    {
        // enterKernel(): call + return plus a tiny scalar preamble.
        byClass_[static_cast<int>(OpClass::BranchUncond)] = 2;
        byClass_[static_cast<int>(OpClass::Other)] = 2;
    }

    void ops(OpClass cls, uint64_t n, uint8_t = 0, uint8_t = 0)
    {
        add(cls, n);
    }
    void mem(OpClass cls, uint64_t, uint8_t = 0) { add(cls, 1); }
    void memRun(OpClass cls, uint64_t, int n, int, uint8_t = 0)
    {
        add(cls, static_cast<uint64_t>(n));
    }
    void decision(uint64_t, bool) { add(OpClass::BranchCond, 1); }
    void loopBranches(uint64_t iterations)
    {
        add(OpClass::BranchCond, iterations);
    }

  private:
    friend class Probe;

    void
    add(OpClass cls, uint64_t n)
    {
        byClass_[static_cast<int>(cls)] += n;
        total_ += n;
    }

    std::array<uint64_t, kNumOpClasses> byClass_{};
    uint64_t total_ = 4;
};

/**
 * The emission of one call sequence, such as one motion search: its op
 * counts per class and its last kernel entry. Probe::spanSince() records
 * one and Probe::commitQuietSpan() applies it again in one step at a
 * later position. Op counts do not depend on where a span runs, so a
 * span may hold only emission calls (emitKernel included) and nested
 * committed spans; it may not call allocRegion() or flushToSink(), or
 * read totalOps() or recordedOps().
 */
struct QuietSpan {
    static constexpr uint64_t kNoEntry = std::numeric_limits<uint64_t>::max();

    std::array<uint64_t, kNumOpClasses> byClass{};
    uint64_t total = 0;
    /** The last kernel the span entered: its site, body length and op
     *  offset from the span start (kNoEntry when it entered none). */
    uint64_t site = 0;
    uint64_t entryOffset = kNoEntry;
    int bodyLen = 0;
};

/** Probe configuration: what to collect and how much. */
struct ProbeConfig {
    /** The op trace for the core model: which ops are recorded and the
     *  cap on them. The default plan records none. */
    SamplePlan ops;

    /** Collect the branch trace for the CBP framework. */
    bool collectBranches = false;
    /** Hard cap on retained branch records. */
    size_t maxBranches = 4'000'000;
    /**
     * Skip this many dynamic ops before branch recording starts: the
     * paper traces an interval "roughly halfway through the encoding
     * run", i.e. past the warm-up of the first frames.
     */
    uint64_t branchWarmupOps = 0;

    /**
     * Full-fidelity streaming configuration: every op (SamplePlan::all())
     * and optionally every branch is recorded, uncapped and unsampled.
     * Best with a sink that consumes the stream as it is produced: a
     * VectorSink makes it O(trace length) again.
     */
    static ProbeConfig streaming(bool branches = false);
};

/**
 * Collector for one instrumented run.
 *
 * Not thread safe: each simulated encoder worker owns its own Probe.
 *
 * The emission calls are header-inline. Each adds its ops to the mix
 * and to the op counter, then returns at once while the counter stays
 * inside the current *quiet region*: a span of the op sequence in which
 * no call can record an op, because the sample plan skips it or its cap
 * cuts every op. Any other call takes one out-of-line slow path that
 * does the full per-call accounting and opens the next region; it asks
 * the plan for the next run only when it passes the end of the one it
 * holds.
 * A kernel emitted through emitKernel() that ends inside the region is
 * counted in one step instead of one call per op, and so is a recorded
 * QuietSpan that commitQuietSpan() applies again.
 */
class Probe
{
  public:
    Probe() { openQuietRegion(); }
    explicit Probe(const ProbeConfig &config) : config_(config)
    {
        openQuietRegion();
    }

    /**
     * Stream recorded ops/branches to @p sink. The sample plan and caps
     * of the ProbeConfig gate what is recorded; configure with
     * ProbeConfig::streaming() for the uncapped full trace, and feed a
     * VectorSink to materialise it. The sink is not owned and must
     * outlive the probe's emission. A probe whose config records ops or
     * branches needs a sink: delivering a block without one throws
     * std::logic_error.
     */
    void setSink(TraceSink *sink) { sink_ = sink; }

    /**
     * Deliver any records still staged in the probe's emission block to
     * the sink. Recorded ops, branches, and kernel entries are staged
     * into TraceBlocks by BlockStager's rule and delivered whole through
     * TraceSink::onBlock, so sink consumers must call this once emission
     * ends — before the sink's own flush() — to receive the tail of the
     * stream.
     */
    void flushToSink();

    // -- Kernel-facing emission API --------------------------------------

    /**
     * Enter an instrumented kernel. Sets the PC window for subsequent ops
     * and emits the call/return pair bookkeeping (2 unconditional
     * branches + small scalar preamble), approximating a real call.
     *
     * @param site      PC of the kernel (from sitePc()).
     * @param body_len  Modeled loop-body length in instructions; op PCs
     *                  cycle through this window.
     */
    void enterKernel(uint64_t site, int body_len = 32);

    /** Record @p n ops of class @p cls (no addresses, batched). */
    void ops(OpClass cls, uint64_t n, uint8_t dep1 = 0, uint8_t dep2 = 0);

    /** Record one memory op at @p addr. */
    void mem(OpClass cls, uint64_t addr, uint8_t dep1 = 0);

    /**
     * Record a run of @p n sequential vector memory ops starting at
     * @p addr with @p stride bytes between accesses.
     */
    void memRun(OpClass cls, uint64_t addr, int n, int stride,
                uint8_t dep1 = 0);

    /**
     * Record one data-dependent conditional branch (an RDO decision,
     * early-exit test, etc.).
     */
    void decision(uint64_t site, bool taken);

    /**
     * Record a counted loop's back-edge branches: @p iterations - 1 taken
     * plus one fall-through, all at the current kernel's loop-branch PC.
     */
    void loopBranches(uint64_t iterations);

    /**
     * emitKernel()'s commit: when the kernel entered at the current
     * position with @p tally's ops ends inside the quiet region, apply
     * enterKernel(@p site, @p body_len) and the tally in one step and
     * return true. Otherwise change nothing and return false.
     */
    bool commitQuietKernel(uint64_t site, int body_len,
                           const QuietTally &tally);

    // -- Recorded spans ----------------------------------------------------

    /** The emission so far as one span from op 0: the start mark of a
     *  span that spanSince() ends. */
    QuietSpan mark() const;
    /** The emission between @p start (a mark() of this probe) and now. */
    QuietSpan spanSince(const QuietSpan &start) const;
    /**
     * Apply @p span at the current position in one step, when it ends
     * below the bound commitQuietKernel() uses, and return true: its
     * counts, then its last kernel entered at its offset, so the code
     * variant, the deferred kernel event and the PC window are those the
     * span's calls leave. Otherwise change nothing and return false.
     */
    bool commitQuietSpan(const QuietSpan &span);

    // -- Address-space management ----------------------------------------

    /**
     * Allocate @p size bytes of synthetic, deterministic address space
     * (4 KiB aligned). Encoders map each pixel/coefficient buffer once
     * and derive op addresses from the returned base.
     */
    uint64_t allocRegion(size_t size);

    // -- Results ----------------------------------------------------------

    const MixCounters &mix() const { return mix_; }
    uint64_t totalOps() const { return opSeq_; }

    /** Ops recorded so far (delivered or staged for the sink). */
    uint64_t recordedOps() const { return ops_recorded_; }
    /** Branches recorded so far. */
    uint64_t recordedBranches() const { return branches_recorded_; }
    /**
     * Ops that the sample plan records but its cap cut. Non-zero means
     * the op trace under-represents the run; benches should warn rather
     * than report denominators computed from a silently clipped trace. Includes the open quiet region's drops,
     * which are only counted into dropped_ops_ when the region closes.
     */
    uint64_t droppedOps() const
    {
        return dropped_ops_ + (dropping_ ? opSeq_ - drop_from_ : 0);
    }
    /** Branches lost to the maxBranches cap (see droppedOps()). */
    uint64_t droppedBranches() const { return dropped_branches_; }

    /**
     * Dynamic-instruction span covered by the collected branch trace
     * (first to last recorded branch) — the MPKI denominator for the
     * CBP study, mirroring the paper's fixed-length trace interval.
     */
    uint64_t branchTraceOpSpan() const
    {
        return branch_last_op_ > branch_first_op_
                   ? branch_last_op_ - branch_first_op_
                   : 0;
    }

    /**
     * Fault injection for the vepro-check probe target: a quiet region
     * on a skip run runs on past the run's end, so later windows go
     * unrecorded. The probe differential must catch it; never enabled
     * in real runs.
     */
    void injectQuietFault(bool on) { quiet_fault_ = on; }
    /**
     * Fault injection for the same target: the kernel commit tests
     * quiet_end_ instead of branch_quiet_end_, so kernels past the
     * branch warmup commit quietly and lose their branch records.
     */
    void injectTallyFault(bool on) { tally_fault_ = on; }
    /**
     * Fault injection for the same target: a span commit enters the
     * span's last kernel at the span start instead of at its offset, so
     * later ops run in the wrong code variant.
     */
    void injectSpanFault(bool on) { span_fault_ = on; }

  private:
    static constexpr uint64_t kNever = SamplePlan::kNever;

    /** Per-call accounting for the @p n ops the calling emission has
     *  already added to opSeq_: returns how many of them the run at the
     *  call's start records under the cap, counting the recorded ops the
     *  cap cuts as dropped. A call that starts in a skip run records
     *  nothing, even where it runs on into the next window. */
    uint64_t advance(uint64_t n);

    /** Set quiet_end_ / branch_quiet_end_ for the position opSeq_, after
     *  a slow call has done its recording (see the class comment). */
    void openQuietRegion();
    /** Hold the plan's run at @p at, which is at or past the last slow
     *  call; asks the plan only when @p at is past the held run. */
    void runFrom(uint64_t at);

    // Out-of-line remainders of the emission calls (see the class
    // comment): the full accounting and recording, then a new region.
    void enterKernelSlow();
    void opsSlow(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2);
    void memSlow(OpClass cls, uint64_t addr, uint8_t dep1);
    void memRunSlow(OpClass cls, uint64_t addr, int n, int stride,
                    uint8_t dep1);
    void decisionSlow(uint64_t site, bool taken);
    void loopBranchesSlow(uint64_t iterations);

    /** enterKernel()'s state updates for an entry at op @p at: the
     *  deferred kernel event and the PC window of its ops. */
    void enterSite(uint64_t site, int body_len, uint64_t at);
    uint64_t nextPc();

    /** The stager's publish target: sink_->onBlock. A sink that moves
     *  from the block takes the buffers; a block is delivered whole
     *  (one virtual call per thousands of records). @throws
     *  std::logic_error when no sink is set. */
    void deliver(TraceBlock &&block);
    auto
    toSink()
    {
        return [this](TraceBlock &&block) { deliver(std::move(block)); };
    }

    /** Record one op (updates the recorded counter). */
    void emitOp(const TraceOp &op);
    /** Record a batch of ops. */
    void emitOps(const TraceOp *ops, size_t n);
    /** Stage the deferred kernel-site event (see enterKernel) just
     *  before the first op recorded under that site. */
    void stagePendingKernel();
    /** Record one branch (caller already applied warmup/cap gating) as
     *  an in-block event at the current op position, preserving
     *  program order without cutting the block. */
    void emitBranch(uint64_t pc, bool taken);

    ProbeConfig config_{};
    MixCounters mix_{};
    uint64_t opSeq_ = 0;
    /** Calls that end below this op count take the fast path: the quiet
     *  region. 0 means empty (every call is slow), kNever unbounded. */
    uint64_t quiet_end_ = 0;
    /** The same bound for decision()/loopBranches(), which also stops
     *  where branch recording needs the slow path. */
    uint64_t branch_quiet_end_ = 0;
    /** The plan's run holding the last slow call's position, so the
     *  hot path never asks the plan and the slow path only when it
     *  crosses a run's end. */
    SamplePlan::Run run_{0, false};
    /** While dropping_, the current quiet region sits in a record run
     *  with the cap reached: every op from drop_from_ on is dropped.
     *  Counted into dropped_ops_ when the region closes. */
    uint64_t drop_from_ = 0;
    bool dropping_ = false;
    bool quiet_fault_ = false;
    bool tally_fault_ = false;
    bool span_fault_ = false;

    uint64_t siteBase_ = sitePc("vepro.default");
    int siteBodyLen_ = 32;
    uint32_t sitePos_ = 0;  ///< Position in [0, siteBodyLen_), wrapped.
    /** Op position of the last kernel entry (kNoEntry before the first);
     *  pending_site_ holds its site and siteBodyLen_ its body length. */
    uint64_t siteEntry_ = QuietSpan::kNoEntry;

    uint64_t nextRegion_ = 0x10000000ULL;

    uint64_t branch_first_op_ = 0;
    uint64_t branch_last_op_ = 0;

    TraceSink *sink_ = nullptr;  ///< Consumer of recorded records.
    /** Kernel-site event deferred until an op is actually recorded:
     *  in sampled runs, kernel entries in the gaps between op windows
     *  vastly outnumber recorded ops and carry no information a
     *  stream consumer can use (attribution only needs the site in
     *  force when recording resumes). */
    uint64_t pending_site_ = 0;
    bool pending_site_valid_ = false;
    /** Emission staging block: recorded ops and branch/kernel records
     *  (as positioned events), delivered whole through sink_->onBlock
     *  as the stager's rule fills each block. */
    BlockStager stage_;
    uint64_t ops_recorded_ = 0;
    uint64_t branches_recorded_ = 0;
    uint64_t dropped_ops_ = 0;
    uint64_t dropped_branches_ = 0;
};

// -- Emission fast path ----------------------------------------------------
//
// opSeq_ stays exact on the fast path: enterKernel derives the code
// variant from it, and the slow path finds the plan's run from it.

inline void
Probe::enterSite(uint64_t site, int body_len, uint64_t at)
{
    // Deferred: the event is only staged when a record actually lands
    // under this site (stagePendingKernel). Sampled captures gate ops
    // off for most of each interval, and staging an event per kernel
    // entry during those gaps used to swamp the trace — more event
    // bytes than op bytes. Replay attribution only needs the site in
    // force when recording resumes, which collapsing the gap's entries
    // to the last one preserves.
    pending_site_ = site;
    pending_site_valid_ = true;
    // Real encoders specialise each kernel by block size / unroll factor;
    // spread invocations over eight code variants so the instruction
    // footprint matches a few hundred KB of hot code, not a toy loop.
    siteBase_ = site + ((at >> 6) & 7) * 1024;
    siteBodyLen_ = std::max(1, body_len);
    sitePos_ = 0;
    siteEntry_ = at;
}

inline void
Probe::enterKernel(uint64_t site, int body_len)
{
    enterSite(site, body_len, opSeq_);
    // Call + return plus a tiny scalar preamble (spills / setup).
    mix_.byClass[static_cast<int>(OpClass::BranchUncond)] += 2;
    mix_.byClass[static_cast<int>(OpClass::Other)] += 2;
    opSeq_ += 4;
    if (opSeq_ < quiet_end_) {
        return;
    }
    enterKernelSlow();
}

inline void
Probe::ops(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2)
{
    mix_.byClass[static_cast<int>(cls)] += n;
    opSeq_ += n;
    if (opSeq_ < quiet_end_) {
        return;
    }
    opsSlow(cls, n, dep1, dep2);
}

inline void
Probe::mem(OpClass cls, uint64_t addr, uint8_t dep1)
{
    mix_.byClass[static_cast<int>(cls)] += 1;
    if (++opSeq_ < quiet_end_) {
        return;
    }
    memSlow(cls, addr, dep1);
}

inline void
Probe::memRun(OpClass cls, uint64_t addr, int n, int stride, uint8_t dep1)
{
    mix_.byClass[static_cast<int>(cls)] += static_cast<uint64_t>(n);
    opSeq_ += static_cast<uint64_t>(n);
    if (opSeq_ < quiet_end_) {
        return;
    }
    memRunSlow(cls, addr, n, stride, dep1);
}

inline void
Probe::decision(uint64_t site, bool taken)
{
    mix_.byClass[static_cast<int>(OpClass::BranchCond)] += 1;
    if (++opSeq_ < branch_quiet_end_) {
        return;
    }
    decisionSlow(site, taken);
}

inline void
Probe::loopBranches(uint64_t iterations)
{
    mix_.byClass[static_cast<int>(OpClass::BranchCond)] += iterations;
    opSeq_ += iterations;
    if (opSeq_ < branch_quiet_end_) {
        return;
    }
    loopBranchesSlow(iterations);
}

// A call whose end lies below quiet_end_ only adds to the mix and
// opSeq_, and branch calls test branch_quiet_end_ <= quiet_end_. Ends
// only grow, so when the kernel's last op ends below branch_quiet_end_
// every call in it is such a call; none runs a slow path, so neither
// bound moves mid-kernel and the sum of their effects is the tally.
inline bool
Probe::commitQuietKernel(uint64_t site, int body_len,
                         const QuietTally &tally)
{
    const uint64_t end = opSeq_ + tally.total_;
    if (end >= (tally_fault_ ? quiet_end_ : branch_quiet_end_)) {
        return false;
    }
    // enterKernel()'s ops are in the tally.
    enterSite(site, body_len, opSeq_);
    // Unrolled: with constant indices the tally of an inlined body stays
    // in registers, and only the classes it counted touch the mix.
    [&]<size_t... C>(std::index_sequence<C...>) {
        ((mix_.byClass[C] += tally.byClass_[C]), ...);
    }(std::make_index_sequence<kNumOpClasses>{});
    opSeq_ = end;
    return true;
}

inline QuietSpan
Probe::mark() const
{
    QuietSpan m;
    m.byClass = mix_.byClass;
    m.total = opSeq_;
    m.site = pending_site_;
    m.entryOffset = siteEntry_;
    m.bodyLen = siteBodyLen_;
    return m;
}

inline QuietSpan
Probe::spanSince(const QuietSpan &start) const
{
    QuietSpan span = mark();
    for (size_t c = 0; c < span.byClass.size(); ++c) {
        span.byClass[c] -= start.byClass[c];
    }
    span.total -= start.total;
    // An entry before the mark sits at least enterKernel()'s 4 ops before
    // it; one at the mark's own position is the span's first call.
    span.entryOffset = siteEntry_ != QuietSpan::kNoEntry &&
                               siteEntry_ >= start.total
                           ? siteEntry_ - start.total
                           : QuietSpan::kNoEntry;
    return span;
}

// The same argument as commitQuietKernel's: a span that ends below
// branch_quiet_end_ ran, call by call, only fast-path calls, whose
// effects are the mix, opSeq_ and each kernel entry's site state, of
// which the last entry's is what remains.
inline bool
Probe::commitQuietSpan(const QuietSpan &span)
{
    const uint64_t end = opSeq_ + span.total;
    if (end >= branch_quiet_end_) {
        return false;
    }
    if (span.entryOffset != QuietSpan::kNoEntry) {
        enterSite(span.site, span.bodyLen,
                  opSeq_ + (span_fault_ ? 0 : span.entryOffset));
    }
    [&]<size_t... C>(std::index_sequence<C...>) {
        ((mix_.byClass[C] += span.byClass[C]), ...);
    }(std::make_index_sequence<kNumOpClasses>{});
    opSeq_ = end;
    return true;
}

/**
 * Emit one instrumented kernel: enterKernel(@p site, @p body_len), then
 * @p body's calls. @p body is a generic callable taking the emitter
 * (`[&](auto &e) { ... e.mem(...); ... }`), so a site's op stream is
 * written once. It runs first against a QuietTally; when the whole
 * kernel ends inside the quiet region, the probe applies the tally in
 * one step. Otherwise the kernel runs call by call against @p probe,
 * exactly as enterKernel() plus the body would. Either way the recorded
 * stream and every counter are the same.
 *
 * @p body may run twice, so it may only make the five counting calls
 * (ops, mem, memRun, decision, loopBranches) and pure arithmetic.
 */
template <typename Body>
void
emitKernel(Probe &probe, uint64_t site, int body_len, Body &&body)
{
    QuietTally tally;
    body(tally);
    if (!probe.commitQuietKernel(site, body_len, tally)) {
        probe.enterKernel(site, body_len);
        body(probe);
    }
}

/**
 * Scoped access to a thread-local "current probe".
 *
 * Codec kernels fetch the active probe via currentProbe() so that deep
 * call chains need not thread a Probe& through every signature. A null
 * current probe (the default) makes all emission free of side effects,
 * so un-instrumented library use pays only a pointer test.
 */
Probe *currentProbe();

/**
 * Emit the op stream of scalar control/bookkeeping code (mode decision
 * logic, cost tables, syntax-element management) — the code that
 * dominates real encoders' scalar instruction mix.
 *
 * Per unit this emits roughly: three scalar loads (a hot cost/LUT entry,
 * a spread per-block metadata entry, a stack slot), one or two scalar
 * stores, ALU/address arithmetic, and a loop branch every few units.
 *
 * @param probe        Destination (must not be null).
 * @param site         Call-site PC for the emitted ops.
 * @param units        Number of control units to emit.
 * @param hot_addr     Base of a small hot table (cycled over 2 KiB).
 * @param spread_addr  Base of a large per-block metadata region.
 * @param spread_step  Stride applied per unit within the spread region.
 */
void emitControl(Probe &probe, uint64_t site, int units, uint64_t hot_addr,
                 uint64_t spread_addr, uint64_t spread_step);

/** RAII installer for the thread-local current probe. */
class ProbeScope
{
  public:
    explicit ProbeScope(Probe *probe);
    ~ProbeScope();

    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;

  private:
    Probe *saved_;
};

} // namespace vepro::trace

#endif // VEPRO_TRACE_PROBE_HPP
