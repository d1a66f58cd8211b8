#ifndef VEPRO_TRACE_SINK_HPP
#define VEPRO_TRACE_SINK_HPP

/**
 * @file
 * Streaming trace records and the TraceSink consumer interface.
 *
 * The instrumentation probe (probe.hpp) produces two record streams: the
 * full dynamic-op trace consumed by the core model and a branch trace
 * consumed by the CBP predictor framework. Historically both were
 * materialised into vectors and replayed afterwards, which caps fidelity
 * (traces are truncated at a few million records) and makes peak memory
 * proportional to trace length.
 *
 * TraceSink inverts that: consumers subscribe to the probe and receive
 * records as the encode emits them, so encode and simulation run fused
 * in one pass with O(1) trace memory. The out-of-order core model
 * (uarch::StreamCore), the cache hierarchy (uarch::CacheSink), the CBP
 * runner (bpred::StreamRunner), and the site profiler (SiteProfileSink)
 * all implement this interface; MuxSink fans one probe out to several of
 * them, and VectorSink is the one materialiser, for batch replay and
 * tests.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/opclass.hpp"

namespace vepro::trace
{

/** One record of the branch trace consumed by the CBP framework. */
struct BranchRecord {
    uint64_t pc;   ///< Synthetic PC of the branch instruction.
    bool taken;    ///< Resolved direction.
};

/** One record of the full-op trace consumed by the core model. */
struct TraceOp {
    uint64_t pc = 0;     ///< Synthetic PC.
    uint64_t addr = 0;   ///< Data address for memory ops, else 0.
    OpClass cls = OpClass::Alu;
    bool taken = false;  ///< Direction, for conditional branches.
    /**
     * Distance (in dynamic ops) back to the producers of this op's
     * sources; 0 means no in-window register dependence. Kernels choose
     * values that match their dataflow (e.g. 1 for an accumulator chain).
     */
    uint8_t dep1 = 0;
    uint8_t dep2 = 0;
    /**
     * True for a store performed by *another* core (thread-study traces
     * only): the core model treats it as a coherence invalidation rather
     * than an executed instruction. Deliberately last so the common
     * aggregate initialisers can omit it.
     */
    bool foreign = false;
};

/**
 * One staging block: up to kOps dynamic ops plus the branch and
 * kernel-entry records that occurred among them, carried in program
 * order. A trace is a sequence of these blocks, cut by BlockStager's one
 * rule, and ownership of a whole block can be transferred to a sink (see
 * TraceSink::onBlock), so a sink that keeps the trace for later — the
 * segment-parallel core::SegmentSim — takes each span without copying.
 *
 * Events interleave with ops by position: an event at pos P happened
 * after ops[0..P) and before ops[P..). replayBlock() reconstructs the
 * exact op/branch/kernel program order a record-at-a-time consumer
 * would have seen.
 */
struct TraceBlock {
    /** Ops per full block (and events, for branch-heavy streams). */
    static constexpr size_t kOps = 4096;

    struct Event {
        enum Kind : uint8_t { Branch, Kernel };
        uint32_t pos = 0;    ///< Index into ops where the event fires.
        Kind kind = Branch;
        bool taken = false;  ///< Branch direction (Branch events).
        uint64_t value = 0;  ///< Branch PC, or kernel site PC.
    };

    std::vector<TraceOp> ops;
    std::vector<Event> events;

    bool empty() const { return ops.empty() && events.empty(); }

    /** Drop contents, keeping both buffers' capacity for reuse. */
    void
    clear()
    {
        ops.clear();
        events.clear();
    }

    /** Reserve the standard block capacity up front. */
    void
    reserveStandard()
    {
        ops.reserve(kOps);
    }
};

/**
 * The one rule that cuts a record stream into TraceBlocks. The probe,
 * FileSink and core::SegmentSim all stage through it, so a trace's
 * blocks depend only on its records, not on how they were delivered
 * (whole blocks, spans or one record at a time):
 *
 *  - an op that finds kOps ops already staged first publishes the block;
 *  - an event is staged at pos = the number of ops staged, and the event
 *    that brings the event count to kOps publishes the block right after
 *    it (only branch-heavy streams get there);
 *  - a published block leaves the stage empty, with kOps capacity
 *    reserved.
 *
 * Each staging call takes the publish target, a callable invoked as
 * publish(TraceBlock &&) that may move from the block.
 */
class BlockStager
{
  public:
    BlockStager() { block_.reserveStandard(); }

    /** Stage one op. */
    template <typename Publish>
    void
    op(const TraceOp &op, Publish &&publish)
    {
        if (block_.ops.size() == TraceBlock::kOps) {
            publishTo(publish);
        }
        block_.ops.push_back(op);
    }

    /** Stage @p n ops, with one insert per block they fill. */
    template <typename Publish>
    void
    ops(const TraceOp *ops, size_t n, Publish &&publish)
    {
        while (n > 0) {
            if (block_.ops.size() == TraceBlock::kOps) {
                publishTo(publish);
            }
            const size_t room = TraceBlock::kOps - block_.ops.size();
            const size_t take = n < room ? n : room;
            block_.ops.insert(block_.ops.end(), ops, ops + take);
            ops += take;
            n -= take;
        }
    }

    /** Stage one branch or kernel-entry event at the current position. */
    template <typename Publish>
    void
    event(TraceBlock::Event::Kind kind, uint64_t value, bool taken,
          Publish &&publish)
    {
        TraceBlock::Event ev;
        ev.pos = static_cast<uint32_t>(block_.ops.size());
        ev.kind = kind;
        ev.taken = taken;
        ev.value = value;
        block_.events.push_back(ev);
        if (block_.events.size() == TraceBlock::kOps) {
            publishTo(publish);
        }
    }

    /** Publish the staged block, if there is one (end of stream, or a
     *  whole block arriving after staged records). */
    template <typename Publish>
    void
    publishTo(Publish &&publish)
    {
        if (block_.empty()) {
            return;
        }
        publish(std::move(block_));
        block_.clear();
        block_.reserveStandard();
    }

  private:
    TraceBlock block_;
};

class TraceSink;

/**
 * Deliver @p block to @p sink record-at-a-time-equivalent: ops between
 * consecutive events go out as onOps spans, events as
 * onBranch/onKernel, in exact program order. This is the bridge from
 * the block-granular handoff path back to the classic streaming
 * interface, and the default TraceSink::onBlock.
 */
void replayBlock(const TraceBlock &block, TraceSink &sink);

/**
 * Consumer of a live trace stream.
 *
 * The probe delivers records in program order. onOps is the batched
 * variant used for runs of ops emitted by one instrumentation call;
 * sinks that only need counts can override it to avoid per-op virtual
 * dispatch. flush() marks end-of-stream: sinks that simulate ahead of a
 * window (the core model) complete their pending work there, and
 * results read before flush() are undefined.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One dynamic op, in program order. */
    virtual void onOp(const TraceOp &op) = 0;

    /** A batch of @p n consecutive ops (default: onOp per record). */
    virtual void
    onOps(const TraceOp *ops, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            onOp(ops[i]);
        }
    }

    /** One conditional branch of the CBP branch trace. */
    virtual void onBranch(const BranchRecord &branch) { (void)branch; }

    /**
     * The probe entered the instrumented kernel registered at @p site
     * (see sitePc()); subsequent ops belong to it. Lets profiling sinks
     * attribute ops without reverse-mapping PCs.
     */
    virtual void onKernel(uint64_t site) { (void)site; }

    /**
     * One whole staging block, with the ownership-transfer option: a
     * sink that moves from @p block takes the span (and its branch and
     * kernel events) without copying — e.g. to simulate it later on
     * another thread.
     * A sink that does NOT move leaves the block with the caller, who
     * reuses its capacity for the next block. The default replays the
     * block through onOps/onBranch/onKernel, so record-at-a-time sinks
     * see exactly the stream they always did.
     */
    virtual void onBlock(TraceBlock &&block) { replayBlock(block, *this); }

    /** End of stream: complete pending work, finalise results. */
    virtual void flush() {}
};

/**
 * A sink that keeps its stream as TraceBlocks: records are staged by
 * BlockStager's rule, and each finished block is handed to take(), in
 * program order. A whole block arriving through onBlock first publishes
 * the stage, then is handed over as it came (the capture of a probe, or
 * a replayed file, keeps its cuts, which are the rule's). Once close()
 * has run, every record throws std::logic_error.
 */
class BlockSink : public TraceSink
{
  public:
    void onOp(const TraceOp &op) final;
    void onOps(const TraceOp *ops, size_t n) final;
    void onBranch(const BranchRecord &branch) final;
    void onKernel(uint64_t site) final;
    void onBlock(TraceBlock &&block) final;

  protected:
    /** @p name identifies the sink in the after-close error. */
    explicit BlockSink(std::string name) : name_(std::move(name)) {}

    /** One finished, non-empty block; the sink may move from it. */
    virtual void take(TraceBlock &&block) = 0;

    /** Hand the staged records, if any, to take(). */
    void publishStage();
    /** publishStage(), then refuse every further record. */
    void close();
    bool closed() const { return closed_; }

  private:
    void requireOpen() const;
    auto publisher()
    {
        return [this](TraceBlock &&block) { take(std::move(block)); };
    }

    BlockStager stage_;
    std::string name_;
    bool closed_ = false;
};

/** Fans one trace stream out to several sinks, in registration order. */
class MuxSink final : public TraceSink
{
  public:
    MuxSink() = default;
    MuxSink(std::initializer_list<TraceSink *> sinks) : sinks_(sinks) {}

    /** Register @p sink (not owned; must outlive the stream). */
    void
    add(TraceSink *sink)
    {
        if (sink != nullptr) {
            sinks_.push_back(sink);
        }
    }

    void
    onOp(const TraceOp &op) override
    {
        for (TraceSink *s : sinks_) {
            s->onOp(op);
        }
    }

    void
    onOps(const TraceOp *ops, size_t n) override
    {
        for (TraceSink *s : sinks_) {
            s->onOps(ops, n);
        }
    }

    void
    onBranch(const BranchRecord &branch) override
    {
        for (TraceSink *s : sinks_) {
            s->onBranch(branch);
        }
    }

    void
    onKernel(uint64_t site) override
    {
        for (TraceSink *s : sinks_) {
            s->onKernel(site);
        }
    }

    void
    flush() override
    {
        for (TraceSink *s : sinks_) {
            s->flush();
        }
    }

  private:
    std::vector<TraceSink *> sinks_;
};

/**
 * Materialising sink: appends both streams to vectors, for batch replay
 * (Core::run, bpred::runTrace, buildSystemTrace) and tests. It keeps
 * everything it is fed; the probe's ProbeConfig caps are the only caps,
 * and the probe counts what they drop.
 */
class VectorSink final : public TraceSink
{
  public:
    void onOp(const TraceOp &op) override { ops_.push_back(op); }

    void
    onOps(const TraceOp *ops, size_t n) override
    {
        ops_.insert(ops_.end(), ops, ops + n);
    }

    void
    onBranch(const BranchRecord &branch) override
    {
        branches_.push_back(branch);
    }

    const std::vector<TraceOp> &ops() const { return ops_; }
    const std::vector<BranchRecord> &branches() const { return branches_; }

  private:
    std::vector<TraceOp> ops_;
    std::vector<BranchRecord> branches_;
};

/**
 * Streaming flat profiler: attributes every op to the most recently
 * entered instrumentation site (the gprof substitute, as a sink). Pair
 * with a full-fidelity stream (ProbeConfig::streaming()) for exact
 * counts; under sampling it profiles the sampled stream.
 */
class SiteProfileSink final : public TraceSink
{
  public:
    void
    onKernel(uint64_t site) override
    {
        slot_ = &counts_[site];
    }

    void
    onOp(const TraceOp &op) override
    {
        (void)op;
        if (slot_ != nullptr) {
            ++*slot_;
        }
    }

    void
    onOps(const TraceOp *ops, size_t n) override
    {
        (void)ops;
        if (slot_ != nullptr) {
            *slot_ += n;
        }
    }

    /** Per-site op counts, keyed by site PC (see profileReport()). */
    const std::unordered_map<uint64_t, uint64_t> &
    siteOps() const
    {
        return counts_;
    }

    void
    clear()
    {
        counts_.clear();
        slot_ = nullptr;
    }

  private:
    std::unordered_map<uint64_t, uint64_t> counts_;
    uint64_t *slot_ = nullptr;
};

} // namespace vepro::trace

#endif // VEPRO_TRACE_SINK_HPP
