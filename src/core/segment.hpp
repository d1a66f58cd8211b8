#ifndef VEPRO_CORE_SEGMENT_HPP
#define VEPRO_CORE_SEGMENT_HPP

/**
 * @file
 * Segment-parallel core simulation: split one trace at block boundaries
 * into N segments, simulate the segments concurrently on
 * core::parallelFor, and stitch the statistics deterministically in
 * segment order.
 *
 * A fused StreamCore runs at the speed of one core model. SegmentSim
 * breaks that wall: it captures the trace as a sequence of TraceBlocks
 * (a trace::BlockSink: whole blocks are taken via the onBlock move path,
 * so capture adds no copying, and records are staged by the probe's own
 * rule), then simulates N contiguous segments concurrently, each on a
 * private StreamCore.
 *
 * Every segment after the first replays a configurable warmup prefix —
 * the last `warmupBlocks` blocks of the preceding segment — before its
 * own span, so caches and the TAGE predictor are warm at the
 * measurement boundary; the prefix's counters are then discarded with
 * StreamCore::resetStats(). Stitched counters are exact where the
 * simulation is history-free (instructions, retiring slots, conditional
 * branches, L1D accesses) and carry a warmup-bounded error elsewhere
 * (cycles, miss and mispredict counts): the error shrinks as
 * warmupBlocks grows and collapses to zero at segments=1, which is
 * bit-identical to a sequential StreamCore run. The residual floor is
 * the boundary drain bubble — each segment starts from an empty
 * pipeline window. See DESIGN.md §13 for the bound.
 *
 * Determinism: segment boundaries depend only on the block sequence and
 * the segment count, and the block sequence only on the records (one
 * staging rule cuts them, whether a probe, a TraceFile replay or a
 * MuxSink delivers them). Each segment's simulation is single-threaded
 * and self-contained, and stitching sums per-segment stats in segment
 * order — so the result is identical across runs, thread counts,
 * scheduling and delivery paths, for a fixed (trace, segments,
 * warmupBlocks).
 */

#include <cstdint>
#include <memory>

#include "trace/sink.hpp"
#include "uarch/core.hpp"

namespace vepro::core
{

/** Configuration of one segment-parallel run. */
struct SegmentSimConfig {
    uarch::CoreConfig core;
    /**
     * Segment count. 0 = auto (one per available hardware thread, via
     * resolveJobs); clamped to the number of captured blocks.
     * 1 = sequential, bit-identical to a plain StreamCore.
     */
    int segments = 0;
    /** Warmup prefix replayed before each segment (in 4096-op
     *  TraceBlocks); counters of the prefix are discarded. */
    int warmupBlocks = 8;
    /** Worker threads for the segment loop. 0 = auto; parallelFor
     *  clamps it to the segment count. Thread count never changes the
     *  stitched result. */
    int jobs = 0;
};

/**
 * Trace sink running the segment-parallel simulation described in the
 * file docs. Feed it a trace (directly from a Probe, from a FileSource,
 * or as records), then flush(); stats() holds the stitched result. A
 * segment that throws on a worker rethrows from flush() on the caller's
 * thread, and a record delivered after flush() throws std::logic_error.
 *
 * Capture materialises the trace (O(trace length) memory, in blocks) —
 * the price of simulating the middle of the trace before its start has
 * finished.
 */
class SegmentSim final : public trace::BlockSink
{
  public:
    explicit SegmentSim(const SegmentSimConfig &config);
    ~SegmentSim() override;

    SegmentSim(const SegmentSim &) = delete;
    SegmentSim &operator=(const SegmentSim &) = delete;

    /** Run the segments and stitch the statistics. Idempotent. */
    void flush() override;

    /** Stitched whole-trace statistics; valid once flush() has run. */
    const uarch::CoreStats &stats() const;

    /** Segments actually simulated (after clamping); valid post-flush. */
    int segmentsUsed() const;
    /** Total warmup ops replayed and discarded across segments. */
    uint64_t warmupOps() const;

  private:
    /** Keeps the block (moves it into the capture). */
    void take(trace::TraceBlock &&block) override;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace vepro::core

#endif // VEPRO_CORE_SEGMENT_HPP
