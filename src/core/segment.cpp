#include "core/segment.hpp"

#include <algorithm>
#include <vector>

#include "core/experiment.hpp"

namespace vepro::core
{

using trace::TraceBlock;
using uarch::CoreStats;
using uarch::StreamCore;

struct SegmentSim::Impl {
    SegmentSimConfig config;
    std::vector<TraceBlock> blocks;
    CoreStats stitched;
    bool finished = false;
    int segments_used = 0;
    uint64_t warmup_ops = 0;

    explicit Impl(const SegmentSimConfig &cfg) : config(cfg) {}

    /** Simulate blocks [first, last) on a fresh core, with the warmup
     *  prefix [wfirst, first) replayed and discarded beforehand. */
    CoreStats
    runSegment(size_t wfirst, size_t first, size_t last,
               uint64_t *warmup_count) const
    {
        StreamCore core(config.core);
        if (wfirst < first) {
            for (size_t b = wfirst; b < first; ++b) {
                replayBlock(blocks[b], core);
                *warmup_count += blocks[b].ops.size();
            }
            core.resetStats();
        }
        for (size_t b = first; b < last; ++b) {
            replayBlock(blocks[b], core);
        }
        core.flush();
        return core.stats();
    }

    void
    run()
    {
        const size_t nblocks = blocks.size();
        segments_used = static_cast<int>(
            std::min<size_t>(resolveJobs(config.segments),
                             std::max<size_t>(nblocks, 1)));
        const size_t nseg = static_cast<size_t>(segments_used);
        const size_t warm =
            config.warmupBlocks > 0
                ? static_cast<size_t>(config.warmupBlocks)
                : 0;

        // Contiguous even split at block boundaries: segment i covers
        // [i*n/S, (i+1)*n/S) — a pure function of (n, S).
        std::vector<CoreStats> results(nseg);
        std::vector<uint64_t> warm_counts(nseg, 0);
        auto runOne = [&](size_t i) {
            const size_t first = i * nblocks / nseg;
            const size_t last = (i + 1) * nblocks / nseg;
            const size_t wfirst = first >= warm ? first - warm : 0;
            results[i] =
                runSegment(i == 0 ? first : wfirst, first, last,
                           &warm_counts[i]);
        };
        parallelFor(nseg, resolveJobs(config.jobs), runOne);

        // Stitch in segment order: the sum is independent of which
        // thread simulated which segment, and of completion order.
        for (size_t i = 0; i < nseg; ++i) {
            stitched += results[i];
            warmup_ops += warm_counts[i];
        }
        finished = true;
    }
};

SegmentSim::SegmentSim(const SegmentSimConfig &config)
    : BlockSink("SegmentSim"), impl_(std::make_unique<Impl>(config))
{
}

SegmentSim::~SegmentSim() = default;

void
SegmentSim::take(TraceBlock &&block)
{
    impl_->blocks.push_back(std::move(block));
}

void
SegmentSim::flush()
{
    if (impl_->finished) {
        return;
    }
    close();
    impl_->run();
}

const CoreStats &
SegmentSim::stats() const
{
    return impl_->stitched;
}

int
SegmentSim::segmentsUsed() const
{
    return impl_->segments_used;
}

uint64_t
SegmentSim::warmupOps() const
{
    return impl_->warmup_ops;
}

} // namespace vepro::core
