/**
 * @file
 * Tests for core::resolveJobs, the TraceBlock handoff contract
 * (replayBlock and the default onBlock) and StreamCore::resetStats, the
 * warm-up path: run the warm-up ops, reset, then measure.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "trace/sink.hpp"
#include "trace/synth.hpp"
#include "uarch/core.hpp"

namespace vepro
{
namespace
{

using trace::BranchRecord;
using trace::TraceBlock;
using trace::TraceOp;

// ---- Shared fixtures -------------------------------------------------

/** Records the exact record sequence it receives, for order checks. */
class OrderSink final : public trace::TraceSink
{
  public:
    void
    onOp(const TraceOp &op) override
    {
        log.push_back("op:" + std::to_string(op.pc));
    }
    void
    onBranch(const BranchRecord &br) override
    {
        log.push_back("br:" + std::to_string(br.pc) +
                      (br.taken ? ":T" : ":N"));
    }
    void
    onKernel(uint64_t site) override
    {
        log.push_back("k:" + std::to_string(site));
    }

    std::vector<std::string> log;
};

// ---- resolveJobs -----------------------------------------------------

TEST(ResolveJobs, PassesExplicitCountsThrough)
{
    EXPECT_EQ(core::resolveJobs(1), 1);
    EXPECT_EQ(core::resolveJobs(3), 3);
    EXPECT_EQ(core::resolveJobs(17), 17);
}

TEST(ResolveJobs, AutoDetectsAtLeastOneThread)
{
    EXPECT_GE(core::resolveJobs(0), 1);
    EXPECT_GE(core::resolveJobs(-4), 1);
    // Auto-detection is stable within a process.
    EXPECT_EQ(core::resolveJobs(0), core::resolveJobs(0));
}

// ---- TraceBlock / replayBlock ----------------------------------------

TEST(TraceBlockReplay, ReconstructsExactProgramOrder)
{
    TraceBlock block;
    for (uint64_t pc = 1; pc <= 5; ++pc) {
        TraceOp op;
        op.pc = pc;
        block.ops.push_back(op);
    }
    // Events at the front, between ops, back-to-back, and at the end.
    block.events.push_back({0, TraceBlock::Event::Kernel, false, 0x900});
    block.events.push_back({2, TraceBlock::Event::Branch, true, 0x10});
    block.events.push_back({2, TraceBlock::Event::Branch, false, 0x11});
    block.events.push_back({5, TraceBlock::Event::Branch, true, 0x12});

    OrderSink sink;
    trace::replayBlock(block, sink);
    const std::vector<std::string> want = {
        "k:2304", "op:1", "op:2", "br:16:T", "br:17:N",
        "op:3",   "op:4", "op:5", "br:18:T"};
    EXPECT_EQ(sink.log, want);
}

TEST(TraceBlockReplay, DefaultOnBlockLeavesBlockReusable)
{
    TraceBlock block;
    TraceOp op;
    op.pc = 7;
    block.ops.push_back(op);

    // OrderSink does not override onBlock: the default replays without
    // taking ownership, so the caller keeps the contents.
    OrderSink sink;
    sink.onBlock(std::move(block));
    EXPECT_EQ(sink.log.size(), 1u);
    EXPECT_EQ(block.ops.size(), 1u);  // NOLINT: reuse-after-move is the API
}

// ---- StreamCore::resetStats ------------------------------------------

TEST(StreamCoreResetStats, CountsOnlyPostResetWork)
{
    trace::SynthConfig synth;
    synth.ops = 30'000;
    const std::vector<TraceOp> ops = trace::synthTrace(synth);
    const size_t cut = 10'000;

    // Reference: the tail only, on a cold core.
    uarch::StreamCore tail_only;
    tail_only.onOps(ops.data() + cut, ops.size() - cut);
    tail_only.flush();

    // Warmed: full stream, counters reset at the cut.
    uarch::StreamCore warmed;
    warmed.onOps(ops.data(), cut);
    warmed.resetStats();
    warmed.onOps(ops.data() + cut, ops.size() - cut);
    warmed.flush();

    // Event counters must match the tail exactly; timing may differ
    // (warm caches/predictor), but never by more than the cold run.
    EXPECT_EQ(warmed.stats().instructions, tail_only.stats().instructions);
    EXPECT_EQ(warmed.stats().condBranches, tail_only.stats().condBranches);
    EXPECT_EQ(warmed.stats().l1dAccesses, tail_only.stats().l1dAccesses);
    EXPECT_GT(warmed.stats().cycles, 0u);
    EXPECT_LE(warmed.stats().l1dMisses, tail_only.stats().l1dMisses);
}

TEST(StreamCoreResetStats, ThrowsAfterFlush)
{
    uarch::StreamCore core;
    core.flush();
    EXPECT_THROW(core.resetStats(), std::logic_error);
}

} // namespace
} // namespace vepro
