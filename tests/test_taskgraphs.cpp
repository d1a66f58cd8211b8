/**
 * @file
 * Structural tests on the task graphs the encoder models emit: the
 * dependency patterns that produce the paper's scalability shapes must
 * actually be present in the graphs (wavefront edges, raster chains,
 * tile independence, serial spines), not just implied by the curves.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"
#include "sched/scheduler.hpp"
#include "video/generator.hpp"

namespace vepro
{
namespace
{

encoders::EncodeResult
taskedEncode(const char *name, int frames = 4)
{
    video::GeneratorParams p;
    p.width = 256;
    p.height = 128;   // 4x2 superblocks at SB64
    p.frames = frames;
    p.entropy = 4.0;
    p.seed = 77;
    video::Video clip = video::generate("graph", p);
    auto enc = encoders::encoderByName(name);
    encoders::EncodeParams ep;
    ep.crf = enc->crfRange() * 5 / 8;
    ep.preset = enc->presetInverted() ? 2 : 6;
    return enc->encode(clip, ep, {}, true);
}

/** Tasks of a given kind, in id order. */
std::vector<const sched::Task *>
ofKind(const sched::TaskGraph &g, sched::TaskKind kind)
{
    std::vector<const sched::Task *> out;
    for (const sched::Task &t : g.tasks()) {
        if (t.kind == kind) {
            out.push_back(&t);
        }
    }
    return out;
}

TEST(WavefrontGraph, SuperblocksDependLeftAndAboveRight)
{
    auto r = taskedEncode("SVT-AV1");
    auto sbs = ofKind(r.taskGraph, sched::TaskKind::Superblock);
    ASSERT_FALSE(sbs.empty());

    // Index frame-0 superblocks by (row, col).
    std::map<std::pair<int, int>, const sched::Task *> grid;
    for (const sched::Task *t : sbs) {
        if (t->frame == 0) {
            grid[{t->row, t->col}] = t;
        }
    }
    ASSERT_EQ(grid.size(), 8u) << "4x2 superblock grid expected";

    // Every non-first-column superblock depends on its left neighbour.
    for (const auto &[rc, t] : grid) {
        auto [row, col] = rc;
        if (col > 0) {
            int left = grid.at({row, col - 1})->id;
            EXPECT_NE(std::find(t->deps.begin(), t->deps.end(), left),
                      t->deps.end())
                << "missing left dep at (" << row << "," << col << ")";
        }
        if (row > 0) {
            // Wavefront: depends on above-right (or last column).
            int cc = std::min(col + 1, 3);
            int above = grid.at({row - 1, cc})->id;
            EXPECT_NE(std::find(t->deps.begin(), t->deps.end(), above),
                      t->deps.end())
                << "missing wavefront dep at (" << row << "," << col << ")";
        }
    }
}

TEST(WavefrontGraph, FramesPipelineThroughFilterRows)
{
    auto r = taskedEncode("SVT-AV1");
    auto filters = ofKind(r.taskGraph, sched::TaskKind::Filter);
    ASSERT_FALSE(filters.empty());
    // A frame-1 superblock in row 0 must depend on a frame-0 filter row,
    // not on the whole frame.
    bool found_cross_frame_dep = false;
    for (const sched::Task &t : r.taskGraph.tasks()) {
        if (t.kind != sched::TaskKind::Superblock || t.frame != 1 ||
            t.row != 0) {
            continue;
        }
        for (int dep : t.deps) {
            const sched::Task &d = r.taskGraph.task(dep);
            found_cross_frame_dep |=
                d.kind == sched::TaskKind::Filter && d.frame == 0;
        }
    }
    EXPECT_TRUE(found_cross_frame_dep);
}

TEST(FrameParallelGraph, RasterChainWithinFrame)
{
    auto r = taskedEncode("x264");
    // Within one frame, each superblock (after the first) depends on the
    // immediately preceding one: x264 is serial inside a frame.
    std::map<int, std::vector<const sched::Task *>> frames;
    for (const sched::Task &t : r.taskGraph.tasks()) {
        if (t.kind == sched::TaskKind::Superblock) {
            frames[t.frame].push_back(&t);
        }
    }
    ASSERT_GE(frames.size(), 2u);
    for (const auto &[frame, tasks] : frames) {
        for (size_t i = 1; i < tasks.size(); ++i) {
            EXPECT_NE(std::find(tasks[i]->deps.begin(), tasks[i]->deps.end(),
                                tasks[i - 1]->id),
                      tasks[i]->deps.end())
                << "frame " << frame << " superblock " << i
                << " must chain to its predecessor";
        }
    }
}

TEST(TileParallelGraph, TilesAreMutuallyIndependent)
{
    auto r = taskedEncode("Libaom");
    // Frame-0 superblocks partition into tiles; no dependency may cross
    // tiles within the frame.
    std::map<int, std::set<int>> tile_ids;  // tile -> task ids (frame 0)
    auto tile_of = [](const sched::Task &t) {
        return (t.row >= 1 ? 2 : 0) + (t.col >= 2 ? 1 : 0);
    };
    for (const sched::Task &t : r.taskGraph.tasks()) {
        if (t.kind == sched::TaskKind::Superblock && t.frame == 0) {
            tile_ids[tile_of(t)].insert(t.id);
        }
    }
    ASSERT_EQ(tile_ids.size(), 4u);
    for (const sched::Task &t : r.taskGraph.tasks()) {
        if (t.kind != sched::TaskKind::Superblock || t.frame != 0) {
            continue;
        }
        for (int dep : t.deps) {
            const sched::Task &d = r.taskGraph.task(dep);
            if (d.kind == sched::TaskKind::Superblock && d.frame == 0) {
                EXPECT_EQ(tile_of(t), tile_of(d))
                    << "cross-tile dependency inside a frame";
            }
        }
    }
}

TEST(SerialSpineGraph, OneSpinePerFrameChained)
{
    auto r = taskedEncode("x265");
    auto spines = ofKind(r.taskGraph, sched::TaskKind::Serial);
    ASSERT_EQ(spines.size(), 4u) << "one spine per frame";
    for (size_t i = 1; i < spines.size(); ++i) {
        EXPECT_NE(std::find(spines[i]->deps.begin(), spines[i]->deps.end(),
                            spines[i - 1]->id),
                  spines[i]->deps.end())
            << "spines must serialise across frames";
    }
    // The spine dominates the frame's weight.
    uint64_t spine_weight = 0, total = r.taskGraph.totalWeight();
    for (const sched::Task *t : spines) {
        spine_weight += t->weight;
    }
    EXPECT_GT(spine_weight, total * 6 / 10)
        << "x265's primary thread must carry most of the work";
}

TEST(LookaheadGraph, PipelinesAcrossFrames)
{
    auto r = taskedEncode("x264");
    auto lookaheads = ofKind(r.taskGraph, sched::TaskKind::Lookahead);
    ASSERT_GE(lookaheads.size(), 3u);
    for (size_t i = 1; i < lookaheads.size(); ++i) {
        EXPECT_NE(std::find(lookaheads[i]->deps.begin(),
                            lookaheads[i]->deps.end(),
                            lookaheads[i - 1]->id),
                  lookaheads[i]->deps.end());
    }
}

TEST(SystemTrace, BlockingWaitsEmitNoSpins)
{
    auto r = taskedEncode("SVT-AV1");
    core::SystemTraceConfig cfg;
    cfg.pollingWaits = false;
    // The encode recorded no ops: only the schedule shapes the trace.
    auto trace = core::buildSystemTrace({}, r.taskGraph, 8, cfg);
    for (const auto &op : trace) {
        EXPECT_FALSE(op.foreign);
        EXPECT_NE(op.addr, 0x7f000000ULL);
    }
}

TEST(SystemTrace, SpinVolumeGrowsWithIdleness)
{
    auto r = taskedEncode("x265");
    trace::ProbeConfig pc;
    pc.ops = trace::SamplePlan::all(200'000);
    // Re-encode with op collection for trace linkage.
    video::GeneratorParams p;
    p.width = 256;
    p.height = 128;
    p.frames = 4;
    p.entropy = 4.0;
    p.seed = 77;
    video::Video clip = video::generate("graph", p);
    auto enc = encoders::encoderByName("x265");
    encoders::EncodeParams ep;
    ep.crf = 39;
    ep.preset = 2;
    trace::VectorSink recorded;
    auto rr = enc->encode(clip, ep, pc, true, &recorded);

    auto spins_at = [&](int threads) {
        core::SystemTraceConfig cfg;
        cfg.spinDuty = 0.05;
        auto trace = core::buildSystemTrace(recorded.ops(), rr.taskGraph,
                                            threads, cfg);
        size_t spins = 0;
        for (const auto &op : trace) {
            spins += op.foreign;
        }
        return spins;
    };
    size_t s2 = spins_at(2), s8 = spins_at(8);
    EXPECT_GT(s8, s2) << "more idle cores, more spinning";
    EXPECT_EQ(spins_at(1), 0u);
}

TEST(Scalability, EstimatedSecondsScaleWithMakespan)
{
    auto r = taskedEncode("Libaom");
    auto curve = core::scalabilityCurve(r, 4);
    ASSERT_EQ(curve.size(), 4u);
    EXPECT_GT(curve[0].estSeconds, 0.0);
    for (size_t i = 1; i < curve.size(); ++i) {
        EXPECT_LE(curve[i].estSeconds, curve[i - 1].estSeconds + 1e-9);
    }
    EXPECT_NEAR(curve[0].estSeconds / curve[3].estSeconds,
                curve[3].speedup, curve[3].speedup * 0.01);
}

} // namespace
} // namespace vepro
