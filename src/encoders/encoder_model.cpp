#include "encoders/encoder_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "codec/mc.hpp"
#include "codec/sad.hpp"
#include "video/metrics.hpp"

namespace vepro::encoders
{

using codec::FrameCodec;
using codec::ToolConfig;
using sched::Task;
using sched::TaskKind;
using trace::OpClass;
using trace::Probe;

double
EncoderModel::slowness(int preset) const
{
    int range = presetRange();
    preset = std::clamp(preset, 0, range);
    double t = static_cast<double>(preset) / range;
    return presetInverted() ? t : 1.0 - t;
}

ToolConfig
EncoderModel::toolConfig(const EncodeParams &params) const
{
    ToolConfig tc = spec_.tools(slowness(params.preset));
    codec::applyQuality(tc, params.crf, crfRange());
    return tc;
}

void
lookaheadPass(const video::Frame &cur, const video::Frame &prev,
              uint64_t v_cur, uint64_t v_prev, bool thorough)
{
    // Half-resolution downscale of both luma planes followed by 16x16
    // diamond motion estimation — the shape of x264/x265's lookahead.
    const int hw = cur.width() / 2, hh = cur.height() / 2;
    video::Plane half_cur(hw, hh), half_prev(hw, hh);
    auto downscale = [](const video::Plane &src, video::Plane &dst) {
        for (int y = 0; y < dst.height(); ++y) {
            const uint8_t *r0 = src.row(2 * y);
            const uint8_t *r1 = src.row(2 * y + 1);
            uint8_t *out = dst.row(y);
            for (int x = 0; x < dst.width(); ++x) {
                out[x] = static_cast<uint8_t>(
                    (r0[2 * x] + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1] + 2) >> 2);
            }
        }
    };
    downscale(cur.y(), half_cur);
    downscale(prev.y(), half_prev);

    if (Probe *p = trace::currentProbe()) {
        static const uint64_t site = trace::sitePc("encoders.lookahead.scale");
        trace::emitKernel(*p, site, 10, [&](auto &e) {
            uint64_t vecs = static_cast<uint64_t>(hw) * hh / 16;
            for (uint64_t i = 0; i < vecs; ++i) {
                e.mem(OpClass::SimdLoad, v_cur + i * 64);
                e.mem(OpClass::SimdLoad, v_cur + i * 64 + 32);
                e.ops(OpClass::SimdAlu, 3, 1, 2);
                e.mem(OpClass::SimdStore, v_cur + (1 << 22) + i * 32, 1);
            }
            e.loopBranches(vecs);
        });
    }

    codec::PelView cur_view{half_cur.data(), half_cur.stride(),
                            v_cur + (1 << 22)};
    codec::PelView prev_view{half_prev.data(), half_prev.stride(),
                             v_prev + (1 << 22)};
    codec::MeConfig me;
    me.range = 8;
    me.subpel = false;
    for (int by = 0; by + 16 <= hh; by += 16) {
        for (int bx = 0; bx + 16 <= hw; bx += 16) {
            codec::motionSearch(cur_view, prev_view, hw, hh, bx, by, 16, 16,
                                {}, me);
        }
    }

    if (thorough) {
        // Full-resolution refinement pass (slice-type decision + adaptive
        // quantisation analysis, as x265's heavier lookahead performs).
        codec::PelView full_cur{cur.y().data(), cur.y().stride(), v_cur};
        codec::PelView full_prev{prev.y().data(), prev.y().stride(), v_prev};
        codec::MeConfig fme;
        fme.range = 10;
        fme.subpel = false;
        const int fw = cur.width(), fh = cur.height();
        for (int by = 0; by + 8 <= fh; by += 8) {
            for (int bx = 0; bx + 8 <= fw; bx += 8) {
                codec::motionSearch(full_cur, full_prev, fw, fh, bx, by, 8,
                                    8, {}, fme);
                codec::satd(full_cur.sub(bx, by), full_prev.sub(bx, by), 8,
                            8);
            }
        }
    }
}

namespace
{

/** Mutable bookkeeping shared by the per-model task-graph builders. */
struct TaskBuild {
    bool enabled = false;
    sched::TaskGraph graph;

    int sb_rows = 0, sb_cols = 0;
    std::vector<int> cur_sb;          ///< Task id per (row, col), this frame.
    std::vector<int> prev_filter_row; ///< Filter-row task ids, prev frame.
    std::vector<int> prev_frame_all;  ///< All task ids of prev frame (tiles).
    int prev_lookahead = -1;
    int prev_spine = -1;
    int last_raster = -1;             ///< Previous SB task (serial chains).
    int tile_last[4] = {-1, -1, -1, -1};

    uint64_t spine_weight = 0;
    size_t spine_op_begin = 0;

    int
    tileOf(int r, int c) const
    {
        return (r >= sb_rows / 2 ? 2 : 0) + (c >= sb_cols / 2 ? 1 : 0);
    }
};

} // namespace

EncodeResult
EncoderModel::encode(const video::Video &video, const EncodeParams &params,
                     const trace::ProbeConfig &probe_config,
                     bool build_tasks, trace::TraceSink *sink) const
{
    if (video.frameCount() == 0) {
        throw std::invalid_argument("encode: empty video");
    }
    if ((probe_config.ops != trace::SamplePlan{} ||
         probe_config.collectBranches) &&
        sink == nullptr) {
        throw std::invalid_argument("encode: recording a trace needs a sink");
    }
    EncodeResult result;
    result.encoder = name();
    result.params = params;

    Probe probe(probe_config);
    probe.setSink(sink);
    trace::ProbeScope scope(&probe);

    ToolConfig tc = toolConfig(params);
    FrameCodec fc(tc, video.width(), video.height(), &probe);
    const uint64_t v_la_cur = probe.allocRegion(1 << 23);
    const uint64_t v_la_prev = probe.allocRegion(1 << 23);

    const ThreadModel tm = threadModel();
    const int rows = fc.sbRows();
    const int cols = fc.sbCols();
    const int sb = tc.superblockSize;

    TaskBuild tb;
    tb.enabled = build_tasks;
    tb.sb_rows = rows;
    tb.sb_cols = cols;
    tb.cur_sb.assign(static_cast<size_t>(rows) * cols, -1);
    tb.prev_filter_row.assign(static_cast<size_t>(rows), -1);

    double psnr_sum = 0.0;
    uint64_t total_bits = 0;

    const auto t0 = std::chrono::steady_clock::now();
    for (int f = 0; f < video.frameCount(); ++f) {
        const video::Frame &frame = video.frame(f);

        // Lookahead pre-analysis (frame-parallel and serial-spine models).
        if ((tm == ThreadModel::FrameParallel ||
             tm == ThreadModel::SerialSpine) && f > 0) {
            uint64_t ops_before = probe.totalOps();
            size_t op_before = probe.recordedOps();
            lookaheadPass(frame, video.frame(f - 1), v_la_cur, v_la_prev,
                          tm == ThreadModel::SerialSpine);
            if (tb.enabled) {
                Task t;
                t.kind = TaskKind::Lookahead;
                t.weight = std::max<uint64_t>(1, probe.totalOps() - ops_before);
                t.frame = f;
                t.opBegin = op_before;
                t.opEnd = probe.recordedOps();
                if (tb.prev_lookahead >= 0) {
                    t.deps.push_back(tb.prev_lookahead);
                }
                tb.prev_lookahead = tb.graph.addTask(std::move(t));
            }
        }

        fc.beginFrame(frame, f == 0);
        tb.last_raster = -1;
        std::fill(tb.tile_last, tb.tile_last + 4, -1);
        tb.spine_weight = 0;
        tb.spine_op_begin = probe.recordedOps();

        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                uint64_t ops_before = probe.totalOps();
                size_t op_before = probe.recordedOps();
                fc.encodeSuperblock(c * sb, r * sb);
                uint64_t weight =
                    std::max<uint64_t>(1, probe.totalOps() - ops_before);

                if (!tb.enabled) {
                    continue;
                }
                if (tm == ThreadModel::SerialSpine) {
                    tb.spine_weight += weight;
                    continue;
                }
                Task t;
                t.kind = TaskKind::Superblock;
                t.weight = weight;
                t.frame = f;
                t.row = r;
                t.col = c;
                t.opBegin = op_before;
                t.opEnd = probe.recordedOps();
                switch (tm) {
                  case ThreadModel::Wavefront: {
                    // SVT-style: wavefront within the frame, pipelined
                    // against the previous frame's filtered rows.
                    if (c > 0) {
                        t.deps.push_back(
                            tb.cur_sb[static_cast<size_t>(r) * cols + c - 1]);
                    }
                    if (r > 0) {
                        int cc = std::min(c + 1, cols - 1);
                        t.deps.push_back(
                            tb.cur_sb[static_cast<size_t>(r - 1) * cols + cc]);
                    }
                    int fr = std::min(r + 1, rows - 1);
                    if (tb.prev_filter_row[static_cast<size_t>(fr)] >= 0) {
                        t.deps.push_back(
                            tb.prev_filter_row[static_cast<size_t>(fr)]);
                    }
                    break;
                  }
                  case ThreadModel::FrameParallel: {
                    // x264-style: strictly serial within the frame,
                    // overlapped across frames with a two-row lag.
                    if (tb.last_raster >= 0) {
                        t.deps.push_back(tb.last_raster);
                    }
                    // Frame-thread lag scales with the motion-vector
                    // range, as x264's frame threading requires.
                    int lag = std::max(2, rows / 6);
                    int fr = std::min(r + lag, rows - 1);
                    if (tb.prev_filter_row[static_cast<size_t>(fr)] >= 0) {
                        t.deps.push_back(
                            tb.prev_filter_row[static_cast<size_t>(fr)]);
                    }
                    if (tb.prev_lookahead >= 0 && tb.last_raster < 0) {
                        t.deps.push_back(tb.prev_lookahead);
                    }
                    break;
                  }
                  case ThreadModel::TileParallel: {
                    // libaom-style: four independent tiles, frames serial.
                    int tile = tb.tileOf(r, c);
                    if (tb.tile_last[tile] >= 0) {
                        t.deps.push_back(tb.tile_last[tile]);
                    } else {
                        t.deps = tb.prev_frame_all;
                    }
                    break;
                  }
                  default:
                    break;
                }
                int id = tb.graph.addTask(std::move(t));
                tb.cur_sb[static_cast<size_t>(r) * cols + c] = id;
                tb.last_raster = id;
                tb.tile_last[tb.tileOf(r, c)] = id;
            }
        }

        // Serial-spine models collapse the frame's block work into one
        // main-thread task.
        int spine_id = -1;
        if (tb.enabled && tm == ThreadModel::SerialSpine) {
            Task t;
            t.kind = TaskKind::Serial;
            t.weight = std::max<uint64_t>(1, tb.spine_weight);
            t.frame = f;
            t.opBegin = tb.spine_op_begin;
            t.opEnd = probe.recordedOps();
            if (tb.prev_spine >= 0) {
                t.deps.push_back(tb.prev_spine);
            }
            if (tb.prev_lookahead >= 0) {
                t.deps.push_back(tb.prev_lookahead);
            }
            spine_id = tb.graph.addTask(std::move(t));
            tb.prev_spine = spine_id;
        }

        uint64_t filter_ops_begin = probe.totalOps();
        size_t filter_op_begin = probe.recordedOps();
        codec::EncodeStats frame_stats = fc.endFrame();
        uint64_t filter_weight =
            std::max<uint64_t>(rows, probe.totalOps() - filter_ops_begin);
        size_t filter_op_end = probe.recordedOps();

        result.stats += frame_stats;
        total_bits += frame_stats.bits;
        psnr_sum += video::psnr(frame.y(), fc.recon().y());

        if (tb.enabled) {
            // Split the filter + reference-update work into per-row
            // helper tasks.
            std::vector<int> filter_ids(static_cast<size_t>(rows), -1);
            std::vector<int> frame_all;
            uint64_t per_row = filter_weight / rows;
            size_t ops_per_row =
                (filter_op_end - filter_op_begin) / static_cast<size_t>(rows);
            for (int r = 0; r < rows; ++r) {
                Task t;
                t.kind = TaskKind::Filter;
                t.weight = std::max<uint64_t>(1, per_row);
                t.frame = f;
                t.row = r;
                t.opBegin = filter_op_begin + static_cast<size_t>(r) * ops_per_row;
                t.opEnd = r + 1 == rows
                              ? filter_op_end
                              : filter_op_begin +
                                    static_cast<size_t>(r + 1) * ops_per_row;
                if (tm == ThreadModel::SerialSpine) {
                    t.deps.push_back(spine_id);
                } else if (tm == ThreadModel::TileParallel) {
                    for (int last : tb.tile_last) {
                        if (last >= 0) {
                            t.deps.push_back(last);
                        }
                    }
                } else {
                    // Wavefront / frame-parallel: a filter row needs its
                    // own and the next superblock row reconstructed.
                    for (int rr = r; rr <= std::min(r + 1, rows - 1); ++rr) {
                        for (int c = 0; c < cols; ++c) {
                            int id = tb.cur_sb[static_cast<size_t>(rr) * cols + c];
                            if (id >= 0) {
                                t.deps.push_back(id);
                            }
                        }
                    }
                }
                std::sort(t.deps.begin(), t.deps.end());
                t.deps.erase(std::unique(t.deps.begin(), t.deps.end()),
                             t.deps.end());
                filter_ids[static_cast<size_t>(r)] = tb.graph.addTask(std::move(t));
                frame_all.push_back(filter_ids[static_cast<size_t>(r)]);
            }
            tb.prev_filter_row = filter_ids;
            tb.prev_frame_all = std::move(frame_all);
            std::fill(tb.cur_sb.begin(), tb.cur_sb.end(), -1);
        }
    }
    const auto t1 = std::chrono::steady_clock::now();

    result.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    result.instructions = probe.totalOps();
    result.mix = probe.mix();
    result.psnrDb = psnr_sum / video.frameCount();
    double duration = video.durationSeconds();
    result.bitrateKbps =
        duration > 0 ? static_cast<double>(total_bits) / duration / 1000.0
                     : 0.0;
    result.stats.bits = total_bits;
    result.branchTraceInstructions = probe.branchTraceOpSpan();
    result.droppedOps = probe.droppedOps();
    result.droppedBranches = probe.droppedBranches();
    if (sink != nullptr) {
        probe.flushToSink();
        sink->flush();
    }
    if (tb.enabled) {
        result.taskGraph = std::move(tb.graph);
    }
    return result;
}

} // namespace vepro::encoders
