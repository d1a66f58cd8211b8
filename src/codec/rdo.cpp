#include "codec/rdo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "codec/loopfilter.hpp"
#include "codec/sad.hpp"
#include "codec/transform.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::emitKernel;
using trace::sitePc;

EncodeStats &
EncodeStats::operator+=(const EncodeStats &o)
{
    bits += o.bits;
    leafEvals += o.leafEvals;
    modeEvals += o.modeEvals;
    meCandidates += o.meCandidates;
    partitionNodes += o.partitionNodes;
    prunes += o.prunes;
    leafCommits += o.leafCommits;
    return *this;
}

std::vector<BlockRect>
partitionRects(PartitionMode mode, const BlockRect &r)
{
    const int hw = r.w / 2, hh = r.h / 2;
    switch (mode) {
      case PartitionMode::None:
        return {r};
      case PartitionMode::Split:
        return {{r.x, r.y, hw, hh},
                {r.x + hw, r.y, r.w - hw, hh},
                {r.x, r.y + hh, hw, r.h - hh},
                {r.x + hw, r.y + hh, r.w - hw, r.h - hh}};
      case PartitionMode::Horz:
        return {{r.x, r.y, r.w, hh}, {r.x, r.y + hh, r.w, r.h - hh}};
      case PartitionMode::Vert:
        return {{r.x, r.y, hw, r.h}, {r.x + hw, r.y, r.w - hw, r.h}};
      case PartitionMode::HorzA:
        return {{r.x, r.y, hw, hh},
                {r.x + hw, r.y, r.w - hw, hh},
                {r.x, r.y + hh, r.w, r.h - hh}};
      case PartitionMode::HorzB:
        return {{r.x, r.y, r.w, hh},
                {r.x, r.y + hh, hw, r.h - hh},
                {r.x + hw, r.y + hh, r.w - hw, r.h - hh}};
      case PartitionMode::VertA:
        return {{r.x, r.y, hw, hh},
                {r.x, r.y + hh, hw, r.h - hh},
                {r.x + hw, r.y, r.w - hw, r.h}};
      case PartitionMode::VertB:
        return {{r.x, r.y, hw, r.h},
                {r.x + hw, r.y, r.w - hw, hh},
                {r.x + hw, r.y + hh, r.w - hw, r.h - hh}};
      case PartitionMode::Horz4: {
        int qh = r.h / 4;
        return {{r.x, r.y, r.w, qh},
                {r.x, r.y + qh, r.w, qh},
                {r.x, r.y + 2 * qh, r.w, qh},
                {r.x, r.y + 3 * qh, r.w, r.h - 3 * qh}};
      }
      case PartitionMode::Vert4: {
        int qw = r.w / 4;
        return {{r.x, r.y, qw, r.h},
                {r.x + qw, r.y, qw, r.h},
                {r.x + 2 * qw, r.y, qw, r.h},
                {r.x + 3 * qw, r.y, r.w - 3 * qw, r.h}};
      }
      default:
        throw std::invalid_argument("partitionRects: bad mode");
    }
}

bool
partitionAllowed(PartitionMode mode, const BlockRect &r,
                 const ToolConfig &config)
{
    if (!(config.partitionMask & partitionBit(mode))) {
        return false;
    }
    if (mode == PartitionMode::None) {
        return true;
    }
    if (mode == PartitionMode::Split) {
        if (r.w < 2 * config.minBlockSize || r.h < 2 * config.minBlockSize) {
            return false;
        }
    }
    // Extended (AB / 4-way) partitions only exist on square blocks, as in
    // AV1.
    if (mode >= PartitionMode::HorzA && r.w != r.h) {
        return false;
    }
    // Every sub-rectangle must be codable: at least 4x4, multiple of 4.
    for (const BlockRect &s : partitionRects(mode, r)) {
        if (s.w < 4 || s.h < 4 || (s.w % 4) != 0 || (s.h % 4) != 0) {
            return false;
        }
    }
    return true;
}

namespace
{

/** Largest power-of-two transform size dividing both dimensions. */
int
txSizeFor(int w, int h)
{
    int t = kMaxTxSize;
    while (t > 4 && ((w % t) != 0 || (h % t) != 0)) {
        t >>= 1;
    }
    return t;
}

/**
 * Flip an n x n residual tile in place: type 1 reverses each row, type 2
 * reverses the row order. These are the cheap stand-ins for the ADST
 * transform family (a flip changes which edge the basis decays toward).
 */
void
flipTile(int16_t *tile, int n, int type)
{
    if (type == 1) {
        for (int y = 0; y < n; ++y) {
            std::reverse(tile + y * n, tile + (y + 1) * n);
        }
    } else if (type == 2) {
        for (int y = 0; y < n / 2; ++y) {
            std::swap_ranges(tile + y * n, tile + (y + 1) * n,
                             tile + (n - 1 - y) * n);
        }
    }
}

/** Approximate syntax bits for signalling one of @p n choices. */
double
choiceBits(int n)
{
    return n > 1 ? std::log2(static_cast<double>(n)) : 0.0;
}

/** Approximate bits for a signed MV component delta. */
double
mvComponentBits(int delta)
{
    int mag = std::abs(delta);
    return 1.0 + 2.0 * std::log2(1.0 + mag);
}

} // namespace

void
applyQuality(ToolConfig &config, int crf, int range)
{
    config.qIndex = std::clamp(crf, 0, range);
    config.qRange = range;
}

FrameCodec::FrameCodec(const ToolConfig &config, int width, int height,
                       trace::Probe *probe)
    : config_(config),
      width_(width),
      height_(height),
      quant_(config.qIndex, config.qRange),
      lambda_(quant_.lambda() * config.lambdaScale),
      probe_(probe),
      recon_(width, height),
      ref_(width, height),
      mv_cols_((width + 7) / 8),
      mv_rows_((height + 7) / 8),
      mv_field_(static_cast<size_t>(mv_cols_) * mv_rows_),
      res_(64 * 64),
      coeff_(64 * 64),
      levels_(64 * 64),
      res2_(64 * 64),
      pred_(64 * 64),
      pred2_(64 * 64)
{
    if (width < 16 || height < 16) {
        throw std::invalid_argument("FrameCodec: frame too small");
    }
    const size_t luma = static_cast<size_t>(width) * height;
    auto alloc = [&](size_t size) -> uint64_t {
        return probe_ ? probe_->allocRegion(size) : 0;
    };
    v_src_ = alloc(luma * 3 / 2);
    v_recon_ = alloc(luma * 3 / 2);
    v_ref_ = alloc(luma * 3 / 2);
    v_res_ = alloc(64 * 64 * 2);
    v_coeff_ = alloc(64 * 64 * 4);
    v_levels_ = alloc(64 * 64 * 4);
    v_pred_ = alloc(64 * 64 * 2);
    v_ctx_ = alloc(4096);
    v_stream_ = alloc(1 << 20);
    v_modeinfo_ = alloc(static_cast<size_t>(mv_cols_) * mv_rows_ * 64);
    stream_ = Bitstream(v_stream_);
}

void
FrameCodec::control(uint64_t site, int units, const BlockRect &r)
{
    if (Probe *p = currentProbe()) {
        uint64_t spread = v_modeinfo_ +
            (static_cast<uint64_t>(r.y / 8) * mv_cols_ +
             static_cast<uint64_t>(r.x / 8)) * 64;
        trace::emitControl(*p, site, units, v_ctx_ + 1024, spread, 16);
    }
}

void
FrameCodec::smoothPrediction(PelViewMut pred, int w, int h, int variant)
{
    // 3-tap horizontal (variant 1) or vertical (variant 2) smoothing,
    // the shape of AV1's smooth interpolation filters.
    if (variant == 1) {
        for (int y = 0; y < h; ++y) {
            uint8_t *row = pred.row(y);
            int prev = row[0];
            for (int x = 1; x + 1 < w; ++x) {
                int cur = row[x];
                row[x] = static_cast<uint8_t>((prev + 2 * cur + row[x + 1] + 2) >> 2);
                prev = cur;
            }
        }
    } else {
        for (int x = 0; x < w; ++x) {
            int prev = pred.row(0)[x];
            for (int y = 1; y + 1 < h; ++y) {
                int cur = pred.row(y)[x];
                pred.row(y)[x] = static_cast<uint8_t>(
                    (prev + 2 * cur + pred.row(y + 1)[x] + 2) >> 2);
                prev = cur;
            }
        }
    }
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.interp_smooth");
        emitKernel(*p, site, 10, [&](auto &e) {
            int chunks = std::max(1, w / 32);
            for (int y = 0; y < h; ++y) {
                for (int c = 0; c < chunks; ++c) {
                    e.mem(OpClass::SimdLoad, pred.vaddr + static_cast<uint64_t>(y) * pred.stride + c * 32);
                    e.ops(OpClass::SimdAlu, 3, 1);
                    e.mem(OpClass::SimdStore, pred.vaddr + static_cast<uint64_t>(y) * pred.stride + c * 32, 1);
                }
            }
            e.loopBranches(static_cast<uint64_t>((h + 3) / 4));
        });
    }
}

MotionVector
FrameCodec::mvPredictor(const BlockRect &r) const
{
    int cx = r.x / 8, cy = r.y / 8;
    if (cx > 0) {
        return mv_field_[static_cast<size_t>(cy) * mv_cols_ + cx - 1];
    }
    if (cy > 0) {
        return mv_field_[static_cast<size_t>(cy - 1) * mv_cols_ + cx];
    }
    return {};
}

void
FrameCodec::storeMv(const BlockRect &r, MotionVector mv)
{
    for (int y = r.y / 8; y < (r.y + r.h + 7) / 8 && y < mv_rows_; ++y) {
        for (int x = r.x / 8; x < (r.x + r.w + 7) / 8 && x < mv_cols_; ++x) {
            mv_field_[static_cast<size_t>(y) * mv_cols_ + x] = mv;
        }
    }
}

double
FrameCodec::costFast(const PelView &src_blk, const PelView &pred_blk,
                     const BlockRect &r, double mode_bits)
{
    uint64_t d = satd(src_blk, pred_blk, r.w, r.h);
    // Rate estimate: residual energy over the quantiser step approximates
    // the number of significant levels to code.
    double rate = mode_bits + static_cast<double>(d) / (quant_.step() * 4.0);
    // SATD is on the SAD scale; square-ish it onto the SSE scale used by
    // lambda. The constant keeps fast and full costs comparable.
    double dist = static_cast<double>(d) * quant_.step() * 0.9;
    return dist + lambda_ * rate;
}

double
FrameCodec::costWithTransform(const PelView &src_blk, const PelView &pred_blk,
                              const BlockRect &r, int tx, double mode_bits,
                              int *best_tx_type)
{
    residual(src_blk, pred_blk, r.w, r.h, res_.data(), v_res_);
    double best_cost = std::numeric_limits<double>::infinity();
    static const uint64_t type_site = sitePc("rdo.txtype_better");
    Probe *probe = currentProbe();

    int16_t tile_in[kMaxTxSize * kMaxTxSize];
    for (int type = 0; type < std::max(1, config_.txTypeCandidates); ++type) {
        double rate = mode_bits + choiceBits(config_.txTypeCandidates);
        double dist = 0.0;
        for (int ty = 0; ty < r.h; ty += tx) {
            for (int tx0 = 0; tx0 < r.w; tx0 += tx) {
                for (int y = 0; y < tx; ++y) {
                    const int16_t *src_row = res_.data() +
                        static_cast<ptrdiff_t>(ty + y) * r.w + tx0;
                    std::copy(src_row, src_row + tx, tile_in + y * tx);
                }
                flipTile(tile_in, tx, type);
                forwardDct(tile_in, coeff_.data(), tx, v_res_, v_coeff_);
                quant_.quantizeBlock(coeff_.data(), levels_.data(), tx,
                                     v_coeff_, v_levels_);
                rate += estimateCoeffBits(levels_.data(), tx, v_levels_);
                quant_.dequantizeBlock(levels_.data(), coeff_.data(), tx,
                                       v_levels_, v_coeff_);
                inverseDct(coeff_.data(), tile_in, tx, v_coeff_, v_res_);
                flipTile(tile_in, tx, type);
                // Distortion of the reconstructed tile.
                for (int y = 0; y < tx; ++y) {
                    const uint8_t *sp = src_blk.row(ty + y) + tx0;
                    const uint8_t *pp = pred_blk.row(ty + y) + tx0;
                    for (int x = 0; x < tx; ++x) {
                        int rec = std::clamp(
                            static_cast<int>(pp[x]) + tile_in[y * tx + x], 0,
                            255);
                        int d = static_cast<int>(sp[x]) - rec;
                        dist += static_cast<double>(d) * d;
                    }
                }
            }
        }
        if (probe) {
            static const uint64_t site = sitePc("codec.rdo.tile_dist");
            probe->enterKernel(site, 8);
            probe->ops(OpClass::SimdAlu,
                       static_cast<uint64_t>(r.w) * r.h / 8, 1, 2);
            probe->loopBranches(static_cast<uint64_t>(r.h / 4 + 1));
        }
        // RDOQ-style bookkeeping: per-coefficient cost table walks and
        // level adjustment logic around every transform evaluation.
        static const uint64_t rdoq_site = sitePc("rdo.txrd_ctl");
        control(rdoq_site, 4 + r.w * r.h / 6, r);
        double cost = dist + lambda_ * rate;
        bool better = cost < best_cost;
        if (probe && config_.txTypeCandidates > 1) {
            probe->decision(type_site, better);
        }
        if (better) {
            best_cost = cost;
            if (best_tx_type) {
                *best_tx_type = type;
            }
        }
    }
    return best_cost;
}

MeResult
FrameCodec::searchMotion(const BlockRect &r, MotionVector start)
{
    return me_memo_
        .run({r.x, r.y, r.w, r.h, start.x, start.y},
             [&] {
                 return motionSearch(viewOf(src_->y(), v_src_),
                                     viewOf(ref_.y(), v_ref_), width_,
                                     height_, r.x, r.y, r.w, r.h, start,
                                     config_.me);
             })
        .first;
}

FrameCodec::EvalResult
FrameCodec::evalLeaf(const BlockRect &r, int mode_budget)
{
    ++stats_.leafEvals;
    const auto [leaf, replayed] =
        leaf_memo_.run({r.x, r.y, r.w, r.h, mode_budget}, [&] {
            const EncodeStats before = stats_;
            const EvalResult result = searchLeaf(r, mode_budget);
            return LeafEval{result, stats_.modeEvals - before.modeEvals,
                            stats_.meCandidates - before.meCandidates};
        });
    if (replayed) {
        stats_.modeEvals += leaf.modeEvals;
        stats_.meCandidates += leaf.meCandidates;
    }
    return leaf.result;
}

FrameCodec::EvalResult
FrameCodec::searchLeaf(const BlockRect &r, int mode_budget)
{
    static const uint64_t better_site = sitePc("rdo.mode_better");
    static const uint64_t bail_site = sitePc("rdo.mode_bail");
    Probe *p = currentProbe();

    PelView src_plane = viewOf(src_->y(), v_src_);
    PelView src_blk = src_plane.sub(r.x, r.y);
    PelView recon_plane = viewOf(recon_.y(), v_recon_);
    PelViewMut pred_view{pred_.data(), r.w, v_pred_};

    IntraNeighbors nb =
        gatherNeighbors(recon_plane, r.x, r.y, r.w, r.h, width_, height_);

    // Leaf setup: rate-estimation context, neighbour mode fetches, rect
    // bookkeeping — the scalar spine of real mode decision.
    static const uint64_t setup_site = sitePc("rdo.leaf_setup");
    control(setup_site, 10 + r.w * r.h / 6, r);

    EvalResult best;
    best.cost = std::numeric_limits<double>::infinity();

    // Inter candidates first: they usually win on non-key frames, making
    // the subsequent intra-mode comparisons biased (predictable) — more
    // so at high CRF where lambda crushes small distortion differences.
    static const uint64_t mode_ctl_site2 = sitePc("rdo.mode_ctl_inter");
    static const uint64_t ref_better_site = sitePc("rdo.ref_better");
    static const uint64_t filt_better_site = sitePc("rdo.filt_better");
    Probe *probe = currentProbe();
    if (!keyframe_) {
        PelView ref_plane = viewOf(ref_.y(), v_ref_);
        MotionVector mvp = mvPredictor(r);
        // Multi-reference hypothesis search: each hypothesis starts the
        // motion search from a different predictor, modelling the
        // distinct reference frames AV1/VP9 evaluate.
        const MotionVector starts[4] = {
            mvp, {0, 0}, {mvp.x / 2, mvp.y / 2}, {mvp.y, mvp.x}};
        for (int ref = 0; ref < std::max(1, config_.refFramesSearched);
             ++ref) {
            MeResult me = searchMotion(r, starts[ref & 3]);
            stats_.meCandidates += static_cast<uint64_t>(me.candidates);
            motionCompensate(ref_plane, width_, height_, r.x, r.y, r.w, r.h,
                             me.mv, pred_view, config_.me.sharpSubpel);
            double mode_bits = 1.0 + choiceBits(config_.refFramesSearched) +
                               mvComponentBits(me.mv.x - mvp.x) +
                               mvComponentBits(me.mv.y - mvp.y);
            double cost = costFast(src_blk, pred_view, r, mode_bits);
            control(mode_ctl_site2, 8 + r.w * r.h / 3, r);
            ++stats_.modeEvals;
            bool better = cost < best.cost;
            if (probe && config_.refFramesSearched > 1) {
                probe->decision(ref_better_site, better);
            }
            if (better) {
                best.cost = cost;
                best.choice.inter = true;
                best.choice.mv = me.mv;
            }
        }
        // Interpolation-filter search: re-compensate the winning vector
        // through smoothing variants and re-cost (AV1 dual-filter style).
        if (best.choice.inter) {
            for (int filt = 1; filt < config_.interpFilterCands; ++filt) {
                motionCompensate(ref_plane, width_, height_, r.x, r.y, r.w,
                                 r.h, best.choice.mv, pred_view,
                                 config_.me.sharpSubpel);
                smoothPrediction(pred_view, r.w, r.h, filt);
                double cost = costFast(src_blk, pred_view, r,
                                       2.0 + choiceBits(
                                                 config_.interpFilterCands));
                ++stats_.modeEvals;
                bool better = cost < best.cost;
                if (probe) {
                    probe->decision(filt_better_site, better);
                }
                if (better) {
                    best.cost = cost;
                }
            }
        }
    }

    static const uint64_t mode_ctl_site = sitePc("rdo.mode_ctl");
    int since_improve = 0;
    double intra_flag_bits = keyframe_ ? 0.0 : 1.0;
    for (IntraMode mode : intraModeList(mode_budget)) {
        predictIntra(mode, nb, r.w, r.h, pred_view);
        double mode_bits = intra_flag_bits + choiceBits(mode_budget) + 1.0;
        double cost = costFast(src_blk, pred_view, r, mode_bits);
        control(mode_ctl_site, 8 + r.w * r.h / 3, r);
        ++stats_.modeEvals;
        bool better = cost < best.cost;
        if (p) {
            p->decision(better_site, better);
        }
        if (better) {
            best.cost = cost;
            best.choice.inter = false;
            best.choice.mode = mode;
            since_improve = 0;
        } else if (++since_improve >= config_.modePatience) {
            if (p) {
                p->decision(bail_site, true);
            }
            break;
        }
    }

    // Transform-size decision (and refined cost) for the winning mode.
    int tx_max = txSizeFor(r.w, r.h);
    best.choice.txSize = tx_max;
    if (config_.fullRd) {
        // Rebuild the winning prediction.
        if (best.choice.inter) {
            motionCompensate(viewOf(ref_.y(), v_ref_), width_, height_, r.x,
                             r.y, r.w, r.h, best.choice.mv, pred_view,
                             config_.me.sharpSubpel);
        } else {
            predictIntra(best.choice.mode, nb, r.w, r.h, pred_view);
        }
        double tx_best = std::numeric_limits<double>::infinity();
        int tx = tx_max;
        for (int cand = 0; cand < config_.txSizeCandidates && tx >= 4;
             ++cand, tx >>= 1) {
            int tx_type = 0;
            double c = costWithTransform(src_blk, pred_view, r, tx,
                                         choiceBits(config_.txSizeCandidates),
                                         &tx_type);
            ++stats_.modeEvals;
            bool better = c < tx_best;
            if (p) {
                p->decision(better_site, better);
            }
            if (better) {
                tx_best = c;
                best.choice.txSize = tx;
                best.choice.txType = tx_type;
            }
        }
        best.cost = tx_best;
    }
    best.choice.cost = best.cost;
    return best;
}

double
FrameCodec::searchNode(const BlockRect &r, int depth, PartNode &out)
{
    ++stats_.partitionNodes;
    static const uint64_t prune_site = sitePc("rdo.prune");
    static const uint64_t part_better_site = sitePc("rdo.part_better");
    static const uint64_t part_abort_site = sitePc("rdo.part_abort");
    Probe *p = currentProbe();

    // Count the allowed partition modes for syntax-cost purposes.
    int allowed = 0;
    for (int m = 0; m < kNumPartitionModes; ++m) {
        allowed += partitionAllowed(static_cast<PartitionMode>(m), r, config_);
    }
    const double part_bits = choiceBits(std::max(1, allowed));

    static const uint64_t node_ctl_site = sitePc("rdo.node_ctl");
    control(node_ctl_site, 12 + allowed * 6, r);

    EvalResult none = evalLeaf(r, config_.intraModes);
    double best_cost = none.cost + lambda_ * part_bits;
    out.mode = PartitionMode::None;
    out.children.clear();
    out.leaves = {none.choice};

    // Early termination: a cheap-enough leaf ends the search. The
    // threshold scales with the quantiser step, so coarse quality prunes
    // far more aggressively (and far more predictably).
    bool prune = false;
    if (config_.earlyExitScale > 0.0 && depth >= config_.pruneMinDepth) {
        // Normalised to the quantiser's own distortion floor (~step^2/12
        // per pixel): a leaf already coding near that floor cannot gain
        // from further splitting. Coarse quality reaches the floor for
        // almost every block (aggressive pruning); fine quality rarely
        // does.
        double threshold = 0.12 * config_.earlyExitScale * r.w * r.h *
                           quant_.step() * quant_.step();
        prune = best_cost < threshold;
        if (p) {
            p->decision(prune_site, prune);
        }
        if (prune) {
            ++stats_.prunes;
            return best_cost;
        }
    }

    for (int m = 1; m < kNumPartitionModes; ++m) {
        auto mode = static_cast<PartitionMode>(m);
        if (!partitionAllowed(mode, r, config_)) {
            continue;
        }
        double cost = lambda_ * part_bits;
        if (mode == PartitionMode::Split) {
            std::vector<PartNode> children(4);
            auto rects = partitionRects(mode, r);
            bool aborted = false;
            for (size_t i = 0; i < rects.size(); ++i) {
                cost += searchNode(rects[i], depth + 1, children[i]);
                bool over = cost >= best_cost;
                if (p) {
                    p->decision(part_abort_site, over);
                }
                if (over) {
                    aborted = true;
                    break;
                }
            }
            bool better = !aborted && cost < best_cost;
            if (p) {
                p->decision(part_better_site, better);
            }
            if (better) {
                best_cost = cost;
                out.mode = mode;
                out.children = std::move(children);
                out.leaves.clear();
            }
        } else {
            auto rects = partitionRects(mode, r);
            std::vector<LeafChoice> leaves;
            leaves.reserve(rects.size());
            bool aborted = false;
            for (const BlockRect &sr : rects) {
                EvalResult e = evalLeaf(sr, config_.intraModesRect);
                cost += e.cost;
                leaves.push_back(e.choice);
                bool over = cost >= best_cost;
                if (p) {
                    p->decision(part_abort_site, over);
                }
                if (over) {
                    aborted = true;
                    break;
                }
            }
            bool better = !aborted && cost < best_cost;
            if (p) {
                p->decision(part_better_site, better);
            }
            if (better) {
                best_cost = cost;
                out.mode = mode;
                out.children.clear();
                out.leaves = std::move(leaves);
            }
        }
    }
    return best_cost;
}

void
FrameCodec::codeCoeffTile(const int32_t *levels, int n, uint64_t vaddr)
{
    const std::vector<int> &scan = zigzagScan(n);
    int last = -1;
    for (int i = n * n - 1; i >= 0; --i) {
        if (levels[scan[static_cast<size_t>(i)]] != 0) {
            last = i;
            break;
        }
    }
    int size_ctx = std::min(3, n / 8);
    bool coded = last >= 0;
    rc_->encodeBit(ctx_.codedFlag[size_ctx], coded, 32 + size_ctx);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.coeff_code");
        p->enterKernel(site, 16);
        p->memRun(OpClass::Load, vaddr, std::max(1, (last + 1 + 7) / 8), 32);
        p->loopBranches(static_cast<uint64_t>(std::max(1, last + 1)));
    }
    if (!coded) {
        return;
    }
    rc_->encodeUeGolomb(static_cast<uint32_t>(last));
    const int depth = std::clamp(config_.coeffContexts, 1, 4);
    for (int i = 0; i <= last; ++i) {
        int band = std::min(depth - 1, depth * i / (n * n));
        int32_t level = levels[scan[static_cast<size_t>(i)]];
        bool sig = level != 0;
        if (i < last) {
            rc_->encodeBit(ctx_.sig[band], sig, 40 + band);
        }
        if (!sig) {
            continue;
        }
        uint32_t mag = static_cast<uint32_t>(std::abs(level));
        bool gt1 = mag > 1;
        rc_->encodeBit(ctx_.gt1[band], gt1, 44 + band);
        if (gt1) {
            bool gt2 = mag > 2;
            rc_->encodeBit(ctx_.gt2[band], gt2, 48 + band);
            if (gt2) {
                rc_->encodeUeGolomb(mag - 3);
            }
        }
        rc_->encodeBypass(level < 0);
    }
}

void
FrameCodec::commitLeaf(const BlockRect &r, const LeafChoice &choice)
{
    ++stats_.leafCommits;
    static const uint64_t commit_ctl_site = sitePc("rdo.commit_ctl");
    control(commit_ctl_site, 20 + r.w * r.h / 4, r);
    PelView src_plane = viewOf(src_->y(), v_src_);
    PelView src_blk = src_plane.sub(r.x, r.y);
    PelViewMut recon_plane = viewOf(recon_.y(), v_recon_);
    PelViewMut pred_view{pred_.data(), r.w, v_pred_};

    // Prediction with final neighbours.
    if (choice.inter) {
        motionCompensate(viewOf(ref_.y(), v_ref_), width_, height_, r.x, r.y,
                         r.w, r.h, choice.mv, pred_view,
                         config_.me.sharpSubpel);
        MotionVector mvp = mvPredictor(r);
        if (!keyframe_) {
            rc_->encodeBit(ctx_.interFlag[0], true, 16);
        }
        int dx = choice.mv.x - mvp.x;
        int dy = choice.mv.y - mvp.y;
        rc_->encodeUeGolomb(static_cast<uint32_t>(std::abs(dx)));
        if (dx != 0) {
            rc_->encodeBypass(dx < 0);
        }
        rc_->encodeUeGolomb(static_cast<uint32_t>(std::abs(dy)));
        if (dy != 0) {
            rc_->encodeBypass(dy < 0);
        }
        storeMv(r, choice.mv);
    } else {
        IntraNeighbors nb = gatherNeighbors(recon_plane, r.x, r.y, r.w, r.h,
                                            width_, height_);
        predictIntra(choice.mode, nb, r.w, r.h, pred_view);
        if (!keyframe_) {
            rc_->encodeBit(ctx_.interFlag[0], false, 16);
        }
        rc_->encodeUeGolomb(static_cast<uint32_t>(choice.mode));
        storeMv(r, {});
    }

    // Transform, quantise, entropy-code, reconstruct.
    residual(src_blk, pred_view, r.w, r.h, res_.data(), v_res_);
    int tx = std::min(choice.txSize, txSizeFor(r.w, r.h));
    rc_->encodeUeGolomb(static_cast<uint32_t>(tx == txSizeFor(r.w, r.h) ? 0 : 1));
    if (config_.txTypeCandidates > 1) {
        rc_->encodeUeGolomb(static_cast<uint32_t>(choice.txType));
    }
    int16_t tile_in[kMaxTxSize * kMaxTxSize];
    for (int ty = 0; ty < r.h; ty += tx) {
        for (int tx0 = 0; tx0 < r.w; tx0 += tx) {
            for (int y = 0; y < tx; ++y) {
                const int16_t *row = res_.data() +
                    static_cast<ptrdiff_t>(ty + y) * r.w + tx0;
                std::copy(row, row + tx, tile_in + y * tx);
            }
            flipTile(tile_in, tx, choice.txType);
            forwardDct(tile_in, coeff_.data(), tx, v_res_, v_coeff_);
            quant_.quantizeBlock(coeff_.data(), levels_.data(), tx, v_coeff_,
                                 v_levels_);
            codeCoeffTile(levels_.data(), tx, v_levels_);
            quant_.dequantizeBlock(levels_.data(), coeff_.data(), tx,
                                   v_levels_, v_coeff_);
            inverseDct(coeff_.data(), tile_in, tx, v_coeff_, v_res_);
            flipTile(tile_in, tx, choice.txType);
            // Write the reconstructed residual back into the block
            // residual buffer for the final reconstruction below.
            for (int y = 0; y < tx; ++y) {
                int16_t *row = res_.data() +
                    static_cast<ptrdiff_t>(ty + y) * r.w + tx0;
                std::copy(tile_in + y * tx, tile_in + (y + 1) * tx, row);
            }
        }
    }
    reconstruct(pred_view, res_.data(), v_res_, r.w, r.h,
                recon_plane.sub(r.x, r.y));

    commitChroma(r, choice);
}

void
FrameCodec::commitChroma(const BlockRect &r, const LeafChoice &choice)
{
    // 4:2:0 chroma at half resolution, reusing the luma decision: inter
    // blocks motion-compensate with the halved vector, intra blocks use
    // DC — the standard fast-encoder shortcut.
    BlockRect c{r.x / 2, r.y / 2, r.w / 2, r.h / 2};
    if (c.w < 4 || c.h < 4) {
        return;
    }
    const int cw = width_ / 2, ch = height_ / 2;
    const size_t luma = static_cast<size_t>(width_) * height_;
    int tx = txSizeFor(c.w, c.h);
    int16_t tile_in[kMaxTxSize * kMaxTxSize];

    const video::Plane *src_planes[2] = {&src_->u(), &src_->v()};
    video::Plane *recon_planes[2] = {&recon_.u(), &recon_.v()};
    const video::Plane *ref_planes[2] = {&ref_.u(), &ref_.v()};

    for (int plane = 0; plane < 2; ++plane) {
        uint64_t voff = luma + static_cast<uint64_t>(plane) * luma / 4;
        PelView src_plane = viewOf(*src_planes[plane], v_src_ + voff);
        PelView src_blk = src_plane.sub(c.x, c.y);
        PelViewMut recon_plane = viewOf(*recon_planes[plane], v_recon_ + voff);
        PelViewMut pred_view{pred2_.data(), c.w, v_pred_ + 64 * 64};

        if (choice.inter) {
            MotionVector half{choice.mv.x / 2, choice.mv.y / 2};
            motionCompensate(viewOf(*ref_planes[plane], v_ref_ + voff), cw,
                             ch, c.x, c.y, c.w, c.h, half, pred_view,
                             config_.me.sharpSubpel);
        } else {
            IntraNeighbors nb =
                gatherNeighbors(recon_plane, c.x, c.y, c.w, c.h, cw, ch);
            predictIntra(IntraMode::Dc, nb, c.w, c.h, pred_view);
        }

        residual(src_blk, pred_view, c.w, c.h, res_.data(), v_res_);
        for (int ty = 0; ty < c.h; ty += tx) {
            for (int tx0 = 0; tx0 < c.w; tx0 += tx) {
                for (int y = 0; y < tx; ++y) {
                    const int16_t *row = res_.data() +
                        static_cast<ptrdiff_t>(ty + y) * c.w + tx0;
                    std::copy(row, row + tx, tile_in + y * tx);
                }
                forwardDct(tile_in, coeff_.data(), tx, v_res_, v_coeff_);
                quant_.quantizeBlock(coeff_.data(), levels_.data(), tx,
                                     v_coeff_, v_levels_);
                codeCoeffTile(levels_.data(), tx, v_levels_);
                quant_.dequantizeBlock(levels_.data(), coeff_.data(), tx,
                                       v_levels_, v_coeff_);
                inverseDct(coeff_.data(), tile_in, tx, v_coeff_, v_res_);
                for (int y = 0; y < tx; ++y) {
                    int16_t *row = res_.data() +
                        static_cast<ptrdiff_t>(ty + y) * c.w + tx0;
                    std::copy(tile_in + y * tx, tile_in + (y + 1) * tx, row);
                }
            }
        }
        reconstruct(pred_view, res_.data(), v_res_, c.w, c.h,
                    recon_plane.sub(c.x, c.y));
    }
}

void
FrameCodec::commitNode(const BlockRect &r, int depth, const PartNode &node)
{
    int depth_ctx = std::min(depth, 5);
    rc_->encodeBit(ctx_.partition[depth_ctx][0],
                   node.mode != PartitionMode::None,
                   static_cast<uint32_t>(depth_ctx) * kNumPartitionModes);
    if (node.mode != PartitionMode::None) {
        rc_->encodeUeGolomb(static_cast<uint32_t>(node.mode) - 1);
    }
    if (node.mode == PartitionMode::Split) {
        auto rects = partitionRects(node.mode, r);
        for (size_t i = 0; i < rects.size(); ++i) {
            commitNode(rects[i], depth + 1, node.children[i]);
        }
    } else {
        auto rects = partitionRects(node.mode, r);
        for (size_t i = 0; i < rects.size() && i < node.leaves.size(); ++i) {
            commitLeaf(rects[i], node.leaves[i]);
        }
    }
}

void
FrameCodec::loopFilterFrame()
{
    loopFilterPlane(recon_.y(), width_, height_, config_.filterPasses,
                    quant_.step(), v_recon_);
}

void
FrameCodec::beginFrame(const video::Frame &src, bool keyframe)
{
    if (src.width() != width_ || src.height() != height_) {
        throw std::invalid_argument("beginFrame: geometry mismatch");
    }
    if (rc_) {
        throw std::logic_error("beginFrame: frame already in progress");
    }
    src_ = &src;
    keyframe_ = keyframe || !has_ref_;
    frame_stats_before_ = stats_;
    frame_start_bytes_ = stream_.sizeBytes();
    rc_ = std::make_unique<RangeEncoder>(stream_, v_ctx_);
}

void
FrameCodec::encodeSuperblock(int sx, int sy)
{
    if (!rc_) {
        throw std::logic_error("encodeSuperblock: no frame in progress");
    }
    const int sb = config_.superblockSize;
    BlockRect r{sx, sy, std::min(sb, width_ - sx), std::min(sb, height_ - sy)};
    // commitNode() writes recon_ and mv_field_, which the search reads.
    me_memo_.clear();
    leaf_memo_.clear();
    PartNode tree;
    searchNode(r, 0, tree);
    commitNode(r, 0, tree);
}

EncodeStats
FrameCodec::encodeFrame(const video::Frame &src, bool keyframe)
{
    beginFrame(src, keyframe);
    const int sb = config_.superblockSize;
    for (int sy = 0; sy < height_; sy += sb) {
        for (int sx = 0; sx < width_; sx += sb) {
            encodeSuperblock(sx, sy);
        }
    }
    return endFrame();
}

EncodeStats
FrameCodec::endFrame()
{
    if (!rc_) {
        throw std::logic_error("endFrame: no frame in progress");
    }
    rc_->finish();
    rc_.reset();

    loopFilterFrame();

    // Reference update: copy recon into the reference slot (real encoders
    // swap buffers; the copy models the same traffic conservatively).
    ref_ = recon_;
    has_ref_ = true;
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.refcopy");
        emitKernel(*p, site, 6, [&](auto &e) {
            uint64_t vecs = static_cast<uint64_t>(width_) * height_ * 3 / 2 / 32;
            for (uint64_t i = 0; i < vecs; ++i) {
                e.mem(OpClass::SimdLoad, v_recon_ + i * 32);
                e.mem(OpClass::SimdStore, v_ref_ + i * 32, 1);
            }
            e.loopBranches(vecs);
        });
    }

    EncodeStats frame = stats_;
    frame.bits = (stream_.sizeBytes() - frame_start_bytes_) * 8;
    frame.leafEvals -= frame_stats_before_.leafEvals;
    frame.modeEvals -= frame_stats_before_.modeEvals;
    frame.meCandidates -= frame_stats_before_.meCandidates;
    frame.partitionNodes -= frame_stats_before_.partitionNodes;
    frame.prunes -= frame_stats_before_.prunes;
    frame.leafCommits -= frame_stats_before_.leafCommits;
    return frame;
}

} // namespace vepro::codec
