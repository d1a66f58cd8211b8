#include "codec/mc.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "codec/sad.hpp"
#include "trace/probe.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::emitKernel;
using trace::sitePc;

MotionVector
clampMv(MotionVector mv, int bx, int by, int w, int h, int ref_w, int ref_h)
{
    // Keep the full-pel footprint (plus one pixel for half-pel taps)
    // inside the plane.
    int min_x = -bx * 2;
    int max_x = (ref_w - w - 1 - bx) * 2;
    int min_y = -by * 2;
    int max_y = (ref_h - h - 1 - by) * 2;
    mv.x = std::clamp(mv.x, min_x, std::max(min_x, max_x));
    mv.y = std::clamp(mv.y, min_y, std::max(min_y, max_y));
    return mv;
}

namespace
{

/** 4-tap (-1,5,5,-1)/8 interpolation, rounded and clamped to a pel. */
inline int
tap4(int a, int b, int c, int d)
{
    int v = (-a + 5 * b + 5 * c - d + 4) >> 3;
    return std::clamp(v, 0, 255);
}

/**
 * Sharp (4-tap) half-pel interpolation of a w x h block whose full-pel
 * origin is @p src (stride @p stride), reading rows -1..h+1 and columns
 * -1..w+1 around it. The 4-tap runs along direction @p d (1: horizontal,
 * stride: vertical); kAvg averages it with the same tap on the next row
 * down, the both-phases case.
 */
template <bool kAvg>
void
sharpSubpel(const uint8_t *src, ptrdiff_t stride, ptrdiff_t d, int w, int h,
            PelViewMut &dst)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *p = src + y * stride;
        const uint8_t *q = p + stride;
        uint8_t *out = dst.row(y);
        for (int x = 0; x < w; ++x) {
            int v = tap4(p[x - d], p[x], p[x + d], p[x + 2 * d]);
            if constexpr (kAvg) {
                v = (v + tap4(q[x - d], q[x], q[x + d], q[x + 2 * d]) + 1) >> 1;
            }
            out[x] = static_cast<uint8_t>(v);
        }
    }
}

void
sharpSubpel(const uint8_t *src, ptrdiff_t stride, int w, int h, bool half_x,
            bool half_y, PelViewMut &dst)
{
    if (half_x && half_y) {
        sharpSubpel<true>(src, stride, 1, w, h, dst);
    } else {
        sharpSubpel<false>(src, stride, half_x ? 1 : stride, w, h, dst);
    }
}

} // namespace

void
motionCompensate(const PelView &ref, int ref_w, int ref_h, int bx, int by,
                 int w, int h, MotionVector mv, PelViewMut dst,
                 bool sharp_subpel)
{
    mv = clampMv(mv, bx, by, w, h, ref_w, ref_h);
    int fx = bx + (mv.x >> 1);
    int fy = by + (mv.y >> 1);
    bool half_x = mv.x & 1;
    bool half_y = mv.y & 1;
    PelView src = ref.sub(fx, fy);

    if (!half_x && !half_y) {
        for (int y = 0; y < h; ++y) {
            std::copy(src.row(y), src.row(y) + w, dst.row(y));
        }
    } else if (sharp_subpel) {
        // Separable 4-tap: sharper than bilinear (the HEVC/AV1 class of
        // filters). The taps reach one pel above/left of the block and
        // two below/right, which clampMv's margin does not cover at the
        // plane edges. There the filter reads an edge-replicated copy of
        // that neighbourhood instead of the plane (ffmpeg's
        // emulated_edge_mc), so every tap sees the nearest plane pel.
        if (fx >= 1 && fy >= 1 && fx + w + 1 < ref_w && fy + h + 1 < ref_h) {
            sharpSubpel(src.pel, ref.stride, w, h, half_x, half_y, dst);
        } else {
            const int ew = w + 3;
            thread_local std::vector<uint8_t> edge;
            edge.resize(static_cast<size_t>(ew) * (h + 3));
            for (int y = 0; y < h + 3; ++y) {
                const uint8_t *row =
                    ref.row(std::clamp(fy - 1 + y, 0, ref_h - 1));
                uint8_t *out = edge.data() + static_cast<ptrdiff_t>(y) * ew;
                for (int x = 0; x < ew; ++x) {
                    out[x] = row[std::clamp(fx - 1 + x, 0, ref_w - 1)];
                }
            }
            sharpSubpel(edge.data() + ew + 1, ew, w, h, half_x, half_y, dst);
        }
    } else {
        for (int y = 0; y < h; ++y) {
            const uint8_t *r0 = src.row(y);
            const uint8_t *r1 = src.row(y + (half_y ? 1 : 0));
            uint8_t *out = dst.row(y);
            for (int x = 0; x < w; ++x) {
                int x1 = x + (half_x ? 1 : 0);
                int v = r0[x] + r0[x1] + r1[x] + r1[x1] + 2;
                out[x] = static_cast<uint8_t>(v >> 2);
            }
        }
    }

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.mc");
        emitKernel(*p, site, 10, [&](auto &e) {
            int chunks = std::max(1, w / 32);
            bool interp = half_x || half_y;
            for (int y = 0; y < h; ++y) {
                for (int c = 0; c < chunks; ++c) {
                    e.mem(OpClass::SimdLoad,
                          src.vaddr + static_cast<uint64_t>(y) * src.stride + c * 32);
                    if (interp) {
                        e.mem(OpClass::SimdLoad,
                              src.vaddr + static_cast<uint64_t>(y + 1) * src.stride + c * 32);
                        e.ops(OpClass::SimdAlu, 4, 1, 2);  // avg taps
                        if (sharp_subpel) {
                            // Extra tap loads + multiply-accumulate chain.
                            e.mem(OpClass::SimdLoad,
                                  src.vaddr + static_cast<uint64_t>(y + 2) * src.stride + c * 32);
                            e.ops(OpClass::SimdMul, 2, 1, 2);
                            e.ops(OpClass::SimdAlu, 3, 1);
                        }
                    }
                    e.mem(OpClass::SimdStore,
                          dst.vaddr + static_cast<uint64_t>(y) * dst.stride + c * 32, 1);
                }
                e.ops(OpClass::Alu, 2, 1);
            }
            e.loopBranches(h);
        });
    }
}

namespace
{

/** SAD of the block against the reference displaced by full-pel (dx,dy). */
uint64_t
candidateSad(const PelView &src_blk, const PelView &ref, int bx, int by,
             int w, int h, int dx, int dy)
{
    return sad(src_blk, ref.sub(bx + dx, by + dy), w, h);
}

} // namespace

MeResult
motionSearch(const PelView &src_plane, const PelView &ref, int ref_w,
             int ref_h, int bx, int by, int w, int h, MotionVector pred,
             const MeConfig &config)
{
    static const uint64_t cmp_site = sitePc("codec.me.better");
    static const uint64_t exit_site = sitePc("codec.me.early_exit");
    Probe *p = currentProbe();

    PelView src_blk = src_plane.sub(bx, by);
    MeResult result;
    result.mv = clampMv(pred, bx, by, w, h, ref_w, ref_h);

    auto in_window = [&](int dx, int dy) {
        return bx + dx >= 0 && by + dy >= 0 && bx + dx + w + 1 < ref_w &&
               by + dy + h + 1 < ref_h;
    };

    int cx = result.mv.x >> 1;
    int cy = result.mv.y >> 1;
    uint64_t best = candidateSad(src_blk, ref, bx, by, w, h, cx, cy);
    result.candidates = 1;

    const uint64_t early_exit_sad = static_cast<uint64_t>(
        config.earlyExitPerPel * w * h);

    static const uint64_t ctl_site = sitePc("codec.me.ctl");
    auto try_candidate = [&](int dx, int dy) -> bool {
        if (!in_window(dx, dy)) {
            return false;
        }
        uint64_t s = candidateSad(src_blk, ref, bx, by, w, h, dx, dy);
        ++result.candidates;
        bool better = s < best;
        if (p) {
            // MV candidate management: clip, mv-cost table lookup,
            // best-so-far bookkeeping.
            p->mem(OpClass::Load, ctl_site + 0x400 +
                   (static_cast<uint64_t>(std::abs(dx) + std::abs(dy)) * 8) % 1024);
            p->mem(OpClass::Load, ctl_site + 0x900);
            p->ops(OpClass::Alu, 3, 1);
            p->ops(OpClass::Other, 1, 1);
            p->mem(OpClass::Store, ctl_site + 0x900, 1);
            p->decision(cmp_site, better);
        }
        if (better) {
            best = s;
            cx = dx;
            cy = dy;
        }
        return better;
    };

    bool early = false;
    if (config.exhaustive) {
        const int origin_x = cx, origin_y = cy;
        for (int dy = -config.range; dy <= config.range && !early; ++dy) {
            for (int dx = -config.range; dx <= config.range; ++dx) {
                try_candidate(origin_x + dx, origin_y + dy);
            }
            if (p) {
                p->loopBranches(static_cast<uint64_t>(2 * config.range + 1));
            }
            if (early_exit_sad && best < early_exit_sad) {
                early = true;
                if (p) {
                    p->decision(exit_site, true);
                }
            }
        }
    } else {
        // Large-diamond refinement until the centre stays best, then a
        // small diamond, bounded by the search range.
        static constexpr std::array<std::pair<int, int>, 8> large = {{
            {0, -2}, {2, 0}, {0, 2}, {-2, 0}, {1, -1}, {1, 1}, {-1, 1}, {-1, -1},
        }};
        static constexpr std::array<std::pair<int, int>, 4> small = {{
            {0, -1}, {1, 0}, {0, 1}, {-1, 0},
        }};
        int origin_x = cx, origin_y = cy;
        for (int iter = 0; iter < 2 * config.range; ++iter) {
            bool improved = false;
            for (auto [dx, dy] : large) {
                int nx = cx + dx, ny = cy + dy;
                if (std::abs(nx - origin_x) > config.range ||
                    std::abs(ny - origin_y) > config.range) {
                    continue;
                }
                improved |= try_candidate(nx, ny);
            }
            if (p) {
                p->loopBranches(large.size());
            }
            if (early_exit_sad && best < early_exit_sad) {
                early = true;
                if (p) {
                    p->decision(exit_site, true);
                }
                break;
            }
            if (!improved) {
                break;
            }
        }
        if (!early) {
            for (auto [dx, dy] : small) {
                try_candidate(cx + dx, cy + dy);
            }
            if (p) {
                p->loopBranches(small.size());
            }
        }
    }

    result.mv = {cx * 2, cy * 2};
    result.sad = best;

    // Half-pel refinement around the best full-pel vector.
    if (config.subpel && !early) {
        MotionVector best_mv = result.mv;
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0) {
                    continue;
                }
                MotionVector mv{result.mv.x + dx, result.mv.y + dy};
                mv = clampMv(mv, bx, by, w, h, ref_w, ref_h);
                // Interpolate into a scratch block and measure.
                uint8_t scratch[64 * 64];
                PelViewMut scratch_view{scratch, w,
                                        ref.vaddr + 0x8000000ULL};
                motionCompensate(ref, ref_w, ref_h, bx, by, w, h, mv,
                                 scratch_view, config.sharpSubpel);
                uint64_t s = sad(src_blk, scratch_view, w, h);
                ++result.candidates;
                bool better = s < result.sad;
                if (p) {
                    p->decision(cmp_site, better);
                }
                if (better) {
                    result.sad = s;
                    best_mv = mv;
                }
            }
        }
        if (p) {
            p->loopBranches(8);
        }
        result.mv = best_mv;
    }
    return result;
}

} // namespace vepro::codec
