/**
 * @file
 * NEON (AdvSIMD, aarch64) implementations of the codec kernel table.
 *
 * Same bit-identity contract as kernels_avx2.cpp: pure integer pixel
 * kernels with no overflowing intermediate, and a saturating-add
 * reconstruct that provably matches the scalar clamp. The transform and
 * quantiser entries inherit the scalar pointers: their hot loops are
 * dominated by 64-bit accumulation that AdvSIMD gains little on, and
 * the scalar versions are already bit-exact by definition. The property
 * suite (tests/test_kernels.cpp) validates whichever entries this table
 * overrides.
 */

#include "codec/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstring>

namespace vepro::codec
{

namespace
{

inline uint8x8_t
load4(const uint8_t *p)
{
    uint32_t v = 0;
    std::memcpy(&v, p, 4);
    return vcreate_u8(static_cast<uint64_t>(v));
}

uint64_t
sadNeon(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    uint64x2_t acc = vdupq_n_u64(0);
    uint64_t tail = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        uint32x4_t row = vdupq_n_u32(0);
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            uint8x16_t d = vabdq_u8(vld1q_u8(ra + x), vld1q_u8(rb + x));
            row = vpadalq_u16(row, vpaddlq_u8(d));
        }
        for (; x + 8 <= w; x += 8) {
            uint16x8_t d = vabdl_u8(vld1_u8(ra + x), vld1_u8(rb + x));
            row = vpadalq_u16(row, d);
        }
        for (; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            tail += static_cast<uint64_t>(d < 0 ? -d : d);
        }
        acc = vpadalq_u32(acc, row);
    }
    return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1) + tail;
}

uint64_t
sseNeon(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    uint64x2_t acc = vdupq_n_u64(0);
    uint64_t tail = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        uint32x4_t row = vdupq_n_u32(0);
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            uint8x8_t va = vld1_u8(ra + x);
            uint8x8_t vb = vld1_u8(rb + x);
            uint16x8_t d = vabdl_u8(va, vb);  // |a-b| <= 255, d*d exact
            uint16x4_t lo = vget_low_u16(d), hi = vget_high_u16(d);
            row = vaddq_u32(row, vmull_u16(lo, lo));
            row = vaddq_u32(row, vmull_u16(hi, hi));
        }
        for (; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            tail += static_cast<uint64_t>(d) * static_cast<uint64_t>(d);
        }
        acc = vpadalq_u32(acc, row);
    }
    return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1) + tail;
}

/** Vertical Hadamard butterflies over N full row vectors. */
template <int N>
inline void
butterflyRowsQ(int16x8_t *r)
{
    for (int len = 1; len < N; len <<= 1) {
        for (int i = 0; i < N; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                int16x8_t x = r[j];
                int16x8_t y = r[j + len];
                r[j] = vaddq_s16(x, y);
                r[j + len] = vsubq_s16(x, y);
            }
        }
    }
}

template <int N>
inline void
butterflyRowsD(int16x4_t *r)
{
    for (int len = 1; len < N; len <<= 1) {
        for (int i = 0; i < N; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                int16x4_t x = r[j];
                int16x4_t y = r[j + len];
                r[j] = vadd_s16(x, y);
                r[j + len] = vsub_s16(x, y);
            }
        }
    }
}

inline void
transpose8x8S16(int16x8_t *r)
{
    int16x8_t a0 = vtrn1q_s16(r[0], r[1]), a1 = vtrn2q_s16(r[0], r[1]);
    int16x8_t a2 = vtrn1q_s16(r[2], r[3]), a3 = vtrn2q_s16(r[2], r[3]);
    int16x8_t a4 = vtrn1q_s16(r[4], r[5]), a5 = vtrn2q_s16(r[4], r[5]);
    int16x8_t a6 = vtrn1q_s16(r[6], r[7]), a7 = vtrn2q_s16(r[6], r[7]);
    int32x4_t b0 = vtrn1q_s32(vreinterpretq_s32_s16(a0),
                              vreinterpretq_s32_s16(a2));
    int32x4_t b2 = vtrn2q_s32(vreinterpretq_s32_s16(a0),
                              vreinterpretq_s32_s16(a2));
    int32x4_t b1 = vtrn1q_s32(vreinterpretq_s32_s16(a1),
                              vreinterpretq_s32_s16(a3));
    int32x4_t b3 = vtrn2q_s32(vreinterpretq_s32_s16(a1),
                              vreinterpretq_s32_s16(a3));
    int32x4_t b4 = vtrn1q_s32(vreinterpretq_s32_s16(a4),
                              vreinterpretq_s32_s16(a6));
    int32x4_t b6 = vtrn2q_s32(vreinterpretq_s32_s16(a4),
                              vreinterpretq_s32_s16(a6));
    int32x4_t b5 = vtrn1q_s32(vreinterpretq_s32_s16(a5),
                              vreinterpretq_s32_s16(a7));
    int32x4_t b7 = vtrn2q_s32(vreinterpretq_s32_s16(a5),
                              vreinterpretq_s32_s16(a7));
    r[0] = vreinterpretq_s16_s64(vtrn1q_s64(vreinterpretq_s64_s32(b0),
                                            vreinterpretq_s64_s32(b4)));
    r[4] = vreinterpretq_s16_s64(vtrn2q_s64(vreinterpretq_s64_s32(b0),
                                            vreinterpretq_s64_s32(b4)));
    r[1] = vreinterpretq_s16_s64(vtrn1q_s64(vreinterpretq_s64_s32(b1),
                                            vreinterpretq_s64_s32(b5)));
    r[5] = vreinterpretq_s16_s64(vtrn2q_s64(vreinterpretq_s64_s32(b1),
                                            vreinterpretq_s64_s32(b5)));
    r[2] = vreinterpretq_s16_s64(vtrn1q_s64(vreinterpretq_s64_s32(b2),
                                            vreinterpretq_s64_s32(b6)));
    r[6] = vreinterpretq_s16_s64(vtrn2q_s64(vreinterpretq_s64_s32(b2),
                                            vreinterpretq_s64_s32(b6)));
    r[3] = vreinterpretq_s16_s64(vtrn1q_s64(vreinterpretq_s64_s32(b3),
                                            vreinterpretq_s64_s32(b7)));
    r[7] = vreinterpretq_s16_s64(vtrn2q_s64(vreinterpretq_s64_s32(b3),
                                            vreinterpretq_s64_s32(b7)));
}

uint64_t
satd8Neon(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    int16x8_t r[8];
    for (int y = 0; y < 8; ++y) {
        uint8x8_t va = vld1_u8(a + static_cast<ptrdiff_t>(y) * a_stride);
        uint8x8_t vb = vld1_u8(b + static_cast<ptrdiff_t>(y) * b_stride);
        r[y] = vsubq_s16(vreinterpretq_s16_u16(vmovl_u8(va)),
                         vreinterpretq_s16_u16(vmovl_u8(vb)));
    }
    butterflyRowsQ<8>(r);
    transpose8x8S16(r);
    butterflyRowsQ<8>(r);
    uint32x4_t acc = vdupq_n_u32(0);
    for (int y = 0; y < 8; ++y) {
        acc = vpadalq_u16(acc,
                          vreinterpretq_u16_s16(vabsq_s16(r[y])));
    }
    uint64x2_t acc64 = vpaddlq_u32(acc);
    return vgetq_lane_u64(acc64, 0) + vgetq_lane_u64(acc64, 1);
}

uint64_t
satd4Neon(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    int16x4_t r[4];
    for (int y = 0; y < 4; ++y) {
        uint8x8_t va = load4(a + static_cast<ptrdiff_t>(y) * a_stride);
        uint8x8_t vb = load4(b + static_cast<ptrdiff_t>(y) * b_stride);
        int16x8_t d = vsubq_s16(vreinterpretq_s16_u16(vmovl_u8(va)),
                                vreinterpretq_s16_u16(vmovl_u8(vb)));
        r[y] = vget_low_s16(d);
    }
    butterflyRowsD<4>(r);
    int16x4_t a0 = vtrn1_s16(r[0], r[1]), a1 = vtrn2_s16(r[0], r[1]);
    int16x4_t a2 = vtrn1_s16(r[2], r[3]), a3 = vtrn2_s16(r[2], r[3]);
    r[0] = vreinterpret_s16_s32(vtrn1_s32(vreinterpret_s32_s16(a0),
                                          vreinterpret_s32_s16(a2)));
    r[2] = vreinterpret_s16_s32(vtrn2_s32(vreinterpret_s32_s16(a0),
                                          vreinterpret_s32_s16(a2)));
    r[1] = vreinterpret_s16_s32(vtrn1_s32(vreinterpret_s32_s16(a1),
                                          vreinterpret_s32_s16(a3)));
    r[3] = vreinterpret_s16_s32(vtrn2_s32(vreinterpret_s32_s16(a1),
                                          vreinterpret_s32_s16(a3)));
    butterflyRowsD<4>(r);
    uint32x2_t acc = vdup_n_u32(0);
    for (int y = 0; y < 4; ++y) {
        acc = vpadal_u16(acc, vreinterpret_u16_s16(vabs_s16(r[y])));
    }
    uint64x1_t acc64 = vpaddl_u32(acc);
    return vget_lane_u64(acc64, 0);
}

void
residualNeon(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
             int w, int h, int16_t *dst)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int16_t *rd = dst + static_cast<ptrdiff_t>(y) * w;
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            int16x8_t d = vsubq_s16(
                vreinterpretq_s16_u16(vmovl_u8(vld1_u8(ra + x))),
                vreinterpretq_s16_u16(vmovl_u8(vld1_u8(rb + x))));
            vst1q_s16(rd + x, d);
        }
        for (; x < w; ++x) {
            rd[x] = static_cast<int16_t>(static_cast<int>(ra[x]) -
                                         static_cast<int>(rb[x]));
        }
    }
}

void
reconstructNeon(const uint8_t *pred, int pred_stride, const int16_t *res,
                int w, int h, uint8_t *dst, int dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *rp = pred + static_cast<ptrdiff_t>(y) * pred_stride;
        const int16_t *rr = res + static_cast<ptrdiff_t>(y) * w;
        uint8_t *rd = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            int16x8_t p =
                vreinterpretq_s16_u16(vmovl_u8(vld1_u8(rp + x)));
            // Saturating add + unsigned saturating narrow == scalar clamp.
            int16x8_t s = vqaddq_s16(p, vld1q_s16(rr + x));
            vst1_u8(rd + x, vqmovun_s16(s));
        }
        for (; x < w; ++x) {
            int v = static_cast<int>(rp[x]) + rr[x];
            rd[x] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
        }
    }
}

void
boxdownNeon(const uint8_t *src, int src_stride, int factor, uint8_t *dst,
            int dw)
{
    if (factor == 2) {
        // Pairwise widening adds keep every intermediate exact in u16
        // (max 1020), so (sum + 2) >> 2 matches the scalar rounding.
        const uint16x8_t two = vdupq_n_u16(2);
        int i = 0;
        for (; i + 8 <= dw; i += 8) {
            const uint8_t *r0 = src + static_cast<ptrdiff_t>(i) * 2;
            const uint8_t *r1 = r0 + src_stride;
            uint16x8_t sum = vaddq_u16(vpaddlq_u8(vld1q_u8(r0)),
                                       vpaddlq_u8(vld1q_u8(r1)));
            sum = vshrq_n_u16(vaddq_u16(sum, two), 2);
            vst1_u8(dst + i, vmovn_u16(sum));
        }
        for (; i < dw; ++i) {
            const uint8_t *r0 = src + static_cast<ptrdiff_t>(i) * 2;
            const uint8_t *r1 = r0 + src_stride;
            uint32_t sum = static_cast<uint32_t>(r0[0]) + r0[1] + r1[0] +
                           r1[1];
            dst[i] = static_cast<uint8_t>((sum + 2) / 4);
        }
        return;
    }
    const uint32_t cnt = static_cast<uint32_t>(factor) * factor;
    const uint32_t half = cnt / 2;
    for (int i = 0; i < dw; ++i) {
        const uint8_t *box = src + static_cast<ptrdiff_t>(i) * factor;
        uint32_t sum = 0;
        for (int y = 0; y < factor; ++y) {
            const uint8_t *r = box + static_cast<ptrdiff_t>(y) * src_stride;
            for (int x = 0; x < factor; ++x) {
                sum += r[x];
            }
        }
        dst[i] = static_cast<uint8_t>((sum + half) / cnt);
    }
}

void
lerpblendNeon(const uint8_t *a, const uint8_t *b, int w6, uint8_t *dst,
              int n)
{
    // a*(64-w6) + b*w6 + 32 <= 16352 fits u16 exactly; the final >> 6
    // result is <= 255, so the non-saturating narrow is exact.
    const uint16_t wa = static_cast<uint16_t>(64 - w6);
    const uint16_t wb = static_cast<uint16_t>(w6);
    const uint16x8_t bias = vdupq_n_u16(32);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        uint16x8_t va = vmovl_u8(vld1_u8(a + i));
        uint16x8_t vb = vmovl_u8(vld1_u8(b + i));
        uint16x8_t t = vmlaq_n_u16(vmulq_n_u16(va, wa), vb, wb);
        t = vshrq_n_u16(vaddq_u16(t, bias), 6);
        vst1_u8(dst + i, vmovn_u16(t));
    }
    for (; i < n; ++i) {
        dst[i] = static_cast<uint8_t>(
            (a[i] * (64 - w6) + b[i] * w6 + 32) >> 6);
    }
}

} // namespace

namespace detail
{

const KernelTable *
neonKernelsImpl()
{
    static const KernelTable table = [] {
        KernelTable t = scalarKernels();  // fdct/idct/quant/subpel4 stay scalar
        t.isa = "neon";
        t.sad = sadNeon;
        t.sse = sseNeon;
        t.satd4 = satd4Neon;
        t.satd8 = satd8Neon;
        t.residual = residualNeon;
        t.reconstruct = reconstructNeon;
        t.boxdown = boxdownNeon;
        t.lerpblend = lerpblendNeon;
        return t;
    }();
    return &table;
}

} // namespace detail

} // namespace vepro::codec

#endif // __aarch64__
