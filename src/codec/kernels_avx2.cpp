/**
 * @file
 * AVX2 implementations of the codec kernel table (x86-64).
 *
 * Compiled with -mavx2 as its own translation unit; nothing here runs
 * unless runtime dispatch (kernels.cpp) confirmed AVX2 support. Every
 * kernel is bit-identical to the scalar reference in kernels.cpp:
 *
 *  - SAD/SSE/SATD/residual are pure integer arithmetic with no
 *    intermediate that can overflow its lane type, so lane order is
 *    irrelevant and results are exact.
 *  - reconstruct uses saturating int16 adds; clamp(sat16(p + r), 0, 255)
 *    equals clamp(p + r, 0, 255) for p in [0,255] and any int16 r.
 *  - The DCT passes are even/odd butterflies in double lanes whose every
 *    value is an integer below 2^53, so they form the scalar's exact
 *    int64 sums before its one rounding (see "DCT passes" below).
 *  - subpel4 keeps each tap in 16-bit lanes, which cannot overflow;
 *    packus is the scalar clamp and pavgb the scalar average.
 *  - quant/dequant perform the same IEEE-754 double operations as the
 *    scalar loop, and cvttpd truncates toward zero exactly like the
 *    scalar int cast.
 */

#include "codec/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <utility>

namespace vepro::codec
{

namespace
{

// ---------------------------------------------------------------- helpers

inline uint64_t
hsumEpi64(__m128i v)
{
    return static_cast<uint64_t>(_mm_cvtsi128_si64(v)) +
           static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)));
}

inline uint64_t
hsumEpi64(__m256i v)
{
    return hsumEpi64(_mm_add_epi64(_mm256_castsi256_si128(v),
                                   _mm256_extracti128_si256(v, 1)));
}

/** Four unaligned bytes as the low lane of a vector. */
inline __m128i
load4(const uint8_t *p)
{
    int v = 0;
    std::memcpy(&v, p, 4);
    return _mm_cvtsi32_si128(v);
}

// -------------------------------------------------------------- SAD / SSE

/** SAD of a 4-wide block: four rows share one psadbw. */
uint64_t
sadW4(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride, int h)
{
    __m128i acc = _mm_setzero_si128();
    int y = 0;
    for (; y + 4 <= h; y += 4) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        __m128i va = _mm_unpacklo_epi64(
            _mm_unpacklo_epi32(load4(ra), load4(ra + a_stride)),
            _mm_unpacklo_epi32(load4(ra + 2 * a_stride),
                               load4(ra + 3 * a_stride)));
        __m128i vb = _mm_unpacklo_epi64(
            _mm_unpacklo_epi32(load4(rb), load4(rb + b_stride)),
            _mm_unpacklo_epi32(load4(rb + 2 * b_stride),
                               load4(rb + 3 * b_stride)));
        acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
    }
    for (; y < h; ++y) {
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(load4(a + static_cast<ptrdiff_t>(y) * a_stride),
                              load4(b + static_cast<ptrdiff_t>(y) * b_stride)));
    }
    return hsumEpi64(acc);
}

/** SAD of an 8-wide block: two rows share one psadbw. */
uint64_t
sadW8(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride, int h)
{
    auto load8 = [](const uint8_t *p) {
        return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
    };
    __m128i acc = _mm_setzero_si128();
    int y = 0;
    for (; y + 2 <= h; y += 2) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(
                     _mm_unpacklo_epi64(load8(ra), load8(ra + a_stride)),
                     _mm_unpacklo_epi64(load8(rb), load8(rb + b_stride))));
    }
    if (y < h) {
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(load8(a + static_cast<ptrdiff_t>(y) * a_stride),
                              load8(b + static_cast<ptrdiff_t>(y) * b_stride)));
    }
    return hsumEpi64(acc);
}

uint64_t
sadAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    if (w == 4) {
        return sadW4(a, a_stride, b, b_stride, h);
    }
    if (w == 8) {
        return sadW8(a, a_stride, b, b_stride, h);
    }
    __m256i acc = _mm256_setzero_si256();
    __m128i acc128 = _mm_setzero_si128();
    uint64_t tail = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int x = 0;
        for (; x + 32 <= w; x += 32) {
            __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ra + x));
            __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(rb + x));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        for (; x + 16 <= w; x += 16) {
            __m128i va =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(ra + x));
            __m128i vb =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(rb + x));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i va =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(ra + x));
            __m128i vb =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(rb + x));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
        }
        if (x + 4 <= w) {
            acc128 = _mm_add_epi64(acc128,
                                   _mm_sad_epu8(load4(ra + x), load4(rb + x)));
            x += 4;
        }
        for (; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            tail += static_cast<uint64_t>(d < 0 ? -d : d);
        }
    }
    return hsumEpi64(acc) + hsumEpi64(acc128) + tail;
}

uint64_t
sseAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    __m256i acc64 = _mm256_setzero_si256();
    uint64_t tail = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        __m256i row32 = _mm256_setzero_si256();  // per-row: cannot overflow
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m256i va = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m256i vb = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rb + x)));
            __m256i d = _mm256_sub_epi16(va, vb);
            row32 = _mm256_add_epi32(row32, _mm256_madd_epi16(d, d));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i va = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m128i vb = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(rb + x)));
            __m128i d = _mm_sub_epi16(va, vb);
            row32 = _mm256_add_epi32(
                row32, _mm256_castsi128_si256(_mm_madd_epi16(d, d)));
        }
        for (; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            tail += static_cast<uint64_t>(d) * static_cast<uint64_t>(d);
        }
        __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(row32));
        __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(row32, 1));
        acc64 = _mm256_add_epi64(acc64, _mm256_add_epi64(lo, hi));
    }
    return hsumEpi64(acc64) + tail;
}

// ------------------------------------------------------------------- SATD

/**
 * Vertical Hadamard butterflies across an array of row vectors; the same
 * stage structure as the scalar hadamard1d, applied to whole rows.
 */
template <int N>
inline void
butterflyRows(__m128i *r)
{
    for (int len = 1; len < N; len <<= 1) {
        for (int i = 0; i < N; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                __m128i x = r[j];
                __m128i y = r[j + len];
                r[j] = _mm_add_epi16(x, y);
                r[j + len] = _mm_sub_epi16(x, y);
            }
        }
    }
}

inline void
transpose8x8Epi16(__m128i *r)
{
    __m128i t0 = _mm_unpacklo_epi16(r[0], r[1]);
    __m128i t1 = _mm_unpackhi_epi16(r[0], r[1]);
    __m128i t2 = _mm_unpacklo_epi16(r[2], r[3]);
    __m128i t3 = _mm_unpackhi_epi16(r[2], r[3]);
    __m128i t4 = _mm_unpacklo_epi16(r[4], r[5]);
    __m128i t5 = _mm_unpackhi_epi16(r[4], r[5]);
    __m128i t6 = _mm_unpacklo_epi16(r[6], r[7]);
    __m128i t7 = _mm_unpackhi_epi16(r[6], r[7]);
    __m128i u0 = _mm_unpacklo_epi32(t0, t2);
    __m128i u1 = _mm_unpackhi_epi32(t0, t2);
    __m128i u2 = _mm_unpacklo_epi32(t1, t3);
    __m128i u3 = _mm_unpackhi_epi32(t1, t3);
    __m128i u4 = _mm_unpacklo_epi32(t4, t6);
    __m128i u5 = _mm_unpackhi_epi32(t4, t6);
    __m128i u6 = _mm_unpacklo_epi32(t5, t7);
    __m128i u7 = _mm_unpackhi_epi32(t5, t7);
    r[0] = _mm_unpacklo_epi64(u0, u4);
    r[1] = _mm_unpackhi_epi64(u0, u4);
    r[2] = _mm_unpacklo_epi64(u1, u5);
    r[3] = _mm_unpackhi_epi64(u1, u5);
    r[4] = _mm_unpacklo_epi64(u2, u6);
    r[5] = _mm_unpackhi_epi64(u2, u6);
    r[6] = _mm_unpacklo_epi64(u3, u7);
    r[7] = _mm_unpackhi_epi64(u3, u7);
}

uint64_t
satd8Avx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    __m128i r[8];
    for (int y = 0; y < 8; ++y) {
        __m128i va = _mm_cvtepu8_epi16(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(
                a + static_cast<ptrdiff_t>(y) * a_stride)));
        __m128i vb = _mm_cvtepu8_epi16(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(
                b + static_cast<ptrdiff_t>(y) * b_stride)));
        r[y] = _mm_sub_epi16(va, vb);
    }
    // Columns first, then rows after a transpose: Hadamard passes commute
    // (H X H^T either way), and |values| <= 8*8*255 fits int16 exactly.
    butterflyRows<8>(r);
    transpose8x8Epi16(r);
    butterflyRows<8>(r);
    const __m128i ones = _mm_set1_epi16(1);
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 8; ++y) {
        acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_abs_epi16(r[y]), ones));
    }
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 8));
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 4));
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_cvtsi128_si32(acc)));
}

uint64_t
satd4Avx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    __m128i r[4];
    for (int y = 0; y < 4; ++y) {
        __m128i va = _mm_cvtepu8_epi16(
            load4(a + static_cast<ptrdiff_t>(y) * a_stride));
        __m128i vb = _mm_cvtepu8_epi16(
            load4(b + static_cast<ptrdiff_t>(y) * b_stride));
        r[y] = _mm_sub_epi16(va, vb);  // 4 int16 in the low half, rest 0
    }
    butterflyRows<4>(r);
    // 4x4 int16 transpose of the low halves; re-zero the upper halves so
    // the final reduction only sees real lanes.
    __m128i t0 = _mm_unpacklo_epi16(r[0], r[1]);
    __m128i t1 = _mm_unpacklo_epi16(r[2], r[3]);
    __m128i u0 = _mm_unpacklo_epi32(t0, t1);
    __m128i u1 = _mm_unpackhi_epi32(t0, t1);
    r[0] = _mm_move_epi64(u0);
    r[1] = _mm_srli_si128(u0, 8);
    r[2] = _mm_move_epi64(u1);
    r[3] = _mm_srli_si128(u1, 8);
    butterflyRows<4>(r);
    const __m128i ones = _mm_set1_epi16(1);
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 4; ++y) {
        acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_abs_epi16(r[y]), ones));
    }
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 4));
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_cvtsi128_si32(acc)));
}

// ------------------------------------------------- residual / reconstruct

void
residualAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
             int w, int h, int16_t *dst)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int16_t *rd = dst + static_cast<ptrdiff_t>(y) * w;
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m256i va = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m256i vb = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rb + x)));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(rd + x),
                                _mm256_sub_epi16(va, vb));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i va = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m128i vb = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(rb + x)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(rd + x),
                             _mm_sub_epi16(va, vb));
        }
        for (; x < w; ++x) {
            rd[x] = static_cast<int16_t>(static_cast<int>(ra[x]) -
                                         static_cast<int>(rb[x]));
        }
    }
}

void
reconstructAvx2(const uint8_t *pred, int pred_stride, const int16_t *res,
                int w, int h, uint8_t *dst, int dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *rp = pred + static_cast<ptrdiff_t>(y) * pred_stride;
        const int16_t *rr = res + static_cast<ptrdiff_t>(y) * w;
        uint8_t *rd = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m256i vp = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rp + x)));
            __m256i vr = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(rr + x));
            // Saturating add: pred in [0,255] plus any int16 saturates to
            // the same [0,255] value as the scalar int clamp.
            __m256i s = _mm256_adds_epi16(vp, vr);
            __m256i packed = _mm256_packus_epi16(s, s);
            __m256i ordered = _mm256_permute4x64_epi64(packed, 0x08);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(rd + x),
                             _mm256_castsi256_si128(ordered));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i vp = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(rp + x)));
            __m128i vr =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(rr + x));
            __m128i s = _mm_adds_epi16(vp, vr);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(rd + x),
                             _mm_packus_epi16(s, s));
        }
        for (; x < w; ++x) {
            int v = static_cast<int>(rp[x]) + rr[x];
            rd[x] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
        }
    }
}

// -------------------------------------------------------------- DCT passes
//
// Both transforms run in double lanes, four columns per vector: a column
// pass, then a row pass on the column pass's output transposed in 4x4
// tiles. Every value they form is an integer: sums and differences of
// inputs, their products with basis entries, and partial sums of those.
// While each stays below 2^53 a double holds it exactly, so the lanes
// reach the same integer as the scalar int64 loops before the one
// rounding, in any order and with or without FMA contraction.
//  - fdct: |input| <= 2^15 and 5792 is the largest row abs-sum of any
//    basis, so every value stays below 2^15 * 5792^2 < 2^40.
//  - idct: with every |coeff| < kIdctExactBound (2^28) and 5268 the
//    largest column abs-sum, below 2^28 * 5268^2 + 2^19 < 2^53. A block
//    with a larger coefficient, which no encode produces, goes to the
//    scalar reference.
//
// Each 1-D pass is an exact even/odd butterfly. The rounded basis is
// symmetric at every level, T[s*j][N-1-r] == (-1)^j * T[s*j][r] with
// N = n/s (TransformKernels.BasisIsSymmetricAtEveryLevel), so an N-point
// pass splits into N/2 sums and N/2 differences: the differences feed
// the odd outputs directly, the sums an N/2-point pass at stride 2s. A
// 32-point pass takes 342 multiplies instead of 1024.

/** dctBasis(N) as doubles, row-major [k][i]. */
template <int N>
const double *
basisPd()
{
    static const std::array<double, N * N> table = [] {
        std::array<double, N * N> t{};
        const int32_t *b = dctBasis(N);
        for (int i = 0; i < N * N; ++i) {
            t[i] = b[i];
        }
        return t;
    }();
    return table.data();
}

/**
 * acc[m] += v * t[m * Tm] for each m of the pack, in straight-line code;
 * kFirst starts the sums instead.
 */
template <bool kFirst, int Tm, size_t... M>
inline void
accumulate(__m256d *acc, __m256d v, const double *t,
           std::index_sequence<M...>)
{
    if constexpr (kFirst) {
        ((acc[M] = _mm256_mul_pd(v, _mm256_broadcast_sd(t + M * Tm))), ...);
    } else {
        ((acc[M] = _mm256_add_pd(
              acc[M], _mm256_mul_pd(v, _mm256_broadcast_sd(t + M * Tm)))),
         ...);
    }
}

/**
 * out[m * OutStep] = sum over q < Q of in[q * InStep] * t[q * Tq + m * Tm]
 * for m < M. Eight sums advance side by side in registers, so each
 * input vector is loaded once per eight of them.
 */
template <int M, int Q, int InStep, int Tq, int Tm, int OutStep>
inline void
dot(const __m256d *in, const double *t, __m256d *out)
{
    constexpr int kB = M < 8 ? M : 8;
    for (int m0 = 0; m0 < M; m0 += kB) {
        __m256d acc[kB];
        accumulate<true, Tm>(acc, in[0], t + m0 * Tm,
                             std::make_index_sequence<kB>{});
        for (int q = 1; q < Q; ++q) {
            accumulate<false, Tm>(acc, in[q * InStep], t + q * Tq + m0 * Tm,
                                  std::make_index_sequence<kB>{});
        }
        for (int m = 0; m < kB; ++m) {
            out[(m0 + m) * OutStep] = acc[m];
        }
    }
}

/**
 * Forward N-point pass at stride S of the n = N*S point basis @p t:
 * y[S*j] = sum_r T[S*j][r] * x[r] for j < N.
 */
template <int N, int S>
inline void
fwdPass(const __m256d *x, __m256d *y, const double *t)
{
    constexpr int n = N * S;
    if constexpr (N == 1) {
        y[0] = _mm256_mul_pd(x[0], _mm256_broadcast_sd(t));
    } else {
        __m256d sum[N / 2], diff[N / 2];
        for (int r = 0; r < N / 2; ++r) {
            sum[r] = _mm256_add_pd(x[r], x[N - 1 - r]);
            diff[r] = _mm256_sub_pd(x[r], x[N - 1 - r]);
        }
        // Odd j = 2m+1: row S*j of the basis against the differences.
        dot<N / 2, N / 2, 1, 1, 2 * S * n, 2 * S>(diff, t + S * n, y + S);
        fwdPass<N / 2, 2 * S>(sum, y, t);
    }
}

/**
 * Inverse N-point pass at stride S of the n = N*S point basis @p t:
 * x[r] = sum_j T[S*j][r] * y[S*j] for r < N.
 */
template <int N, int S>
inline void
invPass(const __m256d *y, __m256d *x, const double *t)
{
    constexpr int n = N * S;
    if constexpr (N == 1) {
        x[0] = _mm256_mul_pd(y[0], _mm256_broadcast_sd(t));
    } else {
        __m256d even[N / 2], odd[N / 2];
        invPass<N / 2, 2 * S>(y, even, t);
        // The odd inputs y[S*(2q+1)] against their basis rows.
        dot<N / 2, N / 2, 2 * S, 2 * S * n, 1, 1>(y + S, t + S * n, odd);
        for (int r = 0; r < N / 2; ++r) {
            x[r] = _mm256_add_pd(even[r], odd[r]);
            x[N - 1 - r] = _mm256_sub_pd(even[r], odd[r]);
        }
    }
}

inline void
transpose4(__m256d *v)
{
    __m256d t0 = _mm256_unpacklo_pd(v[0], v[1]);
    __m256d t1 = _mm256_unpackhi_pd(v[0], v[1]);
    __m256d t2 = _mm256_unpacklo_pd(v[2], v[3]);
    __m256d t3 = _mm256_unpackhi_pd(v[2], v[3]);
    v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/**
 * Both passes of an N x N transform: @p load(i, c) gives row i of the
 * input at columns c..c+3, @p store(i, c, v) takes row i of the output
 * at columns c..c+3, still scaled by 2^20.
 */
template <int N, bool kInverse, typename Load, typename Store>
inline void
transform2d(Load load, Store store)
{
    const double *t = basisPd<N>();
    alignas(32) double mid[N * N];  // column pass output, transposed
    __m256d in[N], out[N];
    auto pass = [t](const __m256d *x, __m256d *y) {
        if constexpr (kInverse) {
            invPass<N, 1>(x, y, t);
        } else {
            fwdPass<N, 1>(x, y, t);
        }
    };
    for (int c = 0; c < N; c += 4) {
        for (int i = 0; i < N; ++i) {
            in[i] = load(i, c);
        }
        pass(in, out);
        for (int i = 0; i < N; i += 4) {
            transpose4(out + i);
            for (int q = 0; q < 4; ++q) {
                _mm256_store_pd(mid + (c + q) * N + i, out[i + q]);
            }
        }
    }
    for (int r = 0; r < N; r += 4) {
        for (int c = 0; c < N; ++c) {
            in[c] = _mm256_load_pd(mid + c * N + r);
        }
        pass(in, out);
        for (int i = 0; i < N; i += 4) {
            transpose4(out + i);
            for (int q = 0; q < 4; ++q) {
                store(r + q, i, out[i + q]);
            }
        }
    }
}

/** floor((acc + 2^19) * 2^-20): the scalar (acc + 2^19) >> 20, exactly. */
inline __m256d
descale(__m256d acc)
{
    return _mm256_floor_pd(
        _mm256_mul_pd(_mm256_add_pd(acc, _mm256_set1_pd(1 << 19)),
                      _mm256_set1_pd(1.0 / (1 << 20))));
}

template <int N>
void
fdctPd(const int16_t *src, int32_t *dst)
{
    transform2d<N, false>(
        [src](int r, int c) {
            return _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(src + r * N + c))));
        },
        [dst](int k, int l, __m256d acc) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + k * N + l),
                             _mm256_cvtpd_epi32(descale(acc)));
        });
}

/** True when every |src[i]| < kIdctExactBound. */
inline bool
idctInBound(const int32_t *src, int count)
{
    const __m256i hi = _mm256_set1_epi32(kIdctExactBound - 1);
    const __m256i lo = _mm256_set1_epi32(-(kIdctExactBound - 1));
    __m256i past = _mm256_setzero_si256();
    for (int i = 0; i < count; i += 8) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src + i));
        past = _mm256_or_si256(past, _mm256_cmpgt_epi32(v, hi));
        past = _mm256_or_si256(past, _mm256_cmpgt_epi32(lo, v));
    }
    return _mm256_testz_si256(past, past);
}

template <int N>
void
idctPd(const int32_t *src, int16_t *dst)
{
    if (!idctInBound(src, N * N)) {
        scalarKernels().idct(src, dst, N);
        return;
    }
    // Clamping in double before the conversion keeps out-of-int32
    // values from turning into the conversion's INT32_MIN sentinel.
    const __m256d lo = _mm256_set1_pd(-32768.0);
    const __m256d hi = _mm256_set1_pd(32767.0);
    transform2d<N, true>(
        [src](int k, int c) {
            return _mm256_cvtepi32_pd(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + k * N + c)));
        },
        [dst, lo, hi](int r, int i, __m256d acc) {
            __m128i v = _mm256_cvtpd_epi32(
                _mm256_min_pd(_mm256_max_pd(descale(acc), lo), hi));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + r * N + i),
                             _mm_packs_epi32(v, v));
        });
}

void
fdctAvx2(const int16_t *src, int32_t *dst, int n)
{
    switch (n) {
      case 4: fdctPd<4>(src, dst); return;
      case 8: fdctPd<8>(src, dst); return;
      case 16: fdctPd<16>(src, dst); return;
      case 32: fdctPd<32>(src, dst); return;
      default: scalarKernels().fdct(src, dst, n); return;
    }
}

void
idctAvx2(const int32_t *src, int16_t *dst, int n)
{
    switch (n) {
      case 4: idctPd<4>(src, dst); return;
      case 8: idctPd<8>(src, dst); return;
      case 16: idctPd<16>(src, dst); return;
      case 32: idctPd<32>(src, dst); return;
      default: scalarKernels().idct(src, dst, n); return;
    }
}

// ------------------------------------------------------------- sub-pel

/**
 * One row of @p W (4, 8 or 16) 4-tap (-1,5,5,-1)/8 outputs along
 * direction @p d, packed to bytes. In 16-bit lanes 5*(b+c) - (a+d) + 4
 * lies in [-506, 2554], so nothing overflows and srai is the scalar >> 3;
 * packus then clamps to [0, 255] exactly like the scalar clamp. The
 * loads are exactly W bytes wide, so nothing outside the filter's
 * footprint is read.
 */
template <int W>
inline __m128i
tap4Row(const uint8_t *p, ptrdiff_t d)
{
    if constexpr (W == 16) {
        auto ld = [](const uint8_t *q) {
            return _mm256_cvtepu8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(q)));
        };
        __m256i bc = _mm256_add_epi16(ld(p), ld(p + d));
        __m256i v = _mm256_sub_epi16(
            _mm256_add_epi16(_mm256_slli_epi16(bc, 2), bc),
            _mm256_add_epi16(ld(p - d), ld(p + 2 * d)));
        v = _mm256_srai_epi16(_mm256_add_epi16(v, _mm256_set1_epi16(4)), 3);
        return _mm256_castsi256_si128(
            _mm256_permute4x64_epi64(_mm256_packus_epi16(v, v), 0x08));
    } else {
        auto ld = [](const uint8_t *q) {
            if constexpr (W == 8) {
                return _mm_cvtepu8_epi16(
                    _mm_loadl_epi64(reinterpret_cast<const __m128i *>(q)));
            } else {
                return _mm_cvtepu8_epi16(load4(q));
            }
        };
        __m128i bc = _mm_add_epi16(ld(p), ld(p + d));
        __m128i v = _mm_sub_epi16(_mm_add_epi16(_mm_slli_epi16(bc, 2), bc),
                                  _mm_add_epi16(ld(p - d), ld(p + 2 * d)));
        v = _mm_srai_epi16(_mm_add_epi16(v, _mm_set1_epi16(4)), 3);
        return _mm_packus_epi16(v, v);
    }
}

template <int W>
inline void
storeRow(uint8_t *p, __m128i v)
{
    if constexpr (W == 16) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
    } else if constexpr (W == 8) {
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p), v);
    } else {
        int lo = _mm_cvtsi128_si32(v);
        std::memcpy(p, &lo, 4);
    }
}

/**
 * A W-wide column of the block, top to bottom. kAvg (both phases)
 * averages each row's tap with the next row's; pavgb is the scalar
 * (v + v' + 1) >> 1, and each row's tap is computed once.
 */
template <int W, bool kAvg>
void
subpel4Column(const uint8_t *src, ptrdiff_t stride, ptrdiff_t d, int h,
              uint8_t *dst, ptrdiff_t dst_stride)
{
    __m128i prev = kAvg ? tap4Row<W>(src, d) : _mm_setzero_si128();
    for (int y = 0; y < h; ++y) {
        __m128i v = tap4Row<W>(src + (kAvg ? y + 1 : y) * stride, d);
        if constexpr (kAvg) {
            __m128i next = v;
            v = _mm_avg_epu8(prev, next);
            prev = next;
        }
        storeRow<W>(dst + y * dst_stride, v);
    }
}

/** Filters the leftmost multiple-of-4 columns; returns how many. */
template <bool kAvg>
int
subpel4Columns(const uint8_t *src, ptrdiff_t stride, ptrdiff_t d, int w,
               int h, uint8_t *dst, ptrdiff_t dst_stride)
{
    int x = 0;
    for (; x + 16 <= w; x += 16) {
        subpel4Column<16, kAvg>(src + x, stride, d, h, dst + x, dst_stride);
    }
    if (x + 8 <= w) {
        subpel4Column<8, kAvg>(src + x, stride, d, h, dst + x, dst_stride);
        x += 8;
    }
    if (x + 4 <= w) {
        subpel4Column<4, kAvg>(src + x, stride, d, h, dst + x, dst_stride);
        x += 4;
    }
    return x;
}

void
subpel4Avx2(const uint8_t *src, int src_stride, int w, int h, bool half_x,
            bool half_y, uint8_t *dst, int dst_stride)
{
    const int done =
        half_x && half_y
            ? subpel4Columns<true>(src, src_stride, 1, w, h, dst, dst_stride)
            : subpel4Columns<false>(src, src_stride,
                                    half_x ? 1 : src_stride, w, h, dst,
                                    dst_stride);
    if (done < w) {
        // The last w % 4 columns; no encode block is that narrow.
        scalarKernels().subpel4(src + done, src_stride, w - done, h, half_x,
                                half_y, dst + done, dst_stride);
    }
}

// ------------------------------------------------------- quant / dequant

int
quantAvx2(const int32_t *coeff, int32_t *levels, int count, double dead_zone,
          double inv_step)
{
    const __m256d pos_dz = _mm256_set1_pd(dead_zone);
    const __m256d neg_dz = _mm256_set1_pd(-dead_zone);
    const __m256d inv = _mm256_set1_pd(inv_step);
    const __m256d zero = _mm256_setzero_pd();
    const __m128i izero = _mm_setzero_si128();
    int nonzero = 0;
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i c4 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(coeff + i));
        __m256d cd = _mm256_cvtepi32_pd(c4);
        __m256d ge0 = _mm256_cmp_pd(cd, zero, _CMP_GE_OQ);
        __m256d adj = _mm256_blendv_pd(neg_dz, pos_dz, ge0);
        __m256d v = _mm256_mul_pd(_mm256_add_pd(cd, adj), inv);
        __m128i l4 = _mm256_cvttpd_epi32(v);  // truncation == scalar cast
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + i), l4);
        int zmask =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(l4, izero)));
        nonzero += 4 - __builtin_popcount(zmask & 0xF);
    }
    for (; i < count; ++i) {
        double v = coeff[i] >= 0 ? (coeff[i] + dead_zone) * inv_step
                                 : (coeff[i] - dead_zone) * inv_step;
        levels[i] = static_cast<int32_t>(v);
        nonzero += levels[i] != 0;
    }
    return nonzero;
}

void
dequantAvx2(const int32_t *levels, int32_t *coeff, int count, double step)
{
    const __m256d vstep = _mm256_set1_pd(step);
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i l4 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(levels + i));
        __m256d v = _mm256_mul_pd(_mm256_cvtepi32_pd(l4), vstep);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(coeff + i),
                         _mm256_cvttpd_epi32(v));
    }
    for (; i < count; ++i) {
        coeff[i] = static_cast<int32_t>(levels[i] * step);
    }
}

void
boxdownAvx2(const uint8_t *src, int src_stride, int factor, uint8_t *dst,
            int dw)
{
    if (factor == 2) {
        // The ladder's hot case: 2x2 boxes. maddubs with a ones vector
        // sums horizontal pairs into exact u16 lanes (max 510), two rows
        // add to <= 1020, so (sum + 2) >> 2 equals the scalar
        // (sum + 2) / 4 with no overflow anywhere.
        const __m256i ones = _mm256_set1_epi8(1);
        const __m256i two = _mm256_set1_epi16(2);
        int i = 0;
        for (; i + 16 <= dw; i += 16) {
            const uint8_t *r0 = src + static_cast<ptrdiff_t>(i) * 2;
            const uint8_t *r1 = r0 + src_stride;
            __m256i p0 = _mm256_maddubs_epi16(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(r0)),
                ones);
            __m256i p1 = _mm256_maddubs_epi16(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(r1)),
                ones);
            __m256i sum = _mm256_add_epi16(_mm256_add_epi16(p0, p1), two);
            __m256i res = _mm256_srli_epi16(sum, 2);
            __m256i packed = _mm256_packus_epi16(res, res);
            packed = _mm256_permute4x64_epi64(packed, 0xD8);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                             _mm256_castsi256_si128(packed));
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
    // General factors are rare (the driver applies scale as repeated /2
    // where it can); keep the exact scalar arithmetic.
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
lerpblendAvx2(const uint8_t *a, const uint8_t *b, int w6, uint8_t *dst,
              int n)
{
    // a*(64-w6) + b*w6 + 32 <= 255*64 + 32 = 16352 < 2^15: the whole
    // expression fits an s16 lane, so mullo/add/srli match the scalar
    // integer arithmetic exactly.
    const __m256i wa = _mm256_set1_epi16(static_cast<short>(64 - w6));
    const __m256i wb = _mm256_set1_epi16(static_cast<short>(w6));
    const __m256i bias = _mm256_set1_epi16(32);
    int i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        __m256i alo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(va));
        __m256i ahi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(va, 1));
        __m256i blo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vb));
        __m256i bhi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(vb, 1));
        __m256i lo = _mm256_srli_epi16(
            _mm256_add_epi16(_mm256_add_epi16(_mm256_mullo_epi16(alo, wa),
                                              _mm256_mullo_epi16(blo, wb)),
                             bias),
            6);
        __m256i hi = _mm256_srli_epi16(
            _mm256_add_epi16(_mm256_add_epi16(_mm256_mullo_epi16(ahi, wa),
                                              _mm256_mullo_epi16(bhi, wb)),
                             bias),
            6);
        __m256i packed = _mm256_packus_epi16(lo, hi);
        packed = _mm256_permute4x64_epi64(packed, 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), packed);
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
avx2KernelsImpl()
{
    static const KernelTable table = [] {
        KernelTable t = scalarKernels();
        t.isa = "avx2";
        t.sad = sadAvx2;
        t.sse = sseAvx2;
        t.satd4 = satd4Avx2;
        t.satd8 = satd8Avx2;
        t.residual = residualAvx2;
        t.reconstruct = reconstructAvx2;
        t.fdct = fdctAvx2;
        t.idct = idctAvx2;
        t.quant = quantAvx2;
        t.dequant = dequantAvx2;
        t.boxdown = boxdownAvx2;
        t.lerpblend = lerpblendAvx2;
        t.subpel4 = subpel4Avx2;
        return t;
    }();
    return &table;
}

} // namespace detail

} // namespace vepro::codec

#endif // __AVX2__
