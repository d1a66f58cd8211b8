/**
 * @file
 * Bit-equivalence property suite for the runtime-dispatched SIMD kernel
 * tables (codec/kernels.hpp).
 *
 * Every vector table the build provides (the dispatched table plus the
 * explicit AVX2/NEON tables when compiled in and supported by the host)
 * must produce output bit-identical to the scalar reference for every
 * kernel, across randomised blocks of many widths/heights/strides and
 * full-range transform/quantiser inputs. Any divergence would silently
 * change RD decisions and every reproduced figure, so these tests treat
 * a single differing bit as failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "codec/kernels.hpp"
#include "codec/quant.hpp"
#include "codec/transform.hpp"

namespace vepro::codec
{
namespace
{

/** All non-reference tables available in this build/host. */
std::vector<const KernelTable *>
tablesUnderTest()
{
    std::vector<const KernelTable *> tables{&kernels()};
    if (const KernelTable *t = avx2Kernels()) {
        tables.push_back(t);
    }
    if (const KernelTable *t = neonKernels()) {
        tables.push_back(t);
    }
    return tables;
}

struct Block {
    std::vector<uint8_t> buf;
    int stride = 0;
};

/** Random pixels with a randomised padded stride. */
Block
randomBlock(int w, int h, std::mt19937 &rng)
{
    std::uniform_int_distribution<int> pad(0, 24);
    std::uniform_int_distribution<int> pix(0, 255);
    Block b;
    b.stride = w + pad(rng);
    b.buf.resize(static_cast<size_t>(b.stride) * h);
    for (uint8_t &x : b.buf) {
        x = static_cast<uint8_t>(pix(rng));
    }
    return b;
}

/**
 * A sub-pel source: random pixels covering exactly the rows -1..h+1 and
 * columns -1..w+1 around @p origin, with a randomised padded stride.
 */
struct SubpelSource {
    std::vector<uint8_t> buf;
    int stride = 0;
    const uint8_t *origin = nullptr;
};

SubpelSource
subpelSource(int w, int h, std::mt19937 &rng)
{
    std::uniform_int_distribution<int> pad(0, 24);
    std::uniform_int_distribution<int> pix(0, 255);
    SubpelSource src;
    src.stride = w + 3 + pad(rng);
    src.buf.resize(static_cast<size_t>(h + 2) * src.stride + w + 3);
    for (uint8_t &x : src.buf) {
        x = static_cast<uint8_t>(pix(rng));
    }
    src.origin = src.buf.data() + src.stride + 1;
    return src;
}

using Geometry = std::tuple<int, int, uint64_t>;  // width, height, seed

class PixelKernels : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(PixelKernels, BitIdenticalToScalar)
{
    auto [w, h, seed] = GetParam();
    std::mt19937 rng(seed * 7919 + w * 64 + h);
    Block a = randomBlock(w, h, rng);
    Block b = randomBlock(w, h, rng);
    std::vector<int16_t> res(static_cast<size_t>(w) * h);
    std::uniform_int_distribution<int> r16(-32768, 32767);
    for (int16_t &x : res) {
        x = static_cast<int16_t>(r16(rng));
    }
    const SubpelSource sub = subpelSource(w, h, rng);

    const KernelTable &s = scalarKernels();
    for (const KernelTable *v : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + v->isa);

        EXPECT_EQ(s.sad(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h),
                  v->sad(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h));
        EXPECT_EQ(s.sse(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h),
                  v->sse(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h));
        if (w >= 4 && h >= 4) {
            EXPECT_EQ(s.satd4(a.buf.data(), a.stride, b.buf.data(), b.stride),
                      v->satd4(a.buf.data(), a.stride, b.buf.data(), b.stride));
        }
        if (w >= 8 && h >= 8) {
            EXPECT_EQ(s.satd8(a.buf.data(), a.stride, b.buf.data(), b.stride),
                      v->satd8(a.buf.data(), a.stride, b.buf.data(), b.stride));
        }

        std::vector<int16_t> res_s(res.size()), res_v(res.size());
        s.residual(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h,
                   res_s.data());
        v->residual(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h,
                    res_v.data());
        EXPECT_EQ(0, std::memcmp(res_s.data(), res_v.data(),
                                 res_s.size() * sizeof(int16_t)));

        std::vector<uint8_t> dst_s(a.buf.size(), 0), dst_v(a.buf.size(), 0);
        s.reconstruct(a.buf.data(), a.stride, res.data(), w, h, dst_s.data(),
                      a.stride);
        v->reconstruct(a.buf.data(), a.stride, res.data(), w, h, dst_v.data(),
                       a.stride);
        EXPECT_EQ(dst_s, dst_v);

        // Scaling kernels (ABR ladder rungs). boxdown: every factor
        // whose boxes fit fully inside the block (partial edge boxes
        // are scalar caller code by contract).
        for (int factor : {1, 2, 3, 4}) {
            if (w < factor || h < factor) {
                continue;
            }
            const int dw = w / factor;
            std::vector<uint8_t> down_s(dw, 0), down_v(dw, 0);
            s.boxdown(a.buf.data(), a.stride, factor, down_s.data(), dw);
            v->boxdown(a.buf.data(), a.stride, factor, down_v.data(), dw);
            EXPECT_EQ(down_s, down_v) << "factor=" << factor;
        }

        // subpel4, every phase. The source buffer holds the block plus
        // the filter's margin (one pel before, two after) and ends with
        // the last byte the filter may read, so a vector load past the
        // footprint trips ASan.
        for (auto [half_x, half_y] : {std::pair{true, false},
                                      std::pair{false, true},
                                      std::pair{true, true}}) {
            SCOPED_TRACE("half_x=" + std::to_string(half_x) +
                         " half_y=" + std::to_string(half_y));
            std::vector<uint8_t> mc_s(b.buf.size(), 0), mc_v(b.buf.size(), 0);
            s.subpel4(sub.origin, sub.stride, w, h, half_x, half_y,
                      mc_s.data(), b.stride);
            v->subpel4(sub.origin, sub.stride, w, h, half_x, half_y,
                       mc_v.data(), b.stride);
            EXPECT_EQ(mc_s, mc_v);
        }

        // lerpblend: the full 6-bit weight range including both exact
        // endpoints (w6 == 0 must reproduce `a` bit-for-bit).
        for (int w6 : {0, 1, 21, 32, 63, 64}) {
            std::vector<uint8_t> mix_s(w), mix_v(w);
            s.lerpblend(a.buf.data(), b.buf.data(), w6, mix_s.data(), w);
            v->lerpblend(a.buf.data(), b.buf.data(), w6, mix_v.data(), w);
            EXPECT_EQ(mix_s, mix_v) << "w6=" << w6;
            if (w6 == 0) {
                EXPECT_EQ(0, std::memcmp(mix_s.data(), a.buf.data(),
                                         static_cast<size_t>(w)));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PixelKernels,
    ::testing::Combine(::testing::Values(4, 5, 8, 12, 16, 24, 31, 32, 48, 64),
                       ::testing::Values(4, 7, 8, 12, 16, 24, 32, 48, 64),
                       ::testing::Values(1u, 2u, 3u)));

using TxCase = std::tuple<int, uint64_t>;  // transform size, seed

class TransformKernels : public ::testing::TestWithParam<TxCase>
{
};

int
sgn(int64_t v)
{
    return v < 0 ? -1 : 1;
}

/** Sum over k of |T[k][i]|: the abs-sum of basis column @p i. */
int64_t
columnAbsSum(const int32_t *t, int n, int i, int k0 = 0, int k_step = 1)
{
    int64_t sum = 0;
    for (int k = k0; k < n; k += k_step) {
        sum += std::abs(t[k * n + i]);
    }
    return sum;
}

/**
 * idct blocks on both sides of kIdctExactBound: every entry at
 * +-(B - 1), the same with one entry at +-B, and all INT32_MIN, all
 * INT32_MAX and a random mix of the two. Signs come from @p rng.
 */
std::vector<std::vector<int32_t>>
idctBoundBlocks(int n, std::mt19937 &rng)
{
    const size_t count = static_cast<size_t>(n) * n;
    std::bernoulli_distribution coin(0.5);
    std::vector<int32_t> at(count), mix(count);
    for (size_t i = 0; i < count; ++i) {
        at[i] = coin(rng) ? kIdctExactBound - 1 : -(kIdctExactBound - 1);
        mix[i] = coin(rng) ? INT32_MAX : INT32_MIN;
    }
    std::vector<int32_t> past = at;
    std::uniform_int_distribution<size_t> entry(0, count - 1);
    past[entry(rng)] = coin(rng) ? kIdctExactBound : -kIdctExactBound;
    return {at, past, std::vector<int32_t>(count, INT32_MIN),
            std::vector<int32_t>(count, INT32_MAX), mix};
}

/**
 * For n >= 16, two past-the-bound idct blocks whose output (r0, i0)
 * lands inside int16 while the even and the odd half of its row-pass
 * sum each pass 2^53, so a double lane that rounds them cannot hide
 * behind the clamp. The exact sum sits on a rounding boundary: in the
 * first block a sum one too small, in the second one too large, moves
 * that output by one.
 */
std::vector<std::vector<int32_t>>
idctCancellingBlocks(int n)
{
    if (n < 16) {
        return {};  // even all of int32 keeps these halves below 2^53
    }
    const int32_t *t = dctBasis(n);
    auto T = [&](int k, int i) { return static_cast<int64_t>(t[k * n + i]); };
    // r0: the column-pass output row that can grow largest; i0: the
    // row-pass output whose smaller half can.
    auto smallerHalf = [&](int i) {
        return std::min(columnAbsSum(t, n, i, 0, 2),
                        columnAbsSum(t, n, i, 1, 2));
    };
    int r0 = 0, i0 = 0;
    for (int c = 1; c < n; ++c) {
        if (columnAbsSum(t, n, c) > columnAbsSum(t, n, r0)) {
            r0 = c;
        }
        if (smallerHalf(c) > smallerHalf(i0)) {
            i0 = c;
        }
    }
    const int64_t col = columnAbsSum(t, n, r0);
    const int64_t even = columnAbsSum(t, n, i0, 0, 2);
    const int64_t odd = columnAbsSum(t, n, i0, 1, 2);
    // Entries just large enough that both halves pass 2^53, the larger
    // half scaled down to cancel the smaller.
    const int64_t m = std::min<int64_t>(
        INT32_MAX - 200, (1LL << 53) / (std::min(even, odd) * col) * 3 / 2);
    const int64_t m_even = even > odd ? m * odd / even : m;
    const int64_t m_odd = even > odd ? m : m * even / odd;

    // coeff[j][k] gives tmp[r0][k] the sign that makes every even term
    // T[k][i0] * tmp[r0][k] positive and every odd one negative; the
    // small ragged offsets keep the low bits of the terms busy.
    std::vector<int32_t> base(static_cast<size_t>(n) * n);
    for (int j = 0; j < n; ++j) {
        for (int k = 0; k < n; ++k) {
            const int64_t mag =
                (k % 2 == 0 ? m_even : m_odd) - (j * 31 + k * 17) % 97;
            const int sign = sgn(T(j, r0)) * sgn(T(k, i0)) * (k % 2 ? -1 : 1);
            base[static_cast<size_t>(j) * n + k] =
                static_cast<int32_t>(sign * mag);
        }
    }
    // Exact even and odd halves of output (r0, i0)'s row-pass sum.
    auto halvesOf = [&](const std::vector<int32_t> &coeff) {
        int64_t h[2] = {0, 0};
        for (int k = 0; k < n; ++k) {
            int64_t tmp = 0;
            for (int j = 0; j < n; ++j) {
                tmp += T(j, r0) * coeff[static_cast<size_t>(j) * n + k];
            }
            h[k % 2] += T(k, i0) * tmp;
        }
        return std::pair{h[0], h[1]};
    };
    // The entry with the smallest odd weight T[k][i0] * T[j][r0] sets the
    // sum modulo 2^20 without moving it far.
    int j1 = 0, k1 = 0;
    for (int j = 0; j < n; ++j) {
        for (int k = 0; k < n; ++k) {
            const int64_t c = T(k, i0) * T(j, r0);
            const int64_t best = T(k1, i0) * T(j1, r0);
            if ((c & 1) && (!(best & 1) || std::abs(c) < std::abs(best))) {
                j1 = j;
                k1 = k;
            }
        }
    }
    // Moving that entry toward zero by delta adds g * delta to the sum.
    const int entry_sign = sgn(base[static_cast<size_t>(j1) * n + k1]);
    const int64_t g = -entry_sign * T(k1, i0) * T(j1, r0);
    uint64_t g_inv = static_cast<uint64_t>(g);  // Newton: inverse mod 2^64
    for (int it = 0; it < 6; ++it) {
        g_inv *= 2 - static_cast<uint64_t>(g) * g_inv;
    }
    constexpr uint64_t kMask = (1u << 20) - 1;
    std::vector<std::vector<int32_t>> blocks;
    for (int64_t target : {int64_t{0}, int64_t{kMask}}) {
        std::vector<int32_t> coeff = base;
        auto [e, o] = halvesOf(coeff);
        // Want e + o + g * delta + 2^19 == target (mod 2^20).
        const uint64_t want =
            static_cast<uint64_t>(target - (e + o) - (1 << 19)) & kMask;
        const int64_t delta = static_cast<int64_t>((want * g_inv) & kMask);
        coeff[static_cast<size_t>(j1) * n + k1] -=
            static_cast<int32_t>(entry_sign * delta);
        std::tie(e, o) = halvesOf(coeff);
        EXPECT_EQ((e + o + (1 << 19)) & static_cast<int64_t>(kMask), target);
        EXPECT_GT(std::min(std::abs(e), std::abs(o)), int64_t{1} << 53);
        EXPECT_LT(std::abs(e + o) + (1 << 19), int64_t{1} << 35)
            << "output (" << r0 << ", " << i0 << ") must land inside int16";
        for (int32_t x : coeff) {
            EXPECT_GE(std::abs(static_cast<int64_t>(x)), kIdctExactBound);
        }
        blocks.push_back(std::move(coeff));
    }
    return blocks;
}

TEST_P(TransformKernels, FdctIdctBitIdenticalToScalar)
{
    auto [n, seed] = GetParam();
    std::mt19937 rng(seed * 104729 + n);
    const size_t count = static_cast<size_t>(n) * n;

    std::vector<int16_t> src(count);
    std::uniform_int_distribution<int> r16(-32768, 32767);
    for (int16_t &x : src) {
        x = static_cast<int16_t>(r16(rng));
    }
    // A full-scale block aligned with one basis function: the fdct's
    // largest intermediates.
    const int32_t *t = dctBasis(n);
    const int k0 = static_cast<int>(seed) % n;
    std::vector<int16_t> peak(count);
    for (int r = 0; r < n; ++r) {
        for (int i = 0; i < n; ++i) {
            peak[static_cast<size_t>(r) * n + i] =
                sgn(t[k0 * n + r]) * sgn(t[k0 * n + i]) > 0 ? 32767 : -32768;
        }
    }

    const KernelTable &s = scalarKernels();
    for (const KernelTable *v : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + v->isa);

        std::vector<int32_t> out_s(count), out_v(count);
        s.fdct(src.data(), out_s.data(), n);
        v->fdct(src.data(), out_v.data(), n);
        EXPECT_EQ(out_s, out_v);
        std::vector<int32_t> peak_s(count), peak_v(count);
        s.fdct(peak.data(), peak_s.data(), n);
        v->fdct(peak.data(), peak_v.data(), n);
        EXPECT_EQ(peak_s, peak_v);

        // Inverse on real forward output, on independent random
        // coefficients well past the usual coefficient range, and on
        // both sides of the vector path's bound.
        std::vector<int32_t> coeff(count);
        std::uniform_int_distribution<int32_t> r22(-(1 << 22), 1 << 22);
        for (int32_t &x : coeff) {
            x = r22(rng);
        }
        std::vector<std::vector<int32_t>> inputs{out_s, coeff};
        for (const auto &blocks :
             {idctBoundBlocks(n, rng), idctCancellingBlocks(n)}) {
            inputs.insert(inputs.end(), blocks.begin(), blocks.end());
        }
        for (size_t b = 0; b < inputs.size(); ++b) {
            std::vector<int16_t> pix_s(count), pix_v(count);
            s.idct(inputs[b].data(), pix_s.data(), n);
            v->idct(inputs[b].data(), pix_v.data(), n);
            EXPECT_EQ(pix_s, pix_v) << "idct input block " << b;
        }
    }
}

/**
 * The vector transforms' butterflies need the rounded basis to be
 * symmetric at every recursion level: T[s*j][N-1-r] == (-1)^j T[s*j][r]
 * with N = n/s, for every power of two s <= n.
 */
TEST(TransformKernels, BasisIsSymmetricAtEveryLevel)
{
    for (int n : {4, 8, 16, 32}) {
        const int32_t *t = dctBasis(n);
        for (int s = 1; s <= n; s *= 2) {
            const int big_n = n / s;
            for (int j = 0; j < big_n; ++j) {
                for (int r = 0; r < big_n; ++r) {
                    EXPECT_EQ(t[s * j * n + big_n - 1 - r],
                              (j % 2 ? -1 : 1) * t[s * j * n + r])
                        << "n=" << n << " s=" << s << " j=" << j
                        << " r=" << r;
                }
            }
        }
    }
}

/**
 * ...and every intermediate to stay an integer below 2^53: the fdct's
 * below 2^15 times the largest row abs-sum squared, the idct's below
 * kIdctExactBound times the largest column abs-sum squared.
 */
TEST(TransformKernels, DoubleLanesStayBelow2To53)
{
    for (int n : {4, 8, 16, 32}) {
        const int32_t *t = dctBasis(n);
        int64_t row = 0, col = 0;
        for (int a = 0; a < n; ++a) {
            int64_t row_a = 0;
            for (int i = 0; i < n; ++i) {
                row_a += std::abs(t[a * n + i]);
            }
            row = std::max(row, row_a);
            col = std::max(col, columnAbsSum(t, n, a));
        }
        EXPECT_LT((int64_t{1} << 15) * row * row + (1 << 19),
                  int64_t{1} << 53) << "n=" << n;
        EXPECT_LT(kIdctExactBound * col * col + (1 << 19), int64_t{1} << 53)
            << "n=" << n;
    }
}

TEST_P(TransformKernels, QuantDequantBitIdenticalToScalar)
{
    auto [n, seed] = GetParam();
    std::mt19937 rng(seed * 15485863 + n);
    const size_t count = static_cast<size_t>(n) * n;

    std::vector<int32_t> coeff(count);
    std::uniform_int_distribution<int32_t> rc(-(1 << 22), 1 << 22);
    for (int32_t &x : coeff) {
        x = rc(rng);
    }
    // Sprinkle exact zeros: the dead-zone sign select must treat them
    // identically in both paths.
    for (size_t i = 0; i < count; i += 5) {
        coeff[i] = 0;
    }

    const KernelTable &s = scalarKernels();
    for (int q_index : {0, 17, 30, 51, 63}) {
        // Same step curve the Quantizer uses.
        double t = static_cast<double>(q_index) / 63.0;
        double step = 0.6 * std::pow(2.0, t * 8.1);
        double inv_step = 1.0 / step;
        double dead_zone = step * 0.4;

        for (const KernelTable *v : tablesUnderTest()) {
            SCOPED_TRACE(std::string("isa=") + v->isa + " q=" +
                         std::to_string(q_index));

            std::vector<int32_t> lv_s(count), lv_v(count);
            int nz_s = s.quant(coeff.data(), lv_s.data(),
                               static_cast<int>(count), dead_zone, inv_step);
            int nz_v = v->quant(coeff.data(), lv_v.data(),
                                static_cast<int>(count), dead_zone, inv_step);
            EXPECT_EQ(nz_s, nz_v);
            EXPECT_EQ(lv_s, lv_v);

            std::vector<int32_t> dq_s(count), dq_v(count);
            s.dequant(lv_s.data(), dq_s.data(), static_cast<int>(count), step);
            v->dequant(lv_s.data(), dq_v.data(), static_cast<int>(count),
                       step);
            EXPECT_EQ(dq_s, dq_v);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransformKernels,
                         ::testing::Combine(::testing::Values(4, 8, 16, 32),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(KernelDispatch, ResolvesToKnownIsa)
{
    std::string isa = kernelIsaName();
    EXPECT_TRUE(isa == "scalar" || isa == "avx2" || isa == "neon") << isa;
    // When the override is active (e.g. the forced-scalar CI leg runs
    // this binary with VEPRO_FORCE_SCALAR=1), dispatch must honour it.
    if (const char *force = std::getenv("VEPRO_FORCE_SCALAR");
        force != nullptr && force[0] == '1') {
        EXPECT_EQ(isa, "scalar");
    }
}

/**
 * A vector table is handed out exactly when it is compiled in and the
 * host runs its ISA, so tests and benches that call the accessors never
 * execute instructions the host lacks.
 */
TEST(KernelDispatch, VectorTablesOnlyWhereTheHostRunsThem)
{
#if defined(VEPRO_HAVE_AVX2)
    EXPECT_EQ(avx2Kernels() != nullptr, __builtin_cpu_supports("avx2") != 0);
#else
    EXPECT_EQ(avx2Kernels(), nullptr);
#endif
#if !defined(VEPRO_HAVE_NEON)
    EXPECT_EQ(neonKernels(), nullptr);
#endif
    if (const char *force = std::getenv("VEPRO_FORCE_SCALAR");
        force == nullptr || force[0] != '1') {
        const KernelTable *widest =
            avx2Kernels() != nullptr ? avx2Kernels() : neonKernels();
        EXPECT_EQ(&kernels(), widest != nullptr ? widest : &scalarKernels());
    }
}

TEST(KernelDispatch, AllEntriesPopulated)
{
    for (const KernelTable *t : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + t->isa);
        EXPECT_NE(t->sad, nullptr);
        EXPECT_NE(t->sse, nullptr);
        EXPECT_NE(t->satd4, nullptr);
        EXPECT_NE(t->satd8, nullptr);
        EXPECT_NE(t->residual, nullptr);
        EXPECT_NE(t->reconstruct, nullptr);
        EXPECT_NE(t->fdct, nullptr);
        EXPECT_NE(t->idct, nullptr);
        EXPECT_NE(t->quant, nullptr);
        EXPECT_NE(t->dequant, nullptr);
        EXPECT_NE(t->boxdown, nullptr);
        EXPECT_NE(t->lerpblend, nullptr);
        EXPECT_NE(t->subpel4, nullptr);
    }
}

} // namespace
} // namespace vepro::codec
