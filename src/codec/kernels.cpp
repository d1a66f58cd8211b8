#include "codec/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "codec/transform.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace vepro::codec
{

namespace
{

// ---------------------------------------------------------------------
// Scalar reference kernels. These are the semantics every vector table
// must reproduce bit for bit; keep them boring and obviously correct.
// ---------------------------------------------------------------------

uint64_t
sadScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    uint64_t sum = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        for (int x = 0; x < w; ++x) {
            sum += static_cast<uint64_t>(std::abs(static_cast<int>(ra[x]) -
                                                  static_cast<int>(rb[x])));
        }
    }
    return sum;
}

uint64_t
sseScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    uint64_t sum = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        for (int x = 0; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            sum += static_cast<uint64_t>(d) * static_cast<uint64_t>(d);
        }
    }
    return sum;
}

/** In-place length-n Hadamard butterfly on int32 data. */
void
hadamard1d(int32_t *v, int n, int stride)
{
    for (int len = 1; len < n; len <<= 1) {
        for (int i = 0; i < n; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                int32_t x = v[j * stride];
                int32_t y = v[(j + len) * stride];
                v[j * stride] = x + y;
                v[(j + len) * stride] = x - y;
            }
        }
    }
}

/** Raw (unnormalised) Hadamard abs-sum of one n x n tile. */
template <int N>
uint64_t
satdTileScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    int32_t buf[N * N];
    for (int y = 0; y < N; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        for (int x = 0; x < N; ++x) {
            buf[y * N + x] = static_cast<int32_t>(ra[x]) - rb[x];
        }
    }
    for (int y = 0; y < N; ++y) {
        hadamard1d(buf + y * N, N, 1);
    }
    for (int x = 0; x < N; ++x) {
        hadamard1d(buf + x, N, N);
    }
    uint64_t sum = 0;
    for (int i = 0; i < N * N; ++i) {
        sum += static_cast<uint64_t>(std::abs(buf[i]));
    }
    return sum;
}

void
residualScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
               int w, int h, int16_t *dst)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int16_t *rd = dst + static_cast<ptrdiff_t>(y) * w;
        for (int x = 0; x < w; ++x) {
            rd[x] = static_cast<int16_t>(static_cast<int>(ra[x]) -
                                         static_cast<int>(rb[x]));
        }
    }
}

void
reconstructScalar(const uint8_t *pred, int pred_stride, const int16_t *res,
                  int w, int h, uint8_t *dst, int dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *rp = pred + static_cast<ptrdiff_t>(y) * pred_stride;
        const int16_t *rr = res + static_cast<ptrdiff_t>(y) * w;
        uint8_t *rd = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        for (int x = 0; x < w; ++x) {
            int v = static_cast<int>(rp[x]) + rr[x];
            rd[x] = static_cast<uint8_t>(std::clamp(v, 0, 255));
        }
    }
}

constexpr int kFracBits = 10;  // basis scale = 1024

std::vector<int32_t>
makeBasis(int n)
{
    std::vector<int32_t> fwd(static_cast<size_t>(n) * n);
    for (int k = 0; k < n; ++k) {
        double ck = k == 0 ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n);
        for (int i = 0; i < n; ++i) {
            double v = ck * std::cos((2 * i + 1) * k * M_PI / (2.0 * n));
            fwd[static_cast<size_t>(k) * n + i] =
                static_cast<int32_t>(std::lround(v * (1 << kFracBits)));
        }
    }
    return fwd;
}

void
fdctScalar(const int16_t *src, int32_t *dst, int n)
{
    const int32_t *basis = dctBasis(n);
    int64_t tmp[kMaxTxSize * kMaxTxSize];

    // Rows: tmp[r][k] = sum_i src[r][i] * T[k][i]
    for (int r = 0; r < n; ++r) {
        for (int k = 0; k < n; ++k) {
            int64_t acc = 0;
            const int32_t *basis_row = basis + static_cast<ptrdiff_t>(k) * n;
            const int16_t *src_row = src + static_cast<ptrdiff_t>(r) * n;
            for (int i = 0; i < n; ++i) {
                acc += static_cast<int64_t>(src_row[i]) * basis_row[i];
            }
            tmp[static_cast<size_t>(r) * n + k] = acc;
        }
    }
    // Columns: dst[k][c] = sum_r T[k][r] * tmp[r][c], with scale removal.
    const int64_t round = 1LL << (2 * kFracBits - 1);
    for (int k = 0; k < n; ++k) {
        const int32_t *basis_row = basis + static_cast<ptrdiff_t>(k) * n;
        for (int c = 0; c < n; ++c) {
            int64_t acc = 0;
            for (int r = 0; r < n; ++r) {
                acc += basis_row[r] * tmp[static_cast<size_t>(r) * n + c];
            }
            dst[static_cast<size_t>(k) * n + c] =
                static_cast<int32_t>((acc + round) >> (2 * kFracBits));
        }
    }
}

void
idctScalar(const int32_t *src, int16_t *dst, int n)
{
    const int32_t *basis = dctBasis(n);
    int64_t tmp[kMaxTxSize * kMaxTxSize];

    // Columns: tmp[r][c] = sum_k T[k][r] * src[k][c]
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            int64_t acc = 0;
            for (int k = 0; k < n; ++k) {
                acc += static_cast<int64_t>(
                           basis[static_cast<size_t>(k) * n + r]) *
                       src[static_cast<size_t>(k) * n + c];
            }
            tmp[static_cast<size_t>(r) * n + c] = acc;
        }
    }
    // Rows: dst[r][i] = sum_k tmp[r][k] * T[k][i]
    const int64_t round = 1LL << (2 * kFracBits - 1);
    for (int r = 0; r < n; ++r) {
        for (int i = 0; i < n; ++i) {
            int64_t acc = 0;
            for (int k = 0; k < n; ++k) {
                acc += tmp[static_cast<size_t>(r) * n + k] *
                       basis[static_cast<size_t>(k) * n + i];
            }
            int64_t v = (acc + round) >> (2 * kFracBits);
            if (v > 32767) {
                v = 32767;
            } else if (v < -32768) {
                v = -32768;
            }
            dst[static_cast<size_t>(r) * n + i] = static_cast<int16_t>(v);
        }
    }
}

int
quantScalar(const int32_t *coeff, int32_t *levels, int count, double dead_zone,
            double inv_step)
{
    int nonzero = 0;
    for (int i = 0; i < count; ++i) {
        double v = coeff[i] >= 0 ? (coeff[i] + dead_zone) * inv_step
                                 : (coeff[i] - dead_zone) * inv_step;
        levels[i] = static_cast<int32_t>(v);
        nonzero += levels[i] != 0;
    }
    return nonzero;
}

void
dequantScalar(const int32_t *levels, int32_t *coeff, int count, double step)
{
    for (int i = 0; i < count; ++i) {
        coeff[i] = static_cast<int32_t>(levels[i] * step);
    }
}

void
boxdownScalar(const uint8_t *src, int src_stride, int factor, uint8_t *dst,
              int dw)
{
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
lerpblendScalar(const uint8_t *a, const uint8_t *b, int w6, uint8_t *dst,
                int n)
{
    for (int i = 0; i < n; ++i) {
        dst[i] = static_cast<uint8_t>(
            (a[i] * (64 - w6) + b[i] * w6 + 32) >> 6);
    }
}

/** 4-tap (-1,5,5,-1)/8 interpolation, rounded and clamped to a pel. */
inline int
tap4(int a, int b, int c, int d)
{
    int v = (-a + 5 * b + 5 * c - d + 4) >> 3;
    return std::clamp(v, 0, 255);
}

/**
 * The 4-tap along direction @p d (1: horizontal, stride: vertical);
 * kAvg averages it with the same tap on the next row down, the
 * both-phases case.
 */
template <bool kAvg>
void
subpel4Pass(const uint8_t *src, ptrdiff_t stride, ptrdiff_t d, int w, int h,
            uint8_t *dst, ptrdiff_t dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *p = src + y * stride;
        const uint8_t *q = p + stride;
        uint8_t *out = dst + y * dst_stride;
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
subpel4Scalar(const uint8_t *src, int src_stride, int w, int h, bool half_x,
              bool half_y, uint8_t *dst, int dst_stride)
{
    if (half_x && half_y) {
        subpel4Pass<true>(src, src_stride, 1, w, h, dst, dst_stride);
    } else {
        subpel4Pass<false>(src, src_stride, half_x ? 1 : src_stride, w, h,
                           dst, dst_stride);
    }
}

const KernelTable &
resolveTable()
{
    if (const char *force = std::getenv("VEPRO_FORCE_SCALAR");
        force != nullptr && force[0] == '1') {
        return scalarKernels();
    }
    if (const KernelTable *t = avx2Kernels()) {
        return *t;
    }
    if (const KernelTable *t = neonKernels()) {
        return *t;
    }
    return scalarKernels();
}

} // namespace

const int32_t *
dctBasis(int n)
{
    static const std::vector<int32_t> b4 = makeBasis(4);
    static const std::vector<int32_t> b8 = makeBasis(8);
    static const std::vector<int32_t> b16 = makeBasis(16);
    static const std::vector<int32_t> b32 = makeBasis(32);
    switch (n) {
      case 4: return b4.data();
      case 8: return b8.data();
      case 16: return b16.data();
      case 32: return b32.data();
      default: throw std::invalid_argument("transform: unsupported size");
    }
}

const KernelTable &
scalarKernels()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.isa = "scalar";
        t.sad = sadScalar;
        t.sse = sseScalar;
        t.satd4 = satdTileScalar<4>;
        t.satd8 = satdTileScalar<8>;
        t.residual = residualScalar;
        t.reconstruct = reconstructScalar;
        t.fdct = fdctScalar;
        t.idct = idctScalar;
        t.quant = quantScalar;
        t.dequant = dequantScalar;
        t.boxdown = boxdownScalar;
        t.lerpblend = lerpblendScalar;
        t.subpel4 = subpel4Scalar;
        return t;
    }();
    return table;
}

const KernelTable *
avx2Kernels()
{
#if defined(VEPRO_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2")) {
        return detail::avx2KernelsImpl();
    }
#endif
    return nullptr;
}

const KernelTable *
neonKernels()
{
#if defined(VEPRO_HAVE_NEON) && defined(__linux__)
    if (getauxval(AT_HWCAP) & HWCAP_ASIMD) {
        return detail::neonKernelsImpl();
    }
#elif defined(VEPRO_HAVE_NEON)
    // AdvSIMD is architecturally mandatory on aarch64.
    return detail::neonKernelsImpl();
#endif
    return nullptr;
}

const KernelTable &
kernels()
{
    static const KernelTable &table = resolveTable();
    return table;
}

const char *
kernelIsaName()
{
    return kernels().isa;
}

} // namespace vepro::codec
