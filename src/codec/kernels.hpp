#ifndef VEPRO_CODEC_KERNELS_HPP
#define VEPRO_CODEC_KERNELS_HPP

/**
 * @file
 * Runtime-dispatched SIMD kernel table for the codec hot loops.
 *
 * The pixel kernels (SAD/SSE/SATD, residual/reconstruct, the integer
 * DCT passes, the 4-tap sub-pel filter and the quantiser inner loop)
 * dominate every sweep, so they are provided in three flavours:
 * portable scalar C++, AVX2 (x86-64), and NEON (aarch64). A one-time
 * CPU-feature probe picks the widest table the host supports;
 * `VEPRO_FORCE_SCALAR=1` in the environment forces the scalar table for
 * debugging and A/B timing.
 *
 * Hard contract: every vector implementation is **bit-identical** to
 * the scalar reference for all inputs. These kernels feed RD decisions,
 * the reconstruction loop, and the probe-derived traces, so any
 * numerical divergence would change every reproduced figure. The
 * contract is enforced by the property suite in tests/test_kernels.cpp,
 * which compares each table against the scalar one over randomised
 * blocks of every supported geometry.
 *
 * Kernels operate on raw pointer/stride arguments (no PelView, no
 * probe): instrumentation stays in the wrappers (sad.cpp, transform.cpp,
 * quant.cpp, mc.cpp), which report the modeled op stream independently
 * of which host ISA actually ran.
 */

#include <cstdint>

namespace vepro::codec
{

/**
 * Function-pointer table of the hot pixel kernels for one ISA.
 *
 * Strides are in bytes. `residual` writes a dense row-major w x h
 * int16 block (stride w); `reconstruct` reads the same layout.
 * `satd4`/`satd8` return the raw Hadamard abs-sum of one tile (the
 * caller applies the SAD-scale normalisation). `fdct`/`idct` apply
 * dctBasis(n) (any other n throws std::invalid_argument); `quant`
 * returns the number of nonzero levels.
 */
struct KernelTable {
    const char *isa = "scalar";

    uint64_t (*sad)(const uint8_t *a, int a_stride, const uint8_t *b,
                    int b_stride, int w, int h) = nullptr;
    uint64_t (*sse)(const uint8_t *a, int a_stride, const uint8_t *b,
                    int b_stride, int w, int h) = nullptr;
    uint64_t (*satd4)(const uint8_t *a, int a_stride, const uint8_t *b,
                      int b_stride) = nullptr;
    uint64_t (*satd8)(const uint8_t *a, int a_stride, const uint8_t *b,
                      int b_stride) = nullptr;
    void (*residual)(const uint8_t *a, int a_stride, const uint8_t *b,
                     int b_stride, int w, int h, int16_t *dst) = nullptr;
    void (*reconstruct)(const uint8_t *pred, int pred_stride,
                        const int16_t *res, int w, int h, uint8_t *dst,
                        int dst_stride) = nullptr;
    void (*fdct)(const int16_t *src, int32_t *dst, int n) = nullptr;
    /**
     * Inverse DCT, clamped to int16. Vector tables take their fast path
     * only when every |coefficient| < kIdctExactBound and hand larger
     * blocks to the scalar reference (see kernels_avx2.cpp).
     */
    void (*idct)(const int32_t *src, int16_t *dst, int n) = nullptr;
    int (*quant)(const int32_t *coeff, int32_t *levels, int count,
                 double dead_zone, double inv_step) = nullptr;
    void (*dequant)(const int32_t *levels, int32_t *coeff, int count,
                    double step) = nullptr;
    /**
     * One output row of exact box downscaling: dst[i] is the rounded
     * mean of the factor x factor pixel box whose top-left corner is
     * src + i*factor, i.e. (sum + cnt/2) / cnt with cnt = factor^2.
     * All dw boxes must be fully inside the source; partial edge boxes
     * are the caller's job (video::downscalePlane).
     */
    void (*boxdown)(const uint8_t *src, int src_stride, int factor,
                    uint8_t *dst, int dw) = nullptr;
    /**
     * Fixed-point row blend for the bilinear upscaler:
     * dst[i] = (a[i]*(64-w6) + b[i]*w6 + 32) >> 6 for a 6-bit weight
     * w6 in [0, 64]. w6 == 0 reproduces a exactly.
     */
    void (*lerpblend)(const uint8_t *a, const uint8_t *b, int w6,
                      uint8_t *dst, int n) = nullptr;
    /**
     * Sharp 4-tap (-1,5,5,-1)/8 half-pel interpolation of a w x h block
     * whose full-pel origin is @p src, each tap rounded and clamped to
     * a pel. half_x alone filters horizontally, half_y alone vertically;
     * both average the horizontal tap with the same tap one row down.
     * At least one of the two is set. Reads rows -1..h+1 and columns
     * -1..w+1 around src and nothing outside them (motionCompensate
     * guarantees that footprint, copying it at the plane edges).
     */
    void (*subpel4)(const uint8_t *src, int src_stride, int w, int h,
                    bool half_x, bool half_y, uint8_t *dst,
                    int dst_stride) = nullptr;
};

/**
 * Vector idct paths compute in double lanes, which is exact while every
 * intermediate is an integer below 2^53. With |coeff| < 2^28 every one
 * stays below 2^28 * 5268^2 + 2^19 < 2^53 (5268: the largest column
 * abs-sum of dctBasis(32)); blocks with a larger coefficient take the
 * scalar path.
 */
inline constexpr int32_t kIdctExactBound = 1 << 28;

/**
 * The fixed-point DCT-II basis for size @p n (4, 8, 16, 32), row-major
 * [k][i], scaled by 1024 and rounded. The transform kernels apply it;
 * exposed for tests and benches. Throws std::invalid_argument for any
 * other size.
 */
const int32_t *dctBasis(int n);

/**
 * The dispatched table: resolved once (thread-safe) to the widest of
 * avx2Kernels()/neonKernels() the host runs, honouring
 * VEPRO_FORCE_SCALAR=1.
 */
const KernelTable &kernels();

/** The portable scalar reference table (always available). */
const KernelTable &scalarKernels();

/**
 * The AVX2 table, or nullptr when it is not compiled in or the host CPU
 * lacks AVX2 (CPUID). Exposed so tests and benches can exercise it
 * directly regardless of what kernels() resolved to; kernels() takes it
 * from here too.
 */
const KernelTable *avx2Kernels();

/**
 * The NEON table, or nullptr when it is not compiled in or the host
 * lacks AdvSIMD (HWCAP on Linux; architecturally mandatory elsewhere).
 */
const KernelTable *neonKernels();

/** ISA name of the dispatched table ("scalar", "avx2", "neon"). */
const char *kernelIsaName();

namespace detail
{
/* Defined only in the per-ISA translation units; never call directly. */
const KernelTable *avx2KernelsImpl();
const KernelTable *neonKernelsImpl();
} // namespace detail

} // namespace vepro::codec

#endif // VEPRO_CODEC_KERNELS_HPP
