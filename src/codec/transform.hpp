#ifndef VEPRO_CODEC_TRANSFORM_HPP
#define VEPRO_CODEC_TRANSFORM_HPP

/**
 * @file
 * Integer block transforms (DCT-II) for sizes 4/8/16/32.
 *
 * Transforms use fixed-point basis matrices (10 fractional bits,
 * codec::dctBasis) computed once at start-up, applied as two 1-D passes
 * through the kernel table, matching the structure of the transforms in
 * AV1/HEVC. The forward/inverse pair is
 * exactly invertible up to the documented rounding error (< 1 LSB of
 * residual after quantisation round-trip at Q=1).
 */

#include <cstdint>

namespace vepro::codec
{

/** Maximum supported transform size. */
inline constexpr int kMaxTxSize = 32;

/** True if @p n is a supported transform size (4, 8, 16, 32). */
bool isValidTxSize(int n);

/**
 * Forward DCT of an n x n residual tile.
 *
 * @param src        Residual, row-major, stride n.
 * @param dst        Output coefficients, row-major, stride n.
 * @param n          Transform size (4, 8, 16, 32).
 * @param src_vaddr  Synthetic address of @p src for instrumentation.
 * @param dst_vaddr  Synthetic address of @p dst for instrumentation.
 */
void forwardDct(const int16_t *src, int32_t *dst, int n, uint64_t src_vaddr,
                uint64_t dst_vaddr);

/**
 * Inverse DCT of an n x n coefficient tile into a residual tile.
 * Parameters mirror forwardDct().
 */
void inverseDct(const int32_t *src, int16_t *dst, int n, uint64_t src_vaddr,
                uint64_t dst_vaddr);

} // namespace vepro::codec

#endif // VEPRO_CODEC_TRANSFORM_HPP
