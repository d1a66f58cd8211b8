#include "codec/transform.hpp"

#include <algorithm>

#include "codec/kernels.hpp"
#include "trace/probe.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::emitKernel;
using trace::sitePc;

namespace
{

/**
 * Report the op stream of an n x n integer transform as the real SIMD
 * implementations execute it: a butterfly network of log2(n) stages per
 * row (not the O(n) inner product the portable C reference uses), so a
 * 2-D pass costs O(n^2 log n) vector ops.
 */
void
probeTransform(Probe *p, uint64_t site, int n, uint64_t src_vaddr,
               uint64_t dst_vaddr, int elem_size_src, int elem_size_dst)
{
    emitKernel(*p, site, 24, [&](auto &e) {
        int vec_per_row = std::max(1, n / 8);  // 8 int32 lanes per 256-bit vector
        int stages = 2;
        for (int s = n; s > 2; s >>= 1) {
            ++stages;
        }
        // Two passes (rows then columns).
        for (int pass = 0; pass < 2; ++pass) {
            for (int r = 0; r < n; ++r) {
                e.memRun(OpClass::SimdLoad,
                         src_vaddr + static_cast<uint64_t>(r) * n * elem_size_src,
                         vec_per_row, 32);
                uint8_t lane_dist = static_cast<uint8_t>(
                    std::min(3 * vec_per_row, 250));
                for (int s = 0; s < stages; ++s) {
                    // Twiddle constants live in registers; each lane depends
                    // on the same lane one butterfly stage earlier, so the
                    // stage ops of different lanes overlap.
                    e.ops(OpClass::SimdMul, vec_per_row, lane_dist, 0);
                    e.ops(OpClass::SimdAlu, 2 * vec_per_row, lane_dist, 0);
                }
                e.ops(OpClass::SimdAlu, 2, 1);  // round + shift
                e.memRun(OpClass::SimdStore,
                         dst_vaddr + static_cast<uint64_t>(r) * n * elem_size_dst,
                         vec_per_row, 32, 1);
                if ((r & 3) == 3) {
                    e.ops(OpClass::Alu, 2, 1);
                }
            }
            e.loopBranches(static_cast<uint64_t>((n + 3) / 4));
        }
    });
}

} // namespace

bool
isValidTxSize(int n)
{
    return n == 4 || n == 8 || n == 16 || n == 32;
}

void
forwardDct(const int16_t *src, int32_t *dst, int n, uint64_t src_vaddr,
           uint64_t dst_vaddr)
{
    kernels().fdct(src, dst, n);

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.fdct");
        probeTransform(p, site, n, src_vaddr, dst_vaddr, 2, 4);
    }
}

void
inverseDct(const int32_t *src, int16_t *dst, int n, uint64_t src_vaddr,
           uint64_t dst_vaddr)
{
    kernels().idct(src, dst, n);

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.idct");
        probeTransform(p, site, n, src_vaddr, dst_vaddr, 4, 2);
    }
}

} // namespace vepro::codec
