#include "codec/quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "codec/kernels.hpp"
#include "trace/probe.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::emitKernel;
using trace::sitePc;

Quantizer::Quantizer(int q_index, int index_range)
{
    if (index_range <= 0) {
        throw std::invalid_argument("Quantizer: bad index range");
    }
    q_index = std::clamp(q_index, 0, index_range);
    // Normalise the family's CRF range onto a common exponential step
    // curve spanning ~[0.6, 160] pixel units, comparable to the qstep
    // ranges of real codecs.
    double t = static_cast<double>(q_index) / index_range;  // 0..1
    step_ = 0.6 * std::pow(2.0, t * 8.1);
    inv_step_ = 1.0 / step_;
    dead_zone_ = step_ * 0.4;  // smaller than step/2: classic dead zone
    lambda_ = 0.057 * step_ * step_;
}

int
Quantizer::quantizeBlock(const int32_t *coeff, int32_t *levels, int n,
                         uint64_t coeff_vaddr, uint64_t levels_vaddr) const
{
    int nonzero = kernels().quant(coeff, levels, n * n, dead_zone_, inv_step_);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.quant");
        emitKernel(*p, site, 12, [&](auto &e) {
            int vecs = std::max(1, n * n / 8);
            for (int v = 0; v < vecs; ++v) {
                e.mem(OpClass::SimdLoad, coeff_vaddr + static_cast<uint64_t>(v) * 32);
                e.ops(OpClass::SimdMul, 1, 1);
                e.ops(OpClass::SimdAlu, 2, 1);  // sign handling, truncation
                e.mem(OpClass::SimdStore, levels_vaddr + static_cast<uint64_t>(v) * 32, 1);
            }
            e.loopBranches(static_cast<uint64_t>((vecs + 3) / 4));
            e.ops(OpClass::SimdAlu, 2, 1);  // nonzero popcount reduce
        });
    }
    return nonzero;
}

void
Quantizer::dequantizeBlock(const int32_t *levels, int32_t *coeff, int n,
                           uint64_t levels_vaddr, uint64_t coeff_vaddr) const
{
    kernels().dequant(levels, coeff, n * n, step_);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.dequant");
        emitKernel(*p, site, 8, [&](auto &e) {
            int vecs = std::max(1, n * n / 8);
            for (int v = 0; v < vecs; ++v) {
                e.mem(OpClass::SimdLoad, levels_vaddr + static_cast<uint64_t>(v) * 32);
                e.ops(OpClass::SimdMul, 1, 1);
                e.mem(OpClass::SimdStore, coeff_vaddr + static_cast<uint64_t>(v) * 32, 1);
            }
            e.loopBranches(static_cast<uint64_t>((vecs + 3) / 4));
        });
    }
}

const std::vector<int> &
zigzagScan(int n)
{
    static const auto make = [](int size) {
        std::vector<int> order;
        order.reserve(static_cast<size_t>(size) * size);
        for (int d = 0; d < 2 * size - 1; ++d) {
            if (d & 1) {
                for (int y = std::max(0, d - size + 1);
                     y <= std::min(d, size - 1); ++y) {
                    order.push_back(y * size + (d - y));
                }
            } else {
                for (int x = std::max(0, d - size + 1);
                     x <= std::min(d, size - 1); ++x) {
                    order.push_back((d - x) * size + x);
                }
            }
        }
        return order;
    };
    static const std::vector<int> z4 = make(4);
    static const std::vector<int> z8 = make(8);
    static const std::vector<int> z16 = make(16);
    static const std::vector<int> z32 = make(32);
    switch (n) {
      case 4: return z4;
      case 8: return z8;
      case 16: return z16;
      default: return z32;
    }
}

double
estimateCoeffBits(const int32_t *levels, int n, uint64_t levels_vaddr)
{
    // Rate model: each nonzero level costs ~(2 + 2*log2(1+|level|)) bits
    // (sign + significance + exp-Golomb-style magnitude); trailing zeros
    // after the last significant coefficient (in zigzag order) are free,
    // leading zero runs cost ~0.1 bit each via the significance map.
    const std::vector<int> &scan = zigzagScan(n);
    int last_sig = -1;
    for (int i = n * n - 1; i >= 0; --i) {
        if (levels[scan[static_cast<size_t>(i)]] != 0) {
            last_sig = i;
            break;
        }
    }
    double bits = 4.0;  // block header / tx flags
    for (int i = 0; i <= last_sig; ++i) {
        int32_t level = levels[scan[static_cast<size_t>(i)]];
        if (level == 0) {
            bits += 0.12;
        } else {
            double mag = std::abs(level);
            bits += 2.0 + 2.0 * std::log2(1.0 + mag);
        }
    }
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.ratest");
        emitKernel(*p, site, 10, [&](auto &e) {
            int count = last_sig + 1;
            // Scalar scan: load, test, table lookup for magnitude cost.
            for (int i = 0; i < count; ++i) {
                e.mem(OpClass::Load, levels_vaddr + static_cast<uint64_t>(i) * 4);
                e.ops(OpClass::Alu, 2, 1);
                if (levels[scan[static_cast<size_t>(i)]] != 0) {
                    e.mem(OpClass::Load, site + 0x300 +
                          (static_cast<uint64_t>(std::min(
                               std::abs(levels[i]), 63)) * 8));
                    e.ops(OpClass::Alu, 1, 1);
                }
            }
            e.loopBranches(std::max(1, count));
        });
    }
    return bits;
}

} // namespace vepro::codec
