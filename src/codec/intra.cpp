#include "codec/intra.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "trace/probe.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::emitKernel;
using trace::sitePc;

std::string_view
intraModeName(IntraMode mode)
{
    switch (mode) {
      case IntraMode::Dc: return "dc";
      case IntraMode::Vertical: return "v";
      case IntraMode::Horizontal: return "h";
      case IntraMode::Planar: return "planar";
      case IntraMode::D45: return "d45";
      case IntraMode::D135: return "d135";
      case IntraMode::Smooth: return "smooth";
      case IntraMode::Paeth: return "paeth";
      case IntraMode::D63: return "d63";
      case IntraMode::D117: return "d117";
      case IntraMode::D153: return "d153";
      case IntraMode::D207: return "d207";
      case IntraMode::SmoothV: return "smooth_v";
      case IntraMode::SmoothH: return "smooth_h";
      case IntraMode::D22: return "d22";
      case IntraMode::D67: return "d67";
      default: return "?";
    }
}

std::span<const IntraMode>
intraModeList(int count)
{
    static const std::array<IntraMode, kNumIntraModes> order = {
        IntraMode::Dc,      IntraMode::Vertical, IntraMode::Horizontal,
        IntraMode::Planar,  IntraMode::D45,      IntraMode::D135,
        IntraMode::Smooth,  IntraMode::Paeth,    IntraMode::D63,
        IntraMode::D117,    IntraMode::D153,     IntraMode::D207,
        IntraMode::SmoothV, IntraMode::SmoothH,  IntraMode::D22,
        IntraMode::D67,
    };
    count = std::clamp(count, 1, kNumIntraModes);
    return {order.data(), static_cast<size_t>(count)};
}

IntraNeighbors
gatherNeighbors(const PelView &recon, int x, int y, int w, int h, int plane_w,
                int plane_h)
{
    IntraNeighbors nb{};
    nb.hasTop = y > 0;
    nb.hasLeft = x > 0;

    const uint8_t fill = 128;

    if (nb.hasTop) {
        const uint8_t *above = recon.row(y - 1);
        int avail = std::min(2 * w, plane_w - x);
        for (int i = 0; i < avail; ++i) {
            nb.top[i] = above[x + i];
        }
        for (int i = avail; i < 2 * w; ++i) {
            nb.top[i] = avail > 0 ? nb.top[avail - 1] : fill;
        }
    } else {
        std::fill(nb.top, nb.top + 2 * w, fill);
    }

    if (nb.hasLeft) {
        int avail = std::min(2 * h, plane_h - y);
        for (int i = 0; i < avail; ++i) {
            nb.left[i] = recon.row(y + i)[x - 1];
        }
        for (int i = avail; i < 2 * h; ++i) {
            nb.left[i] = avail > 0 ? nb.left[avail - 1] : fill;
        }
    } else {
        std::fill(nb.left, nb.left + 2 * h, fill);
    }

    if (nb.hasTop && nb.hasLeft) {
        nb.topLeft = recon.row(y - 1)[x - 1];
    } else if (nb.hasTop) {
        nb.topLeft = nb.top[0];
    } else if (nb.hasLeft) {
        nb.topLeft = nb.left[0];
    } else {
        nb.topLeft = fill;
    }

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.intra_gather");
        emitKernel(*p, site, 8, [&](auto &e) {
            // Top row: contiguous scalar/short-vector loads from recon.
            if (nb.hasTop) {
                e.memRun(OpClass::Load,
                         recon.vaddr + static_cast<uint64_t>(y - 1) * recon.stride + x,
                         std::max(1, 2 * w / 8), 8);
            }
            // Left column: one strided scalar load per row (poor locality).
            if (nb.hasLeft) {
                for (int i = 0; i < h; ++i) {
                    e.mem(OpClass::Load,
                          recon.vaddr + static_cast<uint64_t>(y + i) * recon.stride + x - 1);
                }
                e.loopBranches(static_cast<uint64_t>((h + 3) / 4));
            }
            e.ops(OpClass::Alu, 6, 1);
        });
    }
    return nb;
}

namespace
{

/** Directional prediction: project each pixel onto the reference edge. */
void
predictDirectional(const IntraNeighbors &nb, int w, int h, double angle_deg,
                   PelViewMut &dst)
{
    // Unified reference line: left column reversed, then top-left, then
    // the top row — the classic HEVC layout. Steep projections run past
    // the 2h left / 2w top samples written below; they read zeros, so
    // the prediction never depends on stack contents.
    uint8_t ref[4 * kMaxIntraSize + 1]{};
    for (int i = 0; i < 2 * h; ++i) {
        ref[2 * kMaxIntraSize - 1 - i] = nb.left[i];
    }
    ref[2 * kMaxIntraSize] = nb.topLeft;
    for (int i = 0; i < 2 * w; ++i) {
        ref[2 * kMaxIntraSize + 1 + i] = nb.top[i];
    }
    const int origin = 2 * kMaxIntraSize;  // index of topLeft

    double rad = angle_deg * M_PI / 180.0;
    double dx = std::cos(rad);
    double dy = -std::sin(rad);  // screen coordinates: y grows downward

    for (int y = 0; y < h; ++y) {
        uint8_t *row = dst.row(y);
        for (int x = 0; x < w; ++x) {
            // March from the pixel centre against the prediction
            // direction until the reference line (row -1 or column -1).
            double px = x + 0.5, py = y + 0.5;
            double t_top = dy < 0 ? (py - (-0.5)) / -dy : 1e30;
            double t_left = dx < 0 ? (px - (-0.5)) / -dx : 1e30;
            double pos;
            if (t_top <= t_left) {
                double hit_x = px - dx * t_top;
                pos = origin + 1 + hit_x;
            } else {
                double hit_y = py - dy * t_left;
                pos = origin - 1 - hit_y;
            }
            pos = std::clamp(pos, 0.0, 4.0 * kMaxIntraSize - 1.0);
            int i0 = static_cast<int>(pos);
            double frac = pos - i0;
            int i1 = std::min(i0 + 1, 4 * kMaxIntraSize);
            row[x] = static_cast<uint8_t>(
                std::lround(ref[i0] * (1.0 - frac) + ref[i1] * frac));
        }
    }
}

} // namespace

void
predictIntra(IntraMode mode, const IntraNeighbors &nb, int w, int h,
             PelViewMut dst)
{
    if (w > kMaxIntraSize || h > kMaxIntraSize) {
        throw std::invalid_argument("predictIntra: block too large");
    }
    switch (mode) {
      case IntraMode::Dc: {
        int sum = 0, count = 0;
        if (nb.hasTop) {
            for (int i = 0; i < w; ++i) {
                sum += nb.top[i];
            }
            count += w;
        }
        if (nb.hasLeft) {
            for (int i = 0; i < h; ++i) {
                sum += nb.left[i];
            }
            count += h;
        }
        uint8_t dc = count ? static_cast<uint8_t>((sum + count / 2) / count)
                           : 128;
        for (int y = 0; y < h; ++y) {
            std::fill(dst.row(y), dst.row(y) + w, dc);
        }
        break;
      }
      case IntraMode::Vertical:
        for (int y = 0; y < h; ++y) {
            std::copy(nb.top, nb.top + w, dst.row(y));
        }
        break;
      case IntraMode::Horizontal:
        for (int y = 0; y < h; ++y) {
            std::fill(dst.row(y), dst.row(y) + w, nb.left[y]);
        }
        break;
      case IntraMode::Planar:
        for (int y = 0; y < h; ++y) {
            uint8_t *row = dst.row(y);
            for (int x = 0; x < w; ++x) {
                int horz = (w - 1 - x) * nb.left[y] + (x + 1) * nb.top[w - 1];
                int vert = (h - 1 - y) * nb.top[x] + (y + 1) * nb.left[h - 1];
                row[x] = static_cast<uint8_t>(
                    (horz * h + vert * w + w * h) / (2 * w * h));
            }
        }
        break;
      case IntraMode::Smooth:
      case IntraMode::SmoothV:
      case IntraMode::SmoothH:
        for (int y = 0; y < h; ++y) {
            uint8_t *row = dst.row(y);
            double wy = std::cos(M_PI * (y + 0.5) / (2.0 * h));
            for (int x = 0; x < w; ++x) {
                double wx = std::cos(M_PI * (x + 0.5) / (2.0 * w));
                double v;
                if (mode == IntraMode::SmoothV) {
                    v = wy * nb.top[x] + (1 - wy) * nb.left[h - 1];
                } else if (mode == IntraMode::SmoothH) {
                    v = wx * nb.left[y] + (1 - wx) * nb.top[w - 1];
                } else {
                    v = 0.5 * (wy * nb.top[x] + (1 - wy) * nb.left[h - 1]) +
                        0.5 * (wx * nb.left[y] + (1 - wx) * nb.top[w - 1]);
                }
                row[x] = static_cast<uint8_t>(std::lround(v));
            }
        }
        break;
      case IntraMode::Paeth:
        for (int y = 0; y < h; ++y) {
            uint8_t *row = dst.row(y);
            for (int x = 0; x < w; ++x) {
                int base = nb.top[x] + nb.left[y] - nb.topLeft;
                int dt = std::abs(base - nb.top[x]);
                int dl = std::abs(base - nb.left[y]);
                int dtl = std::abs(base - nb.topLeft);
                row[x] = (dl <= dt && dl <= dtl) ? nb.left[y]
                         : (dt <= dtl)           ? nb.top[x]
                                                 : nb.topLeft;
            }
        }
        break;
      case IntraMode::D45: predictDirectional(nb, w, h, 45, dst); break;
      case IntraMode::D63: predictDirectional(nb, w, h, 63, dst); break;
      case IntraMode::D67: predictDirectional(nb, w, h, 67, dst); break;
      case IntraMode::D117: predictDirectional(nb, w, h, 117, dst); break;
      case IntraMode::D135: predictDirectional(nb, w, h, 135, dst); break;
      case IntraMode::D153: predictDirectional(nb, w, h, 153, dst); break;
      case IntraMode::D207: predictDirectional(nb, w, h, 207, dst); break;
      case IntraMode::D22: predictDirectional(nb, w, h, 22, dst); break;
      default:
        throw std::invalid_argument("predictIntra: bad mode");
    }

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.intra_pred");
        emitKernel(*p, site, 12, [&](auto &e) {
            bool directional = mode >= IntraMode::D45 && mode != IntraMode::Smooth &&
                               mode != IntraMode::Paeth;
            int chunks = std::max(1, w / 32);
            for (int y = 0; y < h; ++y) {
                // Reference samples live in a tiny L1-resident array.
                e.mem(OpClass::SimdLoad, site + 0x400 + (static_cast<uint64_t>(y % 8) * 32));
                e.ops(OpClass::SimdAlu, directional ? 4u : 2u, 1, 2);
                for (int c = 0; c < chunks; ++c) {
                    e.mem(OpClass::SimdStore,
                          dst.vaddr + static_cast<uint64_t>(y) * dst.stride + c * 32, 1);
                }
            }
            e.loopBranches(static_cast<uint64_t>((h + 3) / 4));
        });
    }
}

} // namespace vepro::codec
