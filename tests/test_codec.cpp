/**
 * @file
 * Unit tests for the block-codec toolkit: distortion kernels, transforms,
 * quantisation, intra prediction, motion estimation/compensation, the
 * range coder, and the RDO frame codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "codec/intra.hpp"
#include "codec/mc.hpp"
#include "codec/quant.hpp"
#include "codec/rangecoder.hpp"
#include "codec/rdo.hpp"
#include "codec/sad.hpp"
#include "codec/transform.hpp"
#include "trace/probe.hpp"
#include "uarch/cache.hpp"
#include "video/generator.hpp"
#include "video/metrics.hpp"

namespace vepro::codec
{
namespace
{

/** Deterministically fill a plane with pseudo-random pixels. */
void
fillRandom(video::Plane &p, uint64_t seed)
{
    video::Rng rng(seed);
    for (int y = 0; y < p.height(); ++y) {
        for (int x = 0; x < p.width(); ++x) {
            p.set(x, y, static_cast<uint8_t>(rng.nextBelow(256)));
        }
    }
}

TEST(Sad, ZeroForIdentical)
{
    video::Plane p(32, 32);
    fillRandom(p, 1);
    PelView v = viewOf(p, 0);
    EXPECT_EQ(sad(v, v, 32, 32), 0u);
    EXPECT_EQ(sse(v, v, 32, 32), 0u);
    EXPECT_EQ(satd(v, v, 32, 32), 0u);
}

TEST(Sad, KnownValue)
{
    video::Plane a(8, 8), b(8, 8);
    a.fill(100);
    b.fill(97);
    PelView va = viewOf(a, 0), vb = viewOf(b, 0);
    EXPECT_EQ(sad(va, vb, 8, 8), 64u * 3u);
    EXPECT_EQ(sse(va, vb, 8, 8), 64u * 9u);
}

TEST(Sad, SubViewOffsets)
{
    video::Plane a(16, 16);
    fillRandom(a, 2);
    video::Plane b = a;
    b.set(12, 12, static_cast<uint8_t>(b.at(12, 12) + 10));
    PelView va = viewOf(a, 0), vb = viewOf(b, 0);
    EXPECT_EQ(sad(va.sub(0, 0), vb.sub(0, 0), 8, 8), 0u);
    EXPECT_EQ(sad(va.sub(8, 8), vb.sub(8, 8), 8, 8), 10u);
}

TEST(Satd, DetectsStructuredDifferenceCheaply)
{
    // SATD of a DC offset should be much less than SATD of noise with the
    // same SAD (the Hadamard compacts flat differences).
    video::Plane base(8, 8), dc(8, 8), noise(8, 8);
    base.fill(100);
    dc.fill(108);
    noise.fill(100);
    video::Rng rng(4);
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            noise.set(x, y,
                      static_cast<uint8_t>(100 + (rng.nextBelow(2) ? 8 : -8)));
        }
    }
    PelView vb = viewOf(base, 0);
    uint64_t sad_dc = sad(vb, viewOf(dc, 0), 8, 8);
    uint64_t sad_noise = sad(vb, viewOf(noise, 0), 8, 8);
    EXPECT_EQ(sad_dc, sad_noise);
    EXPECT_LT(satd(vb, viewOf(dc, 0), 8, 8),
              satd(vb, viewOf(noise, 0), 8, 8));
}

TEST(Satd, ProbeEmitsTiledAddresses)
{
    // Regression: the satd probe used to emit dense linear addresses
    // (vaddr + t*64) instead of each tile's real 2-D base, so a tall
    // block looked like a short sequential stream to the cache model.
    // An 8x64 block of a stride-64 plane touches 64 distinct rows (= 64
    // distinct 64-byte lines) per operand; a cold L1D must therefore
    // miss on all 128 lines. The buggy dense stream collapses to ~15
    // lines per operand, i.e. a far lower MPKI.
    std::vector<uint8_t> abuf(64 * 64), bbuf(64 * 64);
    std::mt19937 rng(9);
    for (auto &x : abuf) {
        x = static_cast<uint8_t>(rng() & 255);
    }
    for (auto &x : bbuf) {
        x = static_cast<uint8_t>(rng() & 255);
    }
    PelView a{abuf.data(), 64, 0};
    PelView b{bbuf.data(), 64, 1ull << 20};

    trace::ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = cfg.opInterval;  // record everything
    trace::VectorSink recorded;
    trace::Probe probe(cfg);
    probe.setSink(&recorded);
    {
        trace::ProbeScope scope(&probe);
        satd(a, b, 8, 64);
    }
    probe.flushToSink();

    uarch::Cache l1d({});
    uint64_t loads = 0;
    std::set<uint64_t> lines;
    for (const trace::TraceOp &op : recorded.ops()) {
        if (op.cls == trace::OpClass::SimdLoad) {
            l1d.access(op.addr, false);
            lines.insert(op.addr >> 6);
            ++loads;
        }
    }
    // 8 row-tiles x 1 column-tile, 8 probe loads per tile per operand.
    EXPECT_EQ(loads, 128u);
    EXPECT_EQ(lines.size(), 128u);
    EXPECT_EQ(l1d.misses(), 128u);
    // Expressed as MPKI over the kernel's op stream, the tall strided
    // walk must sit far above the buggy dense stream (~30 misses).
    EXPECT_GT(l1d.mpki(recorded.ops().size()), 100.0);
}

TEST(Satd, DegenerateBlockFallsBackToSad)
{
    // Regression: satd on blocks narrower/shorter than the smallest tile
    // used to return 0 (no tile fits) while still charging the probe a
    // full tile of SIMD work. It now falls back to sad, so the cost and
    // the charged work agree.
    std::vector<uint8_t> abuf(16 * 16), bbuf(16 * 16);
    std::mt19937 rng(11);
    for (auto &x : abuf) {
        x = static_cast<uint8_t>(rng() & 255);
    }
    for (auto &x : bbuf) {
        x = static_cast<uint8_t>(rng() & 255);
    }
    PelView a{abuf.data(), 16, 0};
    PelView b{bbuf.data(), 16, 1ull << 20};

    trace::SiteProfileSink profile;
    trace::Probe probe(trace::ProbeConfig::streaming());
    probe.setSink(&profile);
    uint64_t cost = 0;
    {
        trace::ProbeScope scope(&probe);
        cost = satd(a, b, 2, 8);
    }
    probe.flushToSink();
    EXPECT_EQ(cost, sad(a, b, 2, 8));
    EXPECT_NE(cost, 0u);
    // All work was charged to the sad site; no phantom satd tiles.
    EXPECT_EQ(profile.siteOps().count(trace::sitePc("codec.satd")), 0u);
    EXPECT_NE(profile.siteOps().count(trace::sitePc("codec.sad")), 0u);
}

TEST(Residual, ReconstructRoundTrip)
{
    video::Plane src(16, 16), pred(16, 16), out(16, 16);
    fillRandom(src, 3);
    fillRandom(pred, 4);
    std::vector<int16_t> res(16 * 16);
    residual(viewOf(src, 0), viewOf(pred, 0), 16, 16, res.data(), 0);
    reconstruct(viewOf(pred, 0), res.data(), 0, 16, 16, viewOf(out, 0));
    EXPECT_DOUBLE_EQ(video::mse(src, out), 0.0);
}

class TransformSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(TransformSizes, RoundTripIsNearExact)
{
    const int n = GetParam();
    std::mt19937 rng(n);
    std::uniform_int_distribution<int> dist(-255, 255);
    std::vector<int16_t> src(n * n), back(n * n);
    std::vector<int32_t> coeff(n * n);
    for (auto &v : src) {
        v = static_cast<int16_t>(dist(rng));
    }
    forwardDct(src.data(), coeff.data(), n, 0, 0);
    inverseDct(coeff.data(), back.data(), n, 0, 0);
    for (int i = 0; i < n * n; ++i) {
        EXPECT_NEAR(src[i], back[i], 2) << "sample " << i << " size " << n;
    }
}

TEST_P(TransformSizes, ConstantBlockCompactsToDc)
{
    const int n = GetParam();
    std::vector<int16_t> src(n * n, 64);
    std::vector<int32_t> coeff(n * n);
    forwardDct(src.data(), coeff.data(), n, 0, 0);
    // DC carries (almost) all the energy.
    int64_t dc = std::abs(coeff[0]);
    int64_t ac = 0;
    for (int i = 1; i < n * n; ++i) {
        ac += std::abs(coeff[i]);
    }
    EXPECT_GT(dc, 0);
    EXPECT_LE(ac, dc / 16);
    EXPECT_NEAR(dc, 64 * n, n);  // orthonormal DC gain = N for an NxN block
}

INSTANTIATE_TEST_SUITE_P(AllSizes, TransformSizes,
                         ::testing::Values(4, 8, 16, 32));

TEST(Transform, RejectsUnsupportedSizes)
{
    EXPECT_FALSE(isValidTxSize(12));
    EXPECT_TRUE(isValidTxSize(16));
    int16_t src[9] = {};
    int32_t dst[9] = {};
    EXPECT_THROW(forwardDct(src, dst, 3, 0, 0), std::invalid_argument);
}

TEST(Quantizer, StepGrowsWithIndex)
{
    double prev = 0;
    for (int q = 0; q <= 63; q += 9) {
        Quantizer quant(q, 63);
        EXPECT_GT(quant.step(), prev);
        prev = quant.step();
    }
    EXPECT_GT(Quantizer(63, 63).step(), 100.0);
    EXPECT_LT(Quantizer(0, 63).step(), 1.0);
}

TEST(Quantizer, FamiliesShareTheStepCurve)
{
    // The same normalised position should give the same step for both
    // CRF ranges.
    Quantizer av1(63, 63);
    Quantizer x264(51, 51);
    EXPECT_NEAR(av1.step(), x264.step(), 1e-9);
}

TEST(Quantizer, RoundTripErrorBounded)
{
    Quantizer quant(30, 63);
    for (int c = -500; c <= 500; c += 13) {
        int32_t level = quant.quantize(c);
        int32_t back = quant.dequantize(level);
        EXPECT_LE(std::abs(back - c), static_cast<int>(quant.step()) + 1)
            << "coeff " << c;
    }
}

TEST(Quantizer, CoarseQuantKillsSmallCoeffs)
{
    Quantizer quant(60, 63);
    EXPECT_EQ(quant.quantize(5), 0);
    EXPECT_EQ(quant.quantize(-5), 0);
    EXPECT_NE(quant.quantize(5000), 0);
}

TEST(Quantizer, BlockQuantCountsNonzeros)
{
    Quantizer quant(30, 63);
    int32_t coeff[16] = {1000, -900, 3, 0, 800, 2, 0, 0,
                         1, 0, 0, 0, 0, 0, 0, -700};
    int32_t levels[16];
    int nz = quant.quantizeBlock(coeff, levels, 4, 0, 0);
    int expect = 0;
    for (int32_t l : levels) {
        expect += l != 0;
    }
    EXPECT_EQ(nz, expect);
    EXPECT_GE(nz, 4);
}

TEST(Quantizer, LambdaScalesWithStepSquared)
{
    Quantizer fine(10, 63), coarse(50, 63);
    double ratio = coarse.lambda() / fine.lambda();
    double step_ratio = coarse.step() / fine.step();
    EXPECT_NEAR(ratio, step_ratio * step_ratio, ratio * 0.01);
}

TEST(RateEstimate, MoreLevelsCostMore)
{
    int32_t empty[64] = {};
    int32_t sparse[64] = {};
    sparse[0] = 3;
    int32_t dense[64];
    for (int i = 0; i < 64; ++i) {
        dense[i] = (i % 3) - 1;
    }
    double b0 = estimateCoeffBits(empty, 8, 0);
    double b1 = estimateCoeffBits(sparse, 8, 0);
    double b2 = estimateCoeffBits(dense, 8, 0);
    EXPECT_LT(b0, b1);
    EXPECT_LT(b1, b2);
}

TEST(Intra, ModeListPriorityPrefix)
{
    auto four = intraModeList(4);
    ASSERT_EQ(four.size(), 4u);
    EXPECT_EQ(four[0], IntraMode::Dc);
    EXPECT_EQ(four[1], IntraMode::Vertical);
    auto all = intraModeList(999);
    EXPECT_EQ(all.size(), static_cast<size_t>(kNumIntraModes));
    EXPECT_NE(intraModeName(all.back()), "?");
}

TEST(Intra, GatherFillsUnavailableNeighbors)
{
    video::Plane recon(32, 32);
    recon.fill(50);
    IntraNeighbors nb = gatherNeighbors(viewOf(recon, 0), 0, 0, 8, 8, 32, 32);
    EXPECT_FALSE(nb.hasTop);
    EXPECT_FALSE(nb.hasLeft);
    EXPECT_EQ(nb.top[0], 128);
    EXPECT_EQ(nb.left[0], 128);
    EXPECT_EQ(nb.topLeft, 128);
}

TEST(Intra, GatherReadsReconstruction)
{
    video::Plane recon(32, 32);
    recon.fill(50);
    for (int x = 0; x < 32; ++x) {
        recon.set(x, 7, 90);  // the row above block (8, 8)
    }
    for (int y = 0; y < 32; ++y) {
        recon.set(7, y, 70);  // the column left of the block
    }
    IntraNeighbors nb = gatherNeighbors(viewOf(recon, 0), 8, 8, 8, 8, 32, 32);
    EXPECT_TRUE(nb.hasTop);
    EXPECT_TRUE(nb.hasLeft);
    EXPECT_EQ(nb.top[0], 90);
    EXPECT_EQ(nb.left[0], 70);
    EXPECT_EQ(nb.topLeft, 70);  // (7,7): the column write came last
}

TEST(Intra, GatherReplicatesPastFrameEdge)
{
    video::Plane recon(32, 32);
    recon.fill(50);
    recon.set(31, 15, 99);
    // Block at (24, 16): top row extends past x=31.
    IntraNeighbors nb = gatherNeighbors(viewOf(recon, 0), 24, 16, 8, 8, 32, 32);
    EXPECT_EQ(nb.top[7], 99);   // last available sample
    EXPECT_EQ(nb.top[15], 99);  // replicated
}

TEST(Intra, DcAveragesNeighbors)
{
    IntraNeighbors nb{};
    nb.hasTop = nb.hasLeft = true;
    std::fill(nb.top, nb.top + 8, 10);
    std::fill(nb.left, nb.left + 8, 30);
    video::Plane out(8, 8);
    predictIntra(IntraMode::Dc, nb, 8, 8, viewOf(out, 0));
    EXPECT_EQ(out.at(0, 0), 20);
    EXPECT_EQ(out.at(7, 7), 20);
}

TEST(Intra, VerticalCopiesTopRow)
{
    IntraNeighbors nb{};
    nb.hasTop = true;
    for (int i = 0; i < 8; ++i) {
        nb.top[i] = static_cast<uint8_t>(i * 10);
    }
    video::Plane out(8, 8);
    predictIntra(IntraMode::Vertical, nb, 8, 8, viewOf(out, 0));
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            EXPECT_EQ(out.at(x, y), x * 10);
        }
    }
}

TEST(Intra, HorizontalCopiesLeftColumn)
{
    IntraNeighbors nb{};
    nb.hasLeft = true;
    for (int i = 0; i < 8; ++i) {
        nb.left[i] = static_cast<uint8_t>(200 - i * 10);
    }
    video::Plane out(8, 8);
    predictIntra(IntraMode::Horizontal, nb, 8, 8, viewOf(out, 0));
    for (int y = 0; y < 8; ++y) {
        EXPECT_EQ(out.at(3, y), 200 - y * 10);
    }
}

TEST(Intra, PaethSelectsNearestNeighbor)
{
    IntraNeighbors nb{};
    nb.hasTop = nb.hasLeft = true;
    std::fill(nb.top, nb.top + 8, 100);
    std::fill(nb.left, nb.left + 8, 100);
    nb.topLeft = 100;
    video::Plane out(8, 8);
    predictIntra(IntraMode::Paeth, nb, 8, 8, viewOf(out, 0));
    EXPECT_EQ(out.at(4, 4), 100);
}

class IntraAllModes : public ::testing::TestWithParam<int>
{
};

TEST_P(IntraAllModes, ProducesValidPixelsForEveryGeometry)
{
    auto mode = static_cast<IntraMode>(GetParam());
    IntraNeighbors nb{};
    nb.hasTop = nb.hasLeft = true;
    video::Rng rng(GetParam() + 1);
    for (int i = 0; i < 2 * kMaxIntraSize; ++i) {
        nb.top[i] = static_cast<uint8_t>(rng.nextBelow(256));
        nb.left[i] = static_cast<uint8_t>(rng.nextBelow(256));
    }
    nb.topLeft = 128;
    for (auto [w, h] : {std::pair{8, 8}, {16, 8}, {8, 32}, {64, 64}}) {
        video::Plane out(w, h);
        out.fill(7);
        predictIntra(mode, nb, w, h, viewOf(out, 0));
        // Every pixel written (none left at the sentinel value with these
        // random neighbours, overwhelmingly likely) and in range by type.
        int sentinel = 0;
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                sentinel += out.at(x, y) == 7;
            }
        }
        EXPECT_LT(sentinel, w * h / 8) << intraModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, IntraAllModes,
                         ::testing::Range(0, kNumIntraModes));

/** Fill 64 KiB of stack below the caller with @p byte, so the locals of
 *  the next call start from a known pattern. */
[[gnu::noinline]] void
scribbleStack(uint8_t byte)
{
    volatile uint8_t buf[64 * 1024];
    for (size_t i = 0; i < sizeof buf; ++i) {
        buf[i] = byte;
    }
}

/** Regression: steep directional projections read reference-line
 *  entries past the 2h left / 2w top samples. They must read defined
 *  values, or encodes differ between processes with the stack layout. */
TEST(Intra, DirectionalIgnoresStackContents)
{
    IntraNeighbors nb{};
    nb.hasTop = nb.hasLeft = true;
    video::Rng rng(17);
    for (int i = 0; i < 2 * kMaxIntraSize; ++i) {
        nb.top[i] = static_cast<uint8_t>(rng.nextBelow(256));
        nb.left[i] = static_cast<uint8_t>(rng.nextBelow(256));
    }
    nb.topLeft = 90;
    const int sizes[] = {4, 8, 16, 32, 64};
    for (int m = static_cast<int>(IntraMode::D45); m < kNumIntraModes; ++m) {
        const auto mode = static_cast<IntraMode>(m);
        for (int w : sizes) {
            for (int h : sizes) {
                video::Plane zeros(w, h), ones(w, h);
                scribbleStack(0x00);
                predictIntra(mode, nb, w, h, viewOf(zeros, 0));
                scribbleStack(0xFF);
                predictIntra(mode, nb, w, h, viewOf(ones, 0));
                EXPECT_EQ(video::mse(zeros, ones), 0.0)
                    << intraModeName(mode) << " " << w << "x" << h;
            }
        }
    }
}

TEST(Mc, ClampKeepsFootprintInside)
{
    MotionVector mv{1000, -1000};
    MotionVector c = clampMv(mv, 8, 8, 16, 16, 64, 64);
    EXPECT_LE(8 + (c.x >> 1) + 16 + 1, 64);
    EXPECT_GE(8 + (c.y >> 1), 0);
}

TEST(Mc, FullPelCopy)
{
    video::Plane ref(64, 64);
    fillRandom(ref, 9);
    video::Plane out(16, 16);
    motionCompensate(viewOf(ref, 0), 64, 64, 16, 16, 16, 16, {8, -4},
                     viewOf(out, 0));
    for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
            EXPECT_EQ(out.at(x, y), ref.at(16 + 4 + x, 16 - 2 + y));
        }
    }
}

TEST(Mc, HalfPelAverages)
{
    video::Plane ref(32, 32);
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            ref.set(x, y, static_cast<uint8_t>(x * 4));
        }
    }
    video::Plane out(8, 8);
    motionCompensate(viewOf(ref, 0), 32, 32, 8, 8, 8, 8, {1, 0},
                     viewOf(out, 0));
    // Half-pel in x: average of columns 8 and 9 -> 34.
    EXPECT_EQ(out.at(0, 0), 34);
}

/** The sharp-subpel filter as motionCompensate ran it before its
 *  clamp-free loop: every tap clamped to the plane on its own. Kept as
 *  the oracle for the bit-identity test below. */
void
clampedSharpSubpel(const video::Plane &ref, int bx, int by, int w, int h,
                   MotionVector mv, video::Plane &out)
{
    const int ref_w = ref.width(), ref_h = ref.height();
    mv = clampMv(mv, bx, by, w, h, ref_w, ref_h);
    const int fx = bx + (mv.x >> 1);
    const int fy = by + (mv.y >> 1);
    const bool half_x = mv.x & 1;
    const bool half_y = mv.y & 1;
    auto sample = [&](int x, int y) -> int {
        return ref.at(std::clamp(x + fx, 0, ref_w - 1),
                      std::clamp(y + fy, 0, ref_h - 1));
    };
    auto tap4 = [](int a, int b, int c, int d) {
        int v = (-a + 5 * b + 5 * c - d + 4) >> 3;
        return static_cast<uint8_t>(std::clamp(v, 0, 255));
    };
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            uint8_t v;
            if (half_x && half_y) {
                uint8_t h0 = tap4(sample(x - 1, y), sample(x, y),
                                  sample(x + 1, y), sample(x + 2, y));
                uint8_t h1 = tap4(sample(x - 1, y + 1), sample(x, y + 1),
                                  sample(x + 1, y + 1), sample(x + 2, y + 1));
                v = static_cast<uint8_t>((h0 + h1 + 1) >> 1);
            } else if (half_x) {
                v = tap4(sample(x - 1, y), sample(x, y), sample(x + 1, y),
                         sample(x + 2, y));
            } else if (half_y) {
                v = tap4(sample(x, y - 1), sample(x, y), sample(x, y + 1),
                         sample(x, y + 2));
            } else {
                v = static_cast<uint8_t>(sample(x, y));
            }
            out.set(x, y, v);
        }
    }
}

/** The clamp-free sharp-subpel filter, direct or through its edge copy,
 *  must match the per-tap clamping oracle bit for bit: every half-pel
 *  phase, square and non-square blocks, at every plane corner and edge
 *  and with vectors at clampMv's limits. */
TEST(Mc, SharpSubpelMatchesClampedOracle)
{
    video::Plane ref(80, 72, 5);  // padded: stride != width
    fillRandom(ref, 21);
    const int sizes[] = {4, 8, 16, 32, 64};
    std::set<std::pair<bool, bool>> phases;
    int edge_blocks = 0, compared = 0;
    for (int w : sizes) {
        for (int h : sizes) {
            video::Plane got(w, h), want(w, h);
            for (int bx : {0, (ref.width() - w) / 2, ref.width() - w}) {
                for (int by : {0, (ref.height() - h) / 2, ref.height() - h}) {
                    const MotionVector lo = clampMv({-100000, -100000}, bx,
                                                    by, w, h, ref.width(),
                                                    ref.height());
                    const MotionVector hi = clampMv({100000, 100000}, bx, by,
                                                    w, h, ref.width(),
                                                    ref.height());
                    const int xs[] = {lo.x, lo.x + 1, -1, 0, 1, 3,
                                      hi.x - 1, hi.x};
                    const int ys[] = {lo.y, lo.y + 1, -1, 0, 1, 3,
                                      hi.y - 1, hi.y};
                    for (int mx : xs) {
                        for (int my : ys) {
                            const MotionVector c = clampMv(
                                {mx, my}, bx, by, w, h, ref.width(),
                                ref.height());
                            const bool hx = c.x & 1, hy = c.y & 1;
                            if (!hx && !hy) {
                                continue;
                            }
                            phases.insert({hx, hy});
                            edge_blocks += bx + (c.x >> 1) < 1 ||
                                           by + (c.y >> 1) < 1;
                            motionCompensate(viewOf(ref, 0), ref.width(),
                                             ref.height(), bx, by, w, h,
                                             {mx, my}, viewOf(got, 0), true);
                            clampedSharpSubpel(ref, bx, by, w, h, {mx, my},
                                               want);
                            ++compared;
                            ASSERT_EQ(video::mse(got, want), 0.0)
                                << w << "x" << h << " at (" << bx << ","
                                << by << ") mv (" << mx << "," << my << ")";
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(phases.size(), 3u) << "all three half-pel phases";
    EXPECT_GT(edge_blocks, 0) << "the edge-copy path ran";
    EXPECT_GT(compared, 1000);
}

TEST(Mc, SearchFindsExactTranslation)
{
    // Reference = source shifted by (+3, -2): the search must find it.
    // Smooth content gives the diamond search a gradient to descend
    // (random noise has none, and real search content is smooth-ish).
    video::Plane src(64, 64), ref(64, 64);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            ref.set(x, y, static_cast<uint8_t>(
                              128 + 60 * std::sin(x * 0.3) * std::cos(y * 0.23)));
        }
    }
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            src.set(x, y, ref.atClamped(x + 3, y - 2));
        }
    }
    MeConfig me;
    me.range = 8;
    me.subpel = false;
    MeResult r = motionSearch(viewOf(src, 0), viewOf(ref, 0), 64, 64, 24, 24,
                              16, 16, {}, me);
    EXPECT_EQ(r.mv.x, 6);   // half-pel units
    EXPECT_EQ(r.mv.y, -4);
    EXPECT_EQ(r.sad, 0u);
    EXPECT_GT(r.candidates, 1);
}

TEST(Mc, ExhaustiveMatchesDiamondOrBetter)
{
    video::Plane src(64, 64), ref(64, 64);
    fillRandom(src, 21);
    fillRandom(ref, 22);
    MeConfig diamond;
    diamond.range = 6;
    diamond.subpel = false;
    MeConfig exhaustive = diamond;
    exhaustive.exhaustive = true;
    MeResult d = motionSearch(viewOf(src, 0), viewOf(ref, 0), 64, 64, 24, 24,
                              16, 16, {}, diamond);
    MeResult e = motionSearch(viewOf(src, 0), viewOf(ref, 0), 64, 64, 24, 24,
                              16, 16, {}, exhaustive);
    EXPECT_LE(e.sad, d.sad);
    EXPECT_GT(e.candidates, d.candidates);
}

TEST(Mc, EarlyExitStopsSearch)
{
    video::Plane src(64, 64), ref(64, 64);
    fillRandom(src, 30);
    ref = src;
    MeConfig me;
    me.range = 8;
    me.earlyExitPerPel = 5.0;  // perfect match triggers immediately
    MeConfig no_exit = me;
    no_exit.earlyExitPerPel = 0.0;
    MeResult fast = motionSearch(viewOf(src, 0), viewOf(ref, 0), 64, 64, 24,
                                 24, 16, 16, {}, me);
    MeResult full = motionSearch(viewOf(src, 0), viewOf(ref, 0), 64, 64, 24,
                                 24, 16, 16, {}, no_exit);
    EXPECT_LE(fast.candidates, full.candidates);
    EXPECT_EQ(fast.sad, 0u);
}

TEST(RangeCoder, BitRoundTrip)
{
    Bitstream stream;
    RangeEncoder enc(stream);
    std::vector<BinContext> ctx(4);
    std::mt19937 rng(77);
    std::vector<bool> bits;
    for (int i = 0; i < 5000; ++i) {
        bits.push_back((rng() & 7) < 3);
    }
    for (size_t i = 0; i < bits.size(); ++i) {
        enc.encodeBit(ctx[i % 4], bits[i], static_cast<uint32_t>(i % 4));
    }
    enc.finish();

    std::vector<BinContext> dctx(4);
    RangeDecoder dec(stream.bytes());
    for (size_t i = 0; i < bits.size(); ++i) {
        ASSERT_EQ(dec.decodeBit(dctx[i % 4]), bits[i]) << "bit " << i;
    }
}

TEST(RangeCoder, BypassAndGolombRoundTrip)
{
    Bitstream stream;
    RangeEncoder enc(stream);
    for (uint32_t v = 0; v < 300; v += 7) {
        enc.encodeUeGolomb(v);
        enc.encodeBypassBits(v, 9);
    }
    enc.finish();
    RangeDecoder dec(stream.bytes());
    for (uint32_t v = 0; v < 300; v += 7) {
        EXPECT_EQ(dec.decodeUeGolomb(), v);
        EXPECT_EQ(dec.decodeBypassBits(9), (v & 0x1ff));
    }
}

TEST(RangeCoder, AdaptiveContextsCompressBiasedStreams)
{
    Bitstream stream;
    RangeEncoder enc(stream);
    BinContext ctx;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        enc.encodeBit(ctx, i % 50 == 0);  // 2% ones
    }
    enc.finish();
    // ~0.14 bits/bin ideal; allow generous adaptation slack.
    EXPECT_LT(stream.sizeBytes(), static_cast<size_t>(n / 16));
    EXPECT_GT(stream.sizeBytes(), 10u);
}

TEST(RangeCoder, FinishTwiceThrows)
{
    Bitstream stream;
    RangeEncoder enc(stream);
    enc.encodeBypass(true);
    enc.finish();
    EXPECT_THROW(enc.finish(), std::logic_error);
}

TEST(RangeCoder, ContextBitsSane)
{
    EXPECT_NEAR(contextBits(1024, true), 1.0, 0.05);
    EXPECT_NEAR(contextBits(1024, false), 1.0, 0.05);
    EXPECT_GT(contextBits(100, false), contextBits(1900, false));
    EXPECT_GT(contextBits(1900, true), contextBits(100, true));
}

TEST(Partition, RectsTileTheParent)
{
    BlockRect r{16, 32, 64, 64};
    for (int m = 0; m < kNumPartitionModes; ++m) {
        auto mode = static_cast<PartitionMode>(m);
        auto rects = partitionRects(mode, r);
        int64_t area = 0;
        for (const BlockRect &s : rects) {
            area += static_cast<int64_t>(s.w) * s.h;
            EXPECT_GE(s.x, r.x);
            EXPECT_GE(s.y, r.y);
            EXPECT_LE(s.x + s.w, r.x + r.w);
            EXPECT_LE(s.y + s.h, r.y + r.h);
        }
        EXPECT_EQ(area, static_cast<int64_t>(r.w) * r.h)
            << "mode " << m << " must tile the block";
    }
}

TEST(Partition, ExpectedSubBlockCounts)
{
    BlockRect r{0, 0, 32, 32};
    EXPECT_EQ(partitionRects(PartitionMode::None, r).size(), 1u);
    EXPECT_EQ(partitionRects(PartitionMode::Split, r).size(), 4u);
    EXPECT_EQ(partitionRects(PartitionMode::Horz, r).size(), 2u);
    EXPECT_EQ(partitionRects(PartitionMode::HorzA, r).size(), 3u);
    EXPECT_EQ(partitionRects(PartitionMode::Horz4, r).size(), 4u);
}

TEST(Partition, AllowedRespectsMaskAndGeometry)
{
    ToolConfig cfg;
    cfg.partitionMask = kPartitionsQuad;
    cfg.minBlockSize = 8;
    BlockRect big{0, 0, 64, 64};
    EXPECT_TRUE(partitionAllowed(PartitionMode::None, big, cfg));
    EXPECT_TRUE(partitionAllowed(PartitionMode::Split, big, cfg));
    EXPECT_FALSE(partitionAllowed(PartitionMode::Horz, big, cfg))
        << "not in the quad mask";

    cfg.partitionMask = kPartitionsAv1;
    EXPECT_TRUE(partitionAllowed(PartitionMode::HorzA, big, cfg));
    BlockRect rect{0, 0, 64, 32};
    EXPECT_FALSE(partitionAllowed(PartitionMode::HorzA, rect, cfg))
        << "extended partitions are square-only";
    BlockRect tiny{0, 0, 8, 8};
    EXPECT_FALSE(partitionAllowed(PartitionMode::Split, tiny, cfg));
    EXPECT_TRUE(partitionAllowed(PartitionMode::Horz, tiny, cfg));
    BlockRect minimal{0, 0, 4, 4};
    EXPECT_FALSE(partitionAllowed(PartitionMode::Horz, minimal, cfg));
}

TEST(Partition, Av1HasTenModesVp9HasFour)
{
    // The paper's worked example: AV1 evaluates 10 partition choices per
    // block where VP9 evaluates 4.
    int av1 = 0, vp9 = 0;
    ToolConfig av1_cfg, vp9_cfg;
    av1_cfg.partitionMask = kPartitionsAv1;
    vp9_cfg.partitionMask = kPartitionsRect;
    BlockRect sb{0, 0, 64, 64};
    for (int m = 0; m < kNumPartitionModes; ++m) {
        av1 += partitionAllowed(static_cast<PartitionMode>(m), sb, av1_cfg);
        vp9 += partitionAllowed(static_cast<PartitionMode>(m), sb, vp9_cfg);
    }
    EXPECT_EQ(av1, 10);
    EXPECT_EQ(vp9, 4);
}

/** A small codec config for fast frame-level tests. */
ToolConfig
testConfig(int crf)
{
    ToolConfig cfg;
    cfg.superblockSize = 32;
    cfg.minBlockSize = 8;
    cfg.partitionMask = kPartitionsRect;
    cfg.intraModes = 4;
    cfg.intraModesRect = 2;
    cfg.me.range = 4;
    cfg.earlyExitScale = 1.0;
    applyQuality(cfg, crf, 63);
    return cfg;
}

video::Video
testClip(int frames = 2)
{
    video::GeneratorParams p;
    p.width = 64;
    p.height = 48;
    p.frames = frames;
    p.entropy = 4.0;
    p.seed = 31;
    return video::generate("t", p);
}

TEST(FrameCodec, EncodeProducesBitsAndReconstruction)
{
    video::Video clip = testClip();
    FrameCodec codec(testConfig(30), 64, 48, nullptr);
    EncodeStats s0 = codec.encodeFrame(clip.frame(0), true);
    EXPECT_GT(s0.bits, 100u);
    EXPECT_GT(s0.leafCommits, 0u);
    EXPECT_GT(s0.partitionNodes, 0u);
    double p = video::psnr(clip.frame(0).y(), codec.recon().y());
    EXPECT_GT(p, 24.0);
    EXPECT_LT(p, 99.0);
}

TEST(FrameCodec, QualityImprovesWithLowerCrf)
{
    video::Video clip = testClip();
    FrameCodec fine(testConfig(8), 64, 48, nullptr);
    FrameCodec coarse(testConfig(55), 64, 48, nullptr);
    EncodeStats sf = fine.encodeFrame(clip.frame(0), true);
    EncodeStats sc = coarse.encodeFrame(clip.frame(0), true);
    EXPECT_GT(video::psnr(clip.frame(0).y(), fine.recon().y()),
              video::psnr(clip.frame(0).y(), coarse.recon().y()) + 3.0);
    EXPECT_GT(sf.bits, sc.bits);
}

TEST(FrameCodec, InterFramesCostFewerBitsOnStaticContent)
{
    video::GeneratorParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 2;
    p.entropy = 2.0;  // little motion
    p.seed = 77;
    video::Video clip = video::generate("s", p);
    FrameCodec codec(testConfig(30), 64, 48, nullptr);
    EncodeStats key = codec.encodeFrame(clip.frame(0), true);
    EncodeStats inter = codec.encodeFrame(clip.frame(1), false);
    EXPECT_LT(inter.bits, key.bits / 2)
        << "motion compensation should drastically cut bits";
}

TEST(FrameCodec, DeterministicAcrossInstances)
{
    video::Video clip = testClip();
    FrameCodec a(testConfig(30), 64, 48, nullptr);
    FrameCodec b(testConfig(30), 64, 48, nullptr);
    EncodeStats sa = a.encodeFrame(clip.frame(0), true);
    EncodeStats sb = b.encodeFrame(clip.frame(0), true);
    EXPECT_EQ(sa.bits, sb.bits);
    EXPECT_EQ(sa.modeEvals, sb.modeEvals);
    EXPECT_DOUBLE_EQ(video::mse(a.recon().y(), b.recon().y()), 0.0);
}

TEST(FrameCodec, SbGranularApiMatchesEncodeFrame)
{
    video::Video clip = testClip();
    FrameCodec whole(testConfig(30), 64, 48, nullptr);
    FrameCodec stepped(testConfig(30), 64, 48, nullptr);
    EncodeStats sw = whole.encodeFrame(clip.frame(0), true);

    stepped.beginFrame(clip.frame(0), true);
    for (int sy = 0; sy < 48; sy += 32) {
        for (int sx = 0; sx < 64; sx += 32) {
            stepped.encodeSuperblock(sx, sy);
        }
    }
    EncodeStats ss = stepped.endFrame();
    EXPECT_EQ(sw.bits, ss.bits);
    EXPECT_DOUBLE_EQ(video::mse(whole.recon().y(), stepped.recon().y()), 0.0);
}

TEST(FrameCodec, ApiMisuseThrows)
{
    FrameCodec codec(testConfig(30), 64, 48, nullptr);
    video::Video clip = testClip();
    EXPECT_THROW(codec.encodeSuperblock(0, 0), std::logic_error);
    EXPECT_THROW(codec.endFrame(), std::logic_error);
    codec.beginFrame(clip.frame(0), true);
    EXPECT_THROW(codec.beginFrame(clip.frame(0), true), std::logic_error);
    codec.encodeSuperblock(0, 0);
    codec.encodeSuperblock(32, 0);
    codec.encodeSuperblock(0, 32);
    codec.encodeSuperblock(32, 32);
    codec.endFrame();

    video::Frame wrong(32, 32);
    EXPECT_THROW(codec.beginFrame(wrong, true), std::invalid_argument);
    EXPECT_THROW(FrameCodec(testConfig(30), 8, 8, nullptr),
                 std::invalid_argument);
}

TEST(FrameCodec, SbGridDimensions)
{
    ToolConfig cfg = testConfig(30);
    cfg.superblockSize = 64;
    FrameCodec codec(cfg, 240, 144, nullptr);
    EXPECT_EQ(codec.sbCols(), 4);
    EXPECT_EQ(codec.sbRows(), 3);
}

TEST(FrameCodec, MoreToolsMoreWork)
{
    // The paper's central claim in miniature: enabling the AV1 toolset
    // multiplies mode evaluations relative to the quad-tree-only config
    // at identical quality settings.
    video::Video clip = testClip();
    ToolConfig small = testConfig(25);
    small.partitionMask = kPartitionsQuad;
    small.intraModes = 3;
    ToolConfig big = testConfig(25);
    big.partitionMask = kPartitionsAv1;
    big.intraModes = 14;
    big.earlyExitScale = small.earlyExitScale;

    FrameCodec a(small, 64, 48, nullptr);
    FrameCodec b(big, 64, 48, nullptr);
    EncodeStats sa = a.encodeFrame(clip.frame(0), true);
    EncodeStats sb = b.encodeFrame(clip.frame(0), true);
    EXPECT_GT(sb.modeEvals, sa.modeEvals * 2);
    EXPECT_GT(sb.leafEvals, sa.leafEvals);
}

TEST(FrameCodec, ProbedEncodeCountsInstructions)
{
    video::Video clip = testClip();
    trace::Probe probe;
    trace::ProbeScope scope(&probe);
    FrameCodec codec(testConfig(30), 64, 48, &probe);
    codec.encodeFrame(clip.frame(0), true);
    EXPECT_GT(probe.totalOps(), 100000u);
    // All six mix categories should be represented.
    for (int c = 0; c < trace::kNumMixCategories; ++c) {
        EXPECT_GT(probe.mix().byCategory(static_cast<trace::MixCategory>(c)),
                  0u)
            << trace::mixCategoryName(static_cast<trace::MixCategory>(c));
    }
}

} // namespace
} // namespace vepro::codec
