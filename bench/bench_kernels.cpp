/**
 * @file
 * Kernel microbenchmarks (google-benchmark): host-side throughput of the
 * codec primitives (SAD, SATD, DCT, quantisation, range coding, intra
 * prediction) with and without an installed probe, quantifying the
 * instrumentation overhead that separates wall time from modeled
 * instruction counts.
 *
 * The BM_Table* group benches the scalar reference table against the
 * runtime-dispatched table side by side (same buffers, same geometry),
 * so a single run reports the SIMD speedup per kernel, at the shapes an
 * encode runs most: SAD down to 4x4, every transform size and each
 * sub-pel phase. The report context line `kernel_isa` records what the
 * dispatcher resolved to.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "codec/intra.hpp"
#include "codec/kernels.hpp"
#include "codec/quant.hpp"
#include "codec/rangecoder.hpp"
#include "codec/sad.hpp"
#include "codec/transform.hpp"
#include "trace/probe.hpp"
#include "video/generator.hpp"

namespace
{

using namespace vepro;

video::Plane
randomPlane(int w, int h, uint64_t seed)
{
    video::Plane p(w, h);
    video::Rng rng(seed);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            p.set(x, y, static_cast<uint8_t>(rng.nextBelow(256)));
        }
    }
    return p;
}

void
BM_Sad(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    video::Plane a = randomPlane(64, 64, 1), b = randomPlane(64, 64, 2);
    codec::PelView va = codec::viewOf(a, 0), vb = codec::viewOf(b, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec::sad(va, vb, n, n));
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Sad)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void
BM_SadProbed(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    video::Plane a = randomPlane(64, 64, 1), b = randomPlane(64, 64, 2);
    codec::PelView va = codec::viewOf(a, 0), vb = codec::viewOf(b, 0);
    trace::Probe probe;
    trace::ProbeScope scope(&probe);
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec::sad(va, vb, n, n));
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SadProbed)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void
BM_Satd(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    video::Plane a = randomPlane(64, 64, 3), b = randomPlane(64, 64, 4);
    codec::PelView va = codec::viewOf(a, 0), vb = codec::viewOf(b, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec::satd(va, vb, n, n));
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Satd)->Arg(8)->Arg(16)->Arg(32);

void
BM_ForwardDct(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::vector<int16_t> src(static_cast<size_t>(n) * n, 17);
    std::vector<int32_t> dst(static_cast<size_t>(n) * n);
    for (auto _ : state) {
        codec::forwardDct(src.data(), dst.data(), n, 0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ForwardDct)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_QuantizeBlock(benchmark::State &state)
{
    codec::Quantizer quant(32, 63);
    std::vector<int32_t> coeff(32 * 32, 123), levels(32 * 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            quant.quantizeBlock(coeff.data(), levels.data(), 32, 0, 0));
    }
    state.SetItemsProcessed(state.iterations() * 32 * 32);
}
BENCHMARK(BM_QuantizeBlock);

void
BM_RangeCoderBit(benchmark::State &state)
{
    codec::Bitstream stream;
    codec::RangeEncoder enc(stream);
    codec::BinContext ctx;
    uint32_t lfsr = 0xace1;
    for (auto _ : state) {
        lfsr = (lfsr >> 1) ^ ((-(lfsr & 1u)) & 0xb400u);
        enc.encodeBit(ctx, lfsr & 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeCoderBit);

void
BM_IntraPredict(benchmark::State &state)
{
    auto mode = static_cast<codec::IntraMode>(state.range(0));
    codec::IntraNeighbors nb{};
    nb.hasTop = nb.hasLeft = true;
    video::Rng rng(9);
    for (int i = 0; i < 2 * codec::kMaxIntraSize; ++i) {
        nb.top[i] = static_cast<uint8_t>(rng.nextBelow(256));
        nb.left[i] = static_cast<uint8_t>(rng.nextBelow(256));
    }
    video::Plane out(32, 32);
    for (auto _ : state) {
        codec::predictIntra(mode, nb, 32, 32, codec::viewOf(out, 0));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 32 * 32);
}
BENCHMARK(BM_IntraPredict)
    ->Arg(static_cast<int>(codec::IntraMode::Dc))
    ->Arg(static_cast<int>(codec::IntraMode::Planar))
    ->Arg(static_cast<int>(codec::IntraMode::D135))
    ->Arg(static_cast<int>(codec::IntraMode::Smooth));

/**
 * Register the per-table kernel benches for @p t under @p tag, e.g.
 * BM_TableSad/scalar/64 vs BM_TableSad/avx2/64.
 */
void
registerKernelSuite(const codec::KernelTable &t, const std::string &tag)
{
    using benchmark::RegisterBenchmark;
    for (int n : {16, 64}) {
        std::string sz = "/" + std::to_string(n);
        RegisterBenchmark(
            ("BM_TableSad/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                video::Plane a = randomPlane(64, 64, 1);
                video::Plane b = randomPlane(64, 64, 2);
                for (auto _ : state) {
                    benchmark::DoNotOptimize(t.sad(a.data(), a.stride(),
                                                   b.data(), b.stride(), n,
                                                   n));
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
        RegisterBenchmark(
            ("BM_TableSse/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                video::Plane a = randomPlane(64, 64, 3);
                video::Plane b = randomPlane(64, 64, 4);
                for (auto _ : state) {
                    benchmark::DoNotOptimize(t.sse(a.data(), a.stride(),
                                                   b.data(), b.stride(), n,
                                                   n));
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
        RegisterBenchmark(
            ("BM_TableSatd8/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                video::Plane a = randomPlane(64, 64, 5);
                video::Plane b = randomPlane(64, 64, 6);
                for (auto _ : state) {
                    uint64_t sum = 0;
                    for (int ty = 0; ty < n; ty += 8) {
                        for (int tx = 0; tx < n; tx += 8) {
                            sum += t.satd8(a.data() + ty * a.stride() + tx,
                                           a.stride(),
                                           b.data() + ty * b.stride() + tx,
                                           b.stride());
                        }
                    }
                    benchmark::DoNotOptimize(sum);
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
        RegisterBenchmark(
            ("BM_TableResidual/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                video::Plane a = randomPlane(64, 64, 7);
                video::Plane b = randomPlane(64, 64, 8);
                std::vector<int16_t> res(static_cast<size_t>(n) * n);
                for (auto _ : state) {
                    t.residual(a.data(), a.stride(), b.data(), b.stride(), n,
                               n, res.data());
                    benchmark::DoNotOptimize(res.data());
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
        RegisterBenchmark(
            ("BM_TableReconstruct/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                video::Plane pred = randomPlane(64, 64, 9);
                video::Plane dst(64, 64);
                std::vector<int16_t> res(static_cast<size_t>(n) * n);
                video::Rng rng(10);
                for (int16_t &x : res) {
                    x = static_cast<int16_t>(
                        static_cast<int>(rng.nextBelow(512)) - 256);
                }
                for (auto _ : state) {
                    t.reconstruct(pred.data(), pred.stride(), res.data(), n,
                                  n, dst.data(), dst.stride());
                    benchmark::DoNotOptimize(dst.data());
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
    }
    // The block shapes the encode's motion search and RD loop run most.
    for (std::pair<int, int> shape :
         {std::pair{4, 4}, std::pair{4, 8}, std::pair{8, 4}, std::pair{8, 8}}) {
        const int w = shape.first, h = shape.second;
        RegisterBenchmark(
            ("BM_TableSad/" + tag + "/" + std::to_string(w) + "x" +
             std::to_string(h))
                .c_str(),
            [&t, w, h](benchmark::State &state) {
                video::Plane a = randomPlane(64, 64, 1);
                video::Plane b = randomPlane(64, 64, 2);
                for (auto _ : state) {
                    benchmark::DoNotOptimize(t.sad(a.data(), a.stride(),
                                                   b.data(), b.stride(), w,
                                                   h));
                }
                state.SetItemsProcessed(state.iterations() * w * h);
            });
    }
    for (int n : {4, 8, 16, 32}) {
        std::string sz = "/" + std::to_string(n);
        RegisterBenchmark(
            ("BM_TableFdct/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                std::vector<int16_t> src(static_cast<size_t>(n) * n);
                video::Rng rng(11);
                for (int16_t &x : src) {
                    x = static_cast<int16_t>(
                        static_cast<int>(rng.nextBelow(512)) - 256);
                }
                std::vector<int32_t> dst(src.size());
                for (auto _ : state) {
                    t.fdct(src.data(), dst.data(), n);
                    benchmark::DoNotOptimize(dst.data());
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
        RegisterBenchmark(
            ("BM_TableIdct/" + tag + sz).c_str(),
            [&t, n](benchmark::State &state) {
                std::vector<int32_t> src(static_cast<size_t>(n) * n);
                video::Rng rng(12);
                for (int32_t &x : src) {
                    x = static_cast<int32_t>(rng.nextBelow(2048)) - 1024;
                }
                std::vector<int16_t> dst(src.size());
                for (auto _ : state) {
                    t.idct(src.data(), dst.data(), n);
                    benchmark::DoNotOptimize(dst.data());
                }
                state.SetItemsProcessed(state.iterations() * n * n);
            });
    }
    // subpel4 per phase, reading inside a plane so the filter's margin
    // (one pel before the block, two after) is there.
    for (int n : {8, 16}) {
        for (auto [phase, half_x, half_y] :
             {std::tuple{"h", true, false}, std::tuple{"v", false, true},
              std::tuple{"hv", true, true}}) {
            RegisterBenchmark(
                ("BM_TableSubpel4/" + tag + "/" + phase + "/" +
                 std::to_string(n))
                    .c_str(),
                [&t, n, hx = half_x, hy = half_y](benchmark::State &state) {
                    video::Plane ref = randomPlane(64, 64, 15);
                    video::Plane dst(64, 64);
                    const uint8_t *origin = ref.data() + 8 * ref.stride() + 8;
                    for (auto _ : state) {
                        t.subpel4(origin, ref.stride(), n, n, hx, hy,
                                  dst.data(), dst.stride());
                        benchmark::DoNotOptimize(dst.data());
                        benchmark::ClobberMemory();
                    }
                    state.SetItemsProcessed(state.iterations() * n * n);
                });
        }
    }
    RegisterBenchmark(
        ("BM_TableQuant/" + tag).c_str(),
        [&t](benchmark::State &state) {
            constexpr int kCount = 32 * 32;
            std::vector<int32_t> coeff(kCount), levels(kCount);
            video::Rng rng(13);
            for (int32_t &x : coeff) {
                x = static_cast<int32_t>(rng.nextBelow(4096)) - 2048;
            }
            for (auto _ : state) {
                benchmark::DoNotOptimize(
                    t.quant(coeff.data(), levels.data(), kCount, 5.0, 0.08));
            }
            state.SetItemsProcessed(state.iterations() * kCount);
        });
    RegisterBenchmark(
        ("BM_TableDequant/" + tag).c_str(),
        [&t](benchmark::State &state) {
            constexpr int kCount = 32 * 32;
            std::vector<int32_t> levels(kCount), coeff(kCount);
            video::Rng rng(14);
            for (int32_t &x : levels) {
                x = static_cast<int32_t>(rng.nextBelow(256)) - 128;
            }
            for (auto _ : state) {
                t.dequant(levels.data(), coeff.data(), kCount, 12.5);
                benchmark::DoNotOptimize(coeff.data());
            }
            state.SetItemsProcessed(state.iterations() * kCount);
        });
}

} // namespace

int
main(int argc, char **argv)
{
    registerKernelSuite(codec::scalarKernels(), "scalar");
    if (std::string(codec::kernelIsaName()) != "scalar") {
        registerKernelSuite(codec::kernels(), codec::kernelIsaName());
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::AddCustomContext("kernel_isa", codec::kernelIsaName());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
