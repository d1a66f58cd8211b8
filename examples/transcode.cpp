/**
 * @file
 * Transcode example — the vbench scenario the paper builds on: take an
 * already-encoded stream, decode it, and re-encode it with a different
 * codec at a different operating point, reporting generation loss and
 * the cost asymmetry between decode and encode.
 *
 * Pipeline: synthesise "house" → encode with the VP9 model (the
 * "mezzanine") → decode the bitstream → re-encode the decoded frames
 * with the x264 model (the "delivery" rung) → report sizes/quality, and
 * export the decoded clip as .y4m for external inspection.
 */

#include <cstdio>

#include "codec/decoder.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"
#include "uarch/core.hpp"
#include "video/metrics.hpp"
#include "video/suite.hpp"
#include "video/y4m.hpp"

int
main()
{
    using namespace vepro;
    video::SuiteScale scale;
    scale.divisor = 8;
    scale.frames = 6;
    video::Video source = video::loadSuiteVideo("house", scale);

    // 1. Mezzanine encode (VP9 model, good quality) + decode.
    auto vp9 = encoders::encoderByName("Libvpx-vp9");
    encoders::EncodeParams mezz_params;
    mezz_params.crf = 18;
    mezz_params.preset = 4;
    codec::ToolConfig mezz_cfg = vp9->toolConfig(mezz_params);

    codec::FrameCodec mezz_enc(mezz_cfg, source.width(), source.height(),
                               nullptr);
    codec::FrameDecoder mezz_dec(mezz_cfg, source.width(), source.height());
    video::Video decoded("house.decoded", source.fps());
    uint64_t mezz_bits = 0;
    for (int f = 0; f < source.frameCount(); ++f) {
        mezz_bits += mezz_enc.encodeFrame(source.frame(f), f == 0).bits;
        mezz_dec.decodeFrame(mezz_enc.lastFrameBytes(), f == 0);
        decoded.addFrame(mezz_dec.recon());
    }
    double mezz_psnr = video::videoPsnr(source, decoded);
    std::printf("mezzanine (VP9 model, CRF %d): %s bits, %.2f dB vs "
                "source\n",
                mezz_params.crf, core::fmtCount(mezz_bits).c_str(),
                mezz_psnr);

    // 2. Export the decoded mezzanine for external tools.
    const std::string y4m_path = "/tmp/vepro_house_decoded.y4m";
    video::writeY4m(y4m_path, decoded);
    video::Video reloaded = video::readY4m(y4m_path);
    std::printf("decoded clip exported to %s (%d frames, round-trip "
                "PSNR %.1f dB)\n",
                y4m_path.c_str(), reloaded.frameCount(),
                video::videoPsnr(decoded, reloaded));

    // 3. Delivery re-encode of the decoded frames (x264 model ladder).
    auto x264 = encoders::encoderByName("x264");
    core::Table table({"Delivery CRF", "Bits", "PSNR vs mezzanine",
                       "PSNR vs original", "Encode time (s)", "IPC"});
    for (int crf : {18, 28, 38}) {
        encoders::EncodeParams p;
        p.crf = crf;
        p.preset = 5;
        // Fused encode + core simulation: the sampled op trace streams
        // straight into the paper machine's core model, so each rung
        // also reports its simulated IPC without materialising a trace.
        trace::ProbeConfig pc;
        pc.ops = trace::SamplePlan::windows(100'000, 400'000, 600'000);
        uarch::StreamCore sim;
        encoders::EncodeResult r = x264->encode(reloaded, p, pc, false, &sim);
        codec::ToolConfig cfg = x264->toolConfig(p);
        codec::FrameCodec enc(cfg, reloaded.width(), reloaded.height(),
                              nullptr);
        video::Video delivered("delivered", reloaded.fps());
        for (int f = 0; f < reloaded.frameCount(); ++f) {
            enc.encodeFrame(reloaded.frame(f), f == 0);
            delivered.addFrame(enc.recon());
        }
        table.addRow({std::to_string(crf),
                      core::fmtCount(r.stats.bits),
                      core::fmt(video::videoPsnr(reloaded, delivered), 2),
                      core::fmt(video::videoPsnr(source, delivered), 2),
                      core::fmt(r.wallSeconds, 3),
                      core::fmt(sim.stats().ipc(), 2)});
    }
    table.print("Delivery ladder (x264 model) from the decoded mezzanine");
    std::printf("\nNote the generation loss: PSNR vs the original is "
                "bounded by the mezzanine's %.2f dB.\n", mezz_psnr);
    return 0;
}
