/**
 * @file
 * Core-model pipeline example: run an instrumented encode, simulate the
 * captured op trace on the Broadwell-class core model, and print the
 * full microarchitectural report (top-down slots, cache MPKIs, branch
 * behaviour, resource stalls) — then re-run the same trace on a "what
 * if" machine with a doubled scheduler and a perfect-er predictor, the
 * acceleration question the paper closes on.
 *
 * Usage: core_pipeline [crf] (default 40)
 */

#include <cstdio>
#include <cstdlib>

#include "core/report.hpp"
#include "encoders/registry.hpp"
#include "uarch/core.hpp"
#include "video/suite.hpp"

namespace
{

void
printReport(const char *title, const vepro::uarch::CoreStats &s)
{
    using vepro::core::fmt;
    using vepro::core::fmtCount;
    std::printf("\n-- %s --\n", title);
    std::printf("  instructions : %s\n", fmtCount(s.instructions).c_str());
    std::printf("  cycles       : %s\n", fmtCount(s.cycles).c_str());
    std::printf("  IPC          : %s\n", fmt(s.ipc(), 2).c_str());
    std::printf("  topdown      : retiring %s  bad-spec %s  frontend %s  "
                "backend %s (mem %s / core %s)\n",
                fmt(s.slots.fraction(s.slots.retiring), 3).c_str(),
                fmt(s.slots.fraction(s.slots.badSpec), 3).c_str(),
                fmt(s.slots.fraction(s.slots.frontend), 3).c_str(),
                fmt(s.slots.fraction(s.slots.backend), 3).c_str(),
                fmt(s.slots.fraction(s.slots.backendMemory), 3).c_str(),
                fmt(s.slots.fraction(s.slots.backendCore), 3).c_str());
    std::printf("  branches     : %s cond, miss %s%%, MPKI %s\n",
                fmtCount(s.condBranches).c_str(),
                fmt(s.branchMissRatePercent(), 2).c_str(),
                fmt(s.branchMpki(), 2).c_str());
    std::printf("  cache MPKI   : L1I %s  L1D %s  L2 %s  LLC %s\n",
                fmt(s.l1iMpki(), 2).c_str(), fmt(s.l1dMpki(), 2).c_str(),
                fmt(s.l2Mpki(), 2).c_str(), fmt(s.llcMpki(), 3).c_str());
    std::printf("  stall cycles : RS %s  ROB %s  LB %s  SB %s\n",
                fmtCount(s.stalls.rs).c_str(),
                fmtCount(s.stalls.rob).c_str(),
                fmtCount(s.stalls.loadBuf).c_str(),
                fmtCount(s.stalls.storeBuf).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vepro;
    const int crf = argc > 1 ? std::atoi(argv[1]) : 40;

    video::SuiteScale scale;
    scale.divisor = 8;
    scale.frames = 6;
    video::Video clip = video::loadSuiteVideo("game1", scale);

    auto encoder = encoders::encoderByName("SVT-AV1");
    encoders::EncodeParams params;
    params.crf = crf;
    params.preset = 4;
    trace::ProbeConfig pc;
    pc.ops = trace::SamplePlan::windows(150'000, 600'000, 1'500'000);
    // Fused pipeline: both machines consume the sampled op stream live
    // through one MuxSink, so the encode runs once and no trace is
    // materialised.
    uarch::StreamCore baseline;

    // What-if: the paper suggests branch prediction is the component
    // with the most acceleration headroom.
    uarch::CoreConfig better;
    better.predictorSpec = "tage-256KB";
    better.rsSize = 120;
    uarch::StreamCore upgraded(better);

    trace::MuxSink mux{&baseline, &upgraded};
    encoders::EncodeResult r = encoder->encode(clip, params, pc, false, &mux);
    std::printf("encoded game1 at CRF %d: %s instructions, %.2f dB, "
                "%.0f kbps; simulated %s sampled ops in-stream\n",
                crf, core::fmtCount(r.instructions).c_str(), r.psnrDb,
                r.bitrateKbps,
                core::fmtCount(baseline.stats().instructions).c_str());

    printReport("Xeon E5-2650 v4 (paper machine)", baseline.stats());
    printReport("What-if: 256KB TAGE + 2x scheduler", upgraded.stats());
    return 0;
}
