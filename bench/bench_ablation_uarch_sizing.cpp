/**
 * @file
 * Ablation (beyond the paper) — core-resource sizing on an SVT-AV1
 * trace: sweep the ROB and unified-scheduler sizes around the Broadwell
 * configuration and report IPC and backend-boundedness, locating which
 * resource actually limits the encoder (the paper's Fig. 6e-h hints it
 * is the RS and store buffer, not the ROB).
 *
 * All 18 configurations are simulated from ONE encode pass via
 * core::runPointMulti: the instrumented encoder streams its trace into
 * a MuxSink fanning into 18 independent StreamCore instances on the
 * encode thread, so the encode+emit cost is paid once instead of per
 * config. Each config's CoreStats is bit-identical to a sequential
 * runPoint (tests/test_core.cpp pins that).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "encoders/registry.hpp"
#include "uarch/core.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    core::RunScale scale = core::RunScale::fromArgs(argc, argv);
    video::Video clip = video::loadSuiteVideo("game1", scale.suite);
    auto encoder = encoders::encoderByName("SVT-AV1");

    // The whole ablation as one config list; rows index into it.
    std::vector<uarch::CoreConfig> configs;
    const int kRobs[] = {64, 128, 192, 256, 384};
    for (int rob : kRobs) {
        uarch::CoreConfig cfg;
        cfg.robSize = rob;
        configs.push_back(cfg);
    }
    const int kRs[] = {20, 40, 60, 97, 160};
    for (int rs : kRs) {
        uarch::CoreConfig cfg;
        cfg.rsSize = rs;
        configs.push_back(cfg);
    }
    const char *const kPreds[] = {"bimodal-4KB", "gshare-2KB",
                                  "gshare-32KB", "tage-8KB", "tage-64KB"};
    for (const char *spec : kPreds) {
        uarch::CoreConfig cfg;
        cfg.predictorSpec = spec;
        configs.push_back(cfg);
    }
    for (int mode = 0; mode < 3; ++mode) {
        uarch::CoreConfig cfg;
        cfg.mem.prefetch.enabled = mode > 0;
        cfg.mem.prefetch.degree = mode == 2 ? 4 : 2;
        configs.push_back(cfg);
    }

    const std::vector<core::SweepPoint> points =
        core::runPointMulti(*encoder, clip, 40, 4, scale, configs);
    size_t at = 0;

    core::Table rob_table({"ROB size", "IPC", "Backend frac", "ROB stall%"});
    for (int rob : kRobs) {
        const uarch::CoreStats &s = points[at++].core;
        rob_table.addRow(
            {std::to_string(rob), core::fmt(s.ipc(), 2),
             core::fmt(s.slots.fraction(s.slots.backend), 3),
             core::fmt(100.0 * static_cast<double>(s.stalls.rob) /
                           static_cast<double>(s.cycles),
                       2)});
    }
    rob_table.print("Ablation: ROB sizing (SVT-AV1 trace, game1 CRF 40 "
                    "preset 4)");

    core::Table rs_table({"RS size", "IPC", "Backend frac", "RS stall%"});
    for (int rs : kRs) {
        const uarch::CoreStats &s = points[at++].core;
        rs_table.addRow(
            {std::to_string(rs), core::fmt(s.ipc(), 2),
             core::fmt(s.slots.fraction(s.slots.backend), 3),
             core::fmt(100.0 * static_cast<double>(s.stalls.rs) /
                           static_cast<double>(s.cycles),
                       2)});
    }
    rs_table.print("Ablation: unified scheduler (RS) sizing");

    core::Table pred_table({"Frontend predictor", "IPC", "Miss rate %",
                            "Bad-spec frac"});
    for (const char *spec : kPreds) {
        const uarch::CoreStats &s = points[at++].core;
        pred_table.addRow({spec, core::fmt(s.ipc(), 2),
                           core::fmt(s.branchMissRatePercent(), 2),
                           core::fmt(s.slots.fraction(s.slots.badSpec), 3)});
    }
    pred_table.print("Ablation: front-end predictor choice (the paper's "
                     "~10% IPC headroom claim)");

    core::Table pf_table({"Prefetcher", "IPC", "L1D MPKI", "L2 MPKI",
                          "LLC MPKI", "Backend-mem frac"});
    for (int mode = 0; mode < 3; ++mode) {
        const uarch::CoreStats &s = points[at++].core;
        pf_table.addRow(
            {mode == 0 ? "off" : mode == 1 ? "stride x2" : "stride x4",
             core::fmt(s.ipc(), 2), core::fmt(s.l1dMpki(), 2),
             core::fmt(s.l2Mpki(), 2), core::fmt(s.llcMpki(), 3),
             core::fmt(s.slots.fraction(s.slots.backendMemory), 3)});
    }
    pf_table.print("Ablation: L2 stride prefetcher");
    return 0;
}
