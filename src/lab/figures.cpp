#include "lab/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

namespace vepro::lab
{

namespace
{

/** One requested point of a figure's sweep. */
struct SweepHandle {
    std::string video;
    int crf;
    int preset;
    size_t handle;
};

using Handles = std::vector<SweepHandle>;

std::string
pctOfCycles(const uarch::CoreStats &c, uint64_t v)
{
    return core::fmt(c.cycles ? 100.0 * static_cast<double>(v) /
                                    static_cast<double>(c.cycles)
                              : 0.0,
                     2);
}

/** Request phase of figs 4-7: the preset-4 SVT-AV1 CRF sweep. */
Handles
requestCrfSweep(Orchestrator &orch, const core::RunScale &scale)
{
    Handles handles;
    for (const video::SuiteEntry &e : sweepClips(scale)) {
        for (int crf : core::crfSweepAv1()) {
            JobSpec spec = JobSpec::withScale(scale);
            spec.encoder = "SVT-AV1";
            spec.video = e.name;
            spec.crf = crf;
            spec.preset = 4;
            handles.push_back({e.name, crf, 4, orch.request(spec)});
        }
    }
    return handles;
}

/** Request phase of fig 11: the preset sweep for game1 at fixed CRF 30. */
Handles
requestPresetSweep(Orchestrator &orch, const core::RunScale &scale)
{
    Handles handles;
    for (int preset = 0; preset <= 8; ++preset) {
        JobSpec spec = JobSpec::withScale(scale);
        spec.encoder = "SVT-AV1";
        spec.video = "game1";
        spec.crf = 30;
        spec.preset = preset;
        handles.push_back({"game1", 30, preset, orch.request(spec)});
    }
    return handles;
}

void
renderFig4(const Orchestrator &orch, const Handles &handles, FigureResult &out)
{
    core::Table table({"Video", "CRF", "Instructions", "Time (s)", "IPC"});
    for (const SweepHandle &h : handles) {
        const JobResult &r = orch.result(h.handle);
        table.addRow({h.video, std::to_string(h.crf),
                      core::fmtCount(r.encode.instructions),
                      core::fmt(r.encode.wallSeconds, 3),
                      core::fmt(r.core.ipc(), 2)});
    }
    out.tables.push_back(
        {"crf_sweep",
         "Fig 4: CRF sweep — instruction count (4a), execution time "
         "(4b), IPC (4c); SVT-AV1 preset 4",
         std::move(table)});
    out.expectedShape =
        "Expected shape: instructions and time fall together as CRF "
        "rises; IPC stays near 2 and rises <= ~10%.";
}

void
renderFig5(const Orchestrator &orch, const Handles &handles, FigureResult &out)
{
    core::Table table(
        {"Video", "CRF", "Retiring", "Bad-spec", "Frontend", "Backend"});
    for (const SweepHandle &h : handles) {
        const auto &s = orch.result(h.handle).core.slots;
        table.addRow({h.video, std::to_string(h.crf),
                      core::fmt(s.fraction(s.retiring), 3),
                      core::fmt(s.fraction(s.badSpec), 3),
                      core::fmt(s.fraction(s.frontend), 3),
                      core::fmt(s.fraction(s.backend), 3)});
    }
    out.tables.push_back(
        {"topdown",
         "Fig 5: top-down analysis per video; CRF rises within each "
         "cluster (SVT-AV1 preset 4)",
         std::move(table)});
    out.expectedShape =
        "Expected shape: bad-speculation falls with CRF; backend "
        "rises; retiring ~0.4-0.6 throughout.";
}

void
renderFig6(const Orchestrator &orch, const Handles &handles, FigureResult &out)
{
    core::Table mpki(
        {"Video", "CRF", "Branch MPKI", "L1D MPKI", "L2 MPKI", "LLC MPKI"});
    core::Table stalls({"Video", "CRF", "RS stall%", "ROB stall%",
                        "LB stall%", "SB stall%"});
    for (const SweepHandle &h : handles) {
        const auto &c = orch.result(h.handle).core;
        mpki.addRow({h.video, std::to_string(h.crf),
                     core::fmt(c.branchMpki(), 2), core::fmt(c.l1dMpki(), 2),
                     core::fmt(c.l2Mpki(), 2), core::fmt(c.llcMpki(), 3)});
        stalls.addRow({h.video, std::to_string(h.crf),
                       pctOfCycles(c, c.stalls.rs),
                       pctOfCycles(c, c.stalls.rob),
                       pctOfCycles(c, c.stalls.loadBuf),
                       pctOfCycles(c, c.stalls.storeBuf)});
    }
    out.tables.push_back(
        {"mpki",
         "Fig 6a-d: branch / L1D / L2 / LLC misses per kilo-"
         "instruction vs CRF (SVT-AV1 preset 4)",
         std::move(mpki)});
    out.tables.push_back(
        {"stalls",
         "Fig 6e-h: allocation-stall cycles by blocking resource "
         "(percent of cycles) vs CRF",
         std::move(stalls)});
    out.expectedShape =
        "Expected shape: branch MPKI falls with CRF; L1D/L2 MPKI "
        "rise; LLC MPKI far below both; ROB stalls small.";
}

void
renderFig7(const Orchestrator &orch, const Handles &handles, FigureResult &out)
{
    core::Table table(
        {"Video", "CRF", "Cond branches", "Mispredicts", "Miss rate %"});
    for (const SweepHandle &h : handles) {
        const auto &c = orch.result(h.handle).core;
        table.addRow({h.video, std::to_string(h.crf),
                      core::fmtCount(c.condBranches),
                      core::fmtCount(c.mispredicts),
                      core::fmt(c.branchMissRatePercent(), 2)});
    }
    out.tables.push_back(
        {"missrate", "Fig 7: branch miss rate vs CRF (SVT-AV1 preset 4)",
         std::move(table)});
    out.expectedShape =
        "Expected shape: the miss rate falls as CRF rises (looser RD "
        "thresholds make decision branches biased).";
}

void
renderFig11(const Orchestrator &orch, const Handles &handles,
            FigureResult &out)
{
    core::Table ab(
        {"Preset", "Time (s)", "Instructions", "Bitrate (kbps)", "PSNR (dB)"});
    core::Table cde({"Preset", "Retiring", "Bad-spec", "Frontend", "Backend",
                     "Br MPKI", "L1D MPKI", "L2 MPKI", "RS stall%",
                     "SB stall%"});
    for (const SweepHandle &h : handles) {
        const JobResult &r = orch.result(h.handle);
        const auto &c = r.core;
        const auto &s = c.slots;
        ab.addRow({std::to_string(h.preset),
                   core::fmt(r.encode.wallSeconds, 3),
                   core::fmtCount(r.encode.instructions),
                   core::fmt(r.encode.bitrateKbps, 0),
                   core::fmt(r.encode.psnrDb, 2)});
        cde.addRow({std::to_string(h.preset),
                    core::fmt(s.fraction(s.retiring), 3),
                    core::fmt(s.fraction(s.badSpec), 3),
                    core::fmt(s.fraction(s.frontend), 3),
                    core::fmt(s.fraction(s.backend), 3),
                    core::fmt(c.branchMpki(), 2), core::fmt(c.l1dMpki(), 2),
                    core::fmt(c.l2Mpki(), 2), pctOfCycles(c, c.stalls.rs),
                    pctOfCycles(c, c.stalls.storeBuf)});
    }
    out.tables.push_back(
        {"time_rd",
         "Fig 11a-b: preset sweep — time, bitrate, PSNR (game1, "
         "CRF 30)",
         std::move(ab)});
    out.tables.push_back(
        {"uarch", "Fig 11c-e: preset sweep — top-down, MPKI, resource stalls",
         std::move(cde)});
    out.expectedShape =
        "Expected shape: time falls ~3 orders of magnitude from "
        "preset 0 to 8; bitrate rises, PSNR dips modestly; the "
        "microarchitectural rows show no clear preset trend.";
}

/** One regenerable figure: the points it requests and how it renders. */
struct FigureRow {
    int id;  ///< Paper figure number.
    Handles (*request)(Orchestrator &, const core::RunScale &);
    void (*render)(const Orchestrator &, const Handles &, FigureResult &);
};

/** Every figure the lab regenerates, ascending; figs 4-7 share a sweep. */
const FigureRow kFigures[] = {
    {4, requestCrfSweep, renderFig4},
    {5, requestCrfSweep, renderFig5},
    {6, requestCrfSweep, renderFig6},
    {7, requestCrfSweep, renderFig7},
    {11, requestPresetSweep, renderFig11},
};

} // namespace

const std::vector<int> &
supportedFigures()
{
    static const std::vector<int> ids = [] {
        std::vector<int> out;
        for (const FigureRow &row : kFigures) {
            out.push_back(row.id);
        }
        return out;
    }();
    return ids;
}

std::vector<video::SuiteEntry>
sweepClips(const core::RunScale &scale)
{
    if (!scale.videos.empty() || scale.suite.divisor <= 4) {
        return core::selectedVideos(scale);
    }
    // Quick default: span the entropy axis with five clips.
    std::vector<video::SuiteEntry> subset;
    for (const char *name : {"desktop", "funny", "game1", "cat", "hall"}) {
        subset.push_back(video::suiteEntry(name));
    }
    return subset;
}

std::vector<FigureResult>
runFigures(const std::vector<int> &ids, const core::RunScale &scale,
           Orchestrator &orch)
{
    std::vector<const FigureRow *> rows;
    for (int id : ids) {
        const FigureRow *row = std::find_if(
            std::begin(kFigures), std::end(kFigures),
            [id](const FigureRow &r) { return r.id == id; });
        if (row == std::end(kFigures)) {
            throw std::invalid_argument("lab: unsupported figure " +
                                        std::to_string(id));
        }
        if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
            rows.push_back(row);
        }
    }

    // Request everything first so overlapping figures dedupe, then
    // resolve the union in one pool run, then render per figure.
    std::vector<Handles> handles;
    for (const FigureRow *row : rows) {
        handles.push_back(row->request(orch, scale));
    }

    orch.run();

    std::vector<FigureResult> out(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        char slug[16];
        std::snprintf(slug, sizeof slug, "fig%02d", rows[i]->id);
        out[i].id = rows[i]->id;
        out[i].slug = slug;
        rows[i]->render(orch, handles[i], out[i]);
    }
    return out;
}

core::FlagTable
labFlags(LabCli &out)
{
    using enum core::FlagKind;
    std::vector<std::string> ids;
    for (int id : supportedFigures()) {
        ids.push_back(std::to_string(id));
    }
    core::FlagTable table{
        .program = "vepro-lab",
        .synopsis = "(--figures=LIST | --ladder) [options]",
        .rows = {{.name = "figures", .kind = List, .metavar = "LIST",
                  .choices = ids, .help = "figures to regenerate, in order",
                  .set = [&out](auto &v) {
                      for (const std::string &id :
                           std::get<core::FlagList>(v)) {
                          out.figures.push_back(
                              core::parseIntStrict(id, "--figures"));
                      }
                  }},
                 {.name = "ladder", .excludes = {"figures"},
                  .help = "run the per-title ABR ladder sweep instead",
                  .set = core::to(out.ladder)},
                 {.name = "out", .kind = String, .metavar = "DIR",
                  .help = "artifact directory", .set = core::to(out.outDir)}},
        .check = [&out] {
            // Fig 11's preset sweep runs game1 whatever --videos says.
            const auto sweeps = [&out](const FigureRow &row) {
                return row.request == requestCrfSweep &&
                       std::count(out.figures.begin(), out.figures.end(),
                                  row.id);
            };
            if (out.figures.empty() && !out.ladder) {
                throw core::UsageError("--figures or --ladder is required");
            }
            if (!out.ladder && !out.scale.videos.empty() &&
                std::none_of(std::begin(kFigures), std::end(kFigures),
                             sweeps)) {
                throw core::UsageError("--videos does not apply to these "
                                       "--figures, which run fixed clips");
            }
        }};
    for (core::Flag &flag : core::RunScale::flags(out.scale).rows) {
        table.rows.push_back(std::move(flag));
    }
    return table;
}

} // namespace vepro::lab
