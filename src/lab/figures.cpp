#include "lab/figures.hpp"

#include <algorithm>
#include <stdexcept>

#include "encoders/registry.hpp"
#include "sched/scheduler.hpp"
#include "video/metrics.hpp"

namespace vepro::lab
{

namespace
{

/** One requested point of a figure: its spec and its handle. */
struct SweepHandle {
    JobSpec spec;
    size_t handle;
};

using Handles = std::vector<SweepHandle>;

/** add()'s point kinds: simulated on the core model, or encode only. */
constexpr bool kSimulated = false;
constexpr bool kEncodeOnly = true;

/** Request the point {encoder, video, crf, preset} at @p scale's
 *  geometry and keep its handle. */
void
add(Handles &handles, Orchestrator &orch, const core::RunScale &scale,
    bool encode_only, const std::string &encoder, const std::string &video,
    int crf, int preset)
{
    JobSpec spec = JobSpec::withScale(scale);
    spec.encoder = encoder;
    spec.video = video;
    spec.crf = crf;
    spec.preset = preset;
    spec.encodeOnly = encode_only;
    handles.push_back({spec, orch.request(spec)});
}

/** @p scale with the geometry a figure needs in place of the default
 *  divisor 8; a geometry the caller chose (--full) stays. */
core::RunScale
withGeometry(core::RunScale scale, int divisor, int frames)
{
    if (scale.suite.divisor == 8) {
        scale.suite.divisor = divisor;
        scale.suite.frames = frames;
    }
    return scale;
}

/** Figs 1-2's point on @p enc's axes for an AV1-axis (0-63) CRF: x26x
 *  maps the CRF onto 0-51 and counts presets the other way (5, not 4). */
void
addAv1Axis(Handles &handles, Orchestrator &orch, const core::RunScale &scale,
           const encoders::EncoderModel &enc, int crf)
{
    add(handles, orch, scale, kEncodeOnly, enc.name(), "game1",
        enc.crfRange() == 63 ? crf : core::mapCrfToX26x(crf),
        enc.presetInverted() ? 5 : 4);
}

/** @p row followed by the six mix categories' shares of @p r's ops. */
std::vector<std::string>
withMix(std::vector<std::string> row, const JobResult &r)
{
    for (trace::MixCategory c :
         {trace::MixCategory::Branch, trace::MixCategory::Load,
          trace::MixCategory::Store, trace::MixCategory::Avx,
          trace::MixCategory::Sse, trace::MixCategory::Other}) {
        row.push_back(core::fmt(r.encode.mix.categoryPercent(c), 1));
    }
    return row;
}

std::string
pctOfCycles(const uarch::CoreStats &c, uint64_t v)
{
    return core::fmt(c.cycles ? 100.0 * static_cast<double>(v) /
                                    static_cast<double>(c.cycles)
                              : 0.0,
                     2);
}

/** Table 1 measures its clips itself: no point to request. */
Handles
requestNothing(Orchestrator &, const core::RunScale &)
{
    return {};
}

/** Request phase of Table 2: SVT-AV1 at preset 8, CRF 63, per clip. */
Handles
requestTable2(Orchestrator &orch, const core::RunScale &scale)
{
    Handles handles;
    for (const video::SuiteEntry &e : core::selectedVideos(scale)) {
        add(handles, orch, scale, kEncodeOnly, "SVT-AV1", e.name, 63, 8);
    }
    return handles;
}

/** Request phase of fig 1: every encoder over the CRF sweep on game1. */
Handles
requestFig1(Orchestrator &orch, const core::RunScale &scale)
{
    Handles handles;
    for (const auto &enc : encoders::allEncoders()) {
        for (int crf : core::crfSweepAv1()) {
            addAv1Axis(handles, orch, scale, *enc, crf);
        }
    }
    return handles;
}

/**
 * Request phase of fig 2, on game1 at 1/4 scale (rate-distortion gaps
 * need blocks small against content features; at 1/8 a 16x16
 * macroblock covers what a 128x128 block would at full resolution,
 * flattering the AVC model). 2a: four CRFs per encoder, x264 (the
 * BD-rate anchor) first, then the others in registry order; 2b: the
 * preset-4 SVT-AV1 sweep, which shares two points with 2a.
 */
Handles
requestFig2(Orchestrator &orch, const core::RunScale &scale)
{
    const core::RunScale geometry = withGeometry(scale, 4, 6);
    auto order = encoders::allEncoders();
    std::stable_partition(order.begin(), order.end(), [](const auto &enc) {
        return enc->name() == "x264";
    });
    Handles handles;
    for (const auto &enc : order) {
        for (int crf : {16, 28, 40, 52}) {
            addAv1Axis(handles, orch, geometry, *enc, crf);
        }
    }
    for (int crf : {8, 16, 24, 32, 40, 48, 56}) {
        add(handles, orch, geometry, kEncodeOnly, "SVT-AV1", "game1", crf, 4);
    }
    return handles;
}

/** Request phase of figs 3-7: the preset-4 SVT-AV1 CRF sweep. */
Handles
requestCrfSweep(Orchestrator &orch, const core::RunScale &scale)
{
    Handles handles;
    for (const video::SuiteEntry &e : sweepClips(scale)) {
        for (int crf : core::crfSweepAv1()) {
            add(handles, orch, scale, kSimulated, "SVT-AV1", e.name, crf, 4);
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
        add(handles, orch, scale, kSimulated, "SVT-AV1", "game1", 30, preset);
    }
    return handles;
}

/**
 * Request phase of figs 12-15, on game1 at full resolution, 10 frames
 * (the scalability shapes need paper-scale superblock grids): the three
 * encodes all four figures share, then the figure's x264 point.
 */
template <int X264Preset, int X264Crf>
Handles
requestThreads(Orchestrator &orch, const core::RunScale &scale)
{
    const core::RunScale geometry = withGeometry(scale, 1, 10);
    Handles handles;
    add(handles, orch, geometry, kEncodeOnly, "SVT-AV1", "game1", 50, 6);
    add(handles, orch, geometry, kEncodeOnly, "Libaom", "game1", 50, 6);
    add(handles, orch, geometry, kEncodeOnly, "x265", "game1", 40, 2);
    add(handles, orch, geometry, kEncodeOnly, "x264", "game1", X264Crf,
        X264Preset);
    return handles;
}

void
renderTable1(const Orchestrator &, const Handles &,
             const core::RunScale &scale, FigureResult &out)
{
    core::Table table({"Video", "Resolution", "FPS", "Entropy (paper)",
                       "Entropy (measured)", "Scaled size"});
    for (const video::SuiteEntry &e : video::vbenchMini()) {
        const video::Video clip = video::loadSuiteVideo(e, scale.suite);
        const auto [w, h] = video::scaledSize(e, scale.suite);
        table.addRow({e.name, video::resolutionClass(e),
                      core::fmt(e.fps, 0), core::fmt(e.paperEntropy, 2),
                      core::fmt(video::measureEntropy(clip), 2),
                      std::to_string(w) + "x" + std::to_string(h)});
    }
    out.tables.push_back(
        {"videos",
         "Table 1: the list of videos from vbench (synthetic stand-ins at "
         "1/" + std::to_string(scale.suite.divisor) + " scale)",
         std::move(table)});
    out.expectedShape =
        "Expected shape: the measured entropy tracks the paper's "
        "ordering, the calibration the whole suite rests on.";
}

void
renderTable2(const Orchestrator &orch, const Handles &handles,
             const core::RunScale &, FigureResult &out)
{
    core::Table table({"Video", "# Insts.", "Branch", "Load", "Store",
                       "AVX", "SSE", "Other"});
    for (const SweepHandle &h : handles) {
        const JobResult &r = orch.result(h.handle);
        table.addRow(withMix(
            {h.spec.video,
             core::fmtSci(static_cast<double>(r.encode.instructions))},
            r));
    }
    out.tables.push_back(
        {"instmix",
         "Table 2: instruction mix in % (SVT-AV1, preset 8, CRF 63)",
         std::move(table)});
    out.expectedShape = "Paper ranges: Branch 3.3-6.9, Load 25.8-29.4, "
                        "Store 12.9-15.5, AVX 29.2-34.2, SSE 0.2-1.0, "
                        "Other 17.6-23.3";
}

void
renderFig1(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    core::Table time({"Encoder", "CRF10", "CRF20", "CRF30", "CRF40",
                      "CRF50", "CRF60"});
    core::Table insts = time;
    // requestFig1's order: one encoder's whole CRF sweep after another.
    const size_t crfs = core::crfSweepAv1().size();
    for (size_t first = 0; first < handles.size(); first += crfs) {
        std::vector<std::string> times = {handles[first].spec.encoder};
        std::vector<std::string> counts = times;
        for (size_t i = first; i < first + crfs; ++i) {
            const EncodeSummary &e = orch.result(handles[i].handle).encode;
            times.push_back(core::fmt(e.wallSeconds, 3) + "s");
            counts.push_back(core::fmt(e.instructions / 1e6, 1) + "M");
        }
        time.addRow(std::move(times));
        insts.addRow(std::move(counts));
    }
    out.tables.push_back({"time",
                          "Fig 1: execution time vs CRF (game1; x26x CRF "
                          "mapped onto the 0-51 range)",
                          std::move(time)});
    out.tables.push_back({"instructions",
                          "Fig 1 (companion): modeled instructions vs CRF",
                          std::move(insts)});
    out.expectedShape =
        "Expected shape: SVT-AV1 highest at every CRF (~10x the "
        "x264/x265/VP9 cluster), Libaom second.";
}

void
renderFig2(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    // requestFig2's order: four 2a points per encoder, x264 first, then
    // 2b's sweep.
    constexpr size_t kPoints = 4;
    // One encoder's RD curve and its total encode time.
    const auto curve = [&](size_t first) {
        std::pair<std::vector<video::RdPoint>, double> out{{}, 0.0};
        for (size_t i = first; i < first + kPoints; ++i) {
            const EncodeSummary &e = orch.result(handles[i].handle).encode;
            out.first.push_back({e.bitrateKbps, e.psnrDb});
            out.second += e.wallSeconds;
        }
        return out;
    };
    const size_t end_2a = kPoints * encoders::allEncoders().size();
    core::Table bd({"Encoder", "BD-Rate vs x264 (%)", "Total time (s)"});
    const std::vector<video::RdPoint> anchor = curve(0).first;
    for (size_t first = 0; first < end_2a; first += kPoints) {
        const auto [rd, seconds] = curve(first);
        bd.addRow({handles[first].spec.encoder,
                   core::fmt(video::bdRate(anchor, rd), 2),
                   core::fmt(seconds, 2)});
    }
    core::Table psnr({"CRF", "Time (s)", "PSNR (dB)", "Bitrate (kbps)"});
    for (size_t i = end_2a; i < handles.size(); ++i) {
        const EncodeSummary &e = orch.result(handles[i].handle).encode;
        psnr.addRow({std::to_string(handles[i].spec.crf),
                     core::fmt(e.wallSeconds, 3), core::fmt(e.psnrDb, 2),
                     core::fmt(e.bitrateKbps, 0)});
    }
    out.tables.push_back({"bdrate",
                          "Fig 2a: PSNR BD-Rate vs execution time (game1; "
                          "negative BD-Rate = less bitrate at equal "
                          "quality)",
                          std::move(bd)});
    out.tables.push_back(
        {"psnr_time",
         "Fig 2b: PSNR vs execution time for SVT-AV1 (game1, preset 4)",
         std::move(psnr)});
    out.expectedShape =
        "Expected shape: 2a: AV1-family encoders reach negative BD-Rate "
        "at much higher runtime; 2b: quality rises with runtime with "
        "diminishing returns.";
}

void
renderFig3(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    core::Table table({"Video", "CRF", "Branch", "Load", "Store", "AVX",
                       "SSE", "Other"});
    for (const SweepHandle &h : handles) {
        table.addRow(withMix({h.spec.video, std::to_string(h.spec.crf)},
                             orch.result(h.handle)));
    }
    out.tables.push_back({"opmix",
                          "Fig 3: op-mix for each video; CRF increases "
                          "within each cluster (SVT-AV1, preset 4)",
                          std::move(table)});
    out.expectedShape = "Expected shape: the AVX share grows as CRF rises.";
}

void
renderFig4(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    core::Table table({"Video", "CRF", "Instructions", "Time (s)", "IPC"});
    for (const SweepHandle &h : handles) {
        const JobResult &r = orch.result(h.handle);
        table.addRow({h.spec.video, std::to_string(h.spec.crf),
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
renderFig5(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    core::Table table(
        {"Video", "CRF", "Retiring", "Bad-spec", "Frontend", "Backend"});
    for (const SweepHandle &h : handles) {
        const auto &s = orch.result(h.handle).core.slots;
        table.addRow({h.spec.video, std::to_string(h.spec.crf),
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
renderFig6(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    core::Table mpki(
        {"Video", "CRF", "Branch MPKI", "L1D MPKI", "L2 MPKI", "LLC MPKI"});
    core::Table stalls({"Video", "CRF", "RS stall%", "ROB stall%",
                        "LB stall%", "SB stall%"});
    for (const SweepHandle &h : handles) {
        const auto &c = orch.result(h.handle).core;
        mpki.addRow({h.spec.video, std::to_string(h.spec.crf),
                     core::fmt(c.branchMpki(), 2), core::fmt(c.l1dMpki(), 2),
                     core::fmt(c.l2Mpki(), 2), core::fmt(c.llcMpki(), 3)});
        stalls.addRow({h.spec.video, std::to_string(h.spec.crf),
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
renderFig7(const Orchestrator &orch, const Handles &handles,
           const core::RunScale &, FigureResult &out)
{
    core::Table table(
        {"Video", "CRF", "Cond branches", "Mispredicts", "Miss rate %"});
    for (const SweepHandle &h : handles) {
        const auto &c = orch.result(h.handle).core;
        table.addRow({h.spec.video, std::to_string(h.spec.crf),
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
            const core::RunScale &, FigureResult &out)
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
        ab.addRow({std::to_string(h.spec.preset),
                   core::fmt(r.encode.wallSeconds, 3),
                   core::fmtCount(r.encode.instructions),
                   core::fmt(r.encode.bitrateKbps, 0),
                   core::fmt(r.encode.psnrDb, 2)});
        cde.addRow({std::to_string(h.spec.preset),
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

void
renderThreads(const Orchestrator &orch, const Handles &handles,
              const core::RunScale &, FigureResult &out)
{
    core::Table table({"Encoder", "1T", "2T", "3T", "4T", "5T", "6T", "7T",
                       "8T", "est. time@8T"});
    for (const SweepHandle &h : handles) {
        const EncodeSummary &e = orch.result(h.handle).encode;
        std::vector<std::string> row = {h.spec.encoder};
        for (int cores = 1; cores <= 8; ++cores) {
            row.push_back(core::fmt(sched::speedupAt(e.makespans, cores), 2));
        }
        // The 8-core makespan at the encode's measured instruction rate.
        const double rate =
            e.wallSeconds > 0 ? e.instructions / e.wallSeconds : 0.0;
        const uint64_t span = sched::makespanAt(e.makespans, 8);
        row.push_back(core::fmt(rate > 0 ? span / rate : 0.0, 2) + "s");
        table.addRow(std::move(row));
    }
    const JobSpec &x264 = handles.back().spec;
    out.tables.push_back(
        {"speedup",
         "Fig " + out.id + " (x264 preset " + std::to_string(x264.preset) +
             ", CRF " + std::to_string(x264.crf) +
             "): speedup vs simulated thread count (game1)",
         std::move(table)});
    out.expectedShape =
        "Expected shape: SVT-AV1 reaches ~6x at 8 threads (best from 4 "
        "threads on); x264 strong early then saturating; Libaom capped "
        "near 4x by its tiles; x265 ~1.3x.";
}

/** One regenerable figure or table: the points it requests and how it
 *  renders. */
struct FigureRow {
    /** The --figures id: the paper's figure number, or "t" and its
     *  table number. */
    const char *id;
    Handles (*request)(Orchestrator &, const core::RunScale &);
    void (*render)(const Orchestrator &, const Handles &,
                   const core::RunScale &, FigureResult &);
    bool readsVideos = false;  ///< Its clips follow --videos.
};

/** Every artifact the lab regenerates, tables first, then figures in
 *  ascending order; figs 3-7 share a sweep, figs 12-15 three encodes. */
const FigureRow kFigures[] = {
    {"t1", requestNothing, renderTable1},
    {"t2", requestTable2, renderTable2, true},
    {"1", requestFig1, renderFig1},
    {"2", requestFig2, renderFig2},
    {"3", requestCrfSweep, renderFig3, true},
    {"4", requestCrfSweep, renderFig4, true},
    {"5", requestCrfSweep, renderFig5, true},
    {"6", requestCrfSweep, renderFig6, true},
    {"7", requestCrfSweep, renderFig7, true},
    {"11", requestPresetSweep, renderFig11},
    // Figs 12-15 differ only in their x264 point {preset, CRF}.
    {"12", requestThreads<0, 51>, renderThreads},
    {"13", requestThreads<2, 51>, renderThreads},
    {"14", requestThreads<5, 50>, renderThreads},
    {"15", requestThreads<5, 30>, renderThreads},
};

const FigureRow &
rowFor(const std::string &id)
{
    for (const FigureRow &row : kFigures) {
        if (row.id == id) {
            return row;
        }
    }
    throw std::invalid_argument("lab: unsupported figure " + id);
}

} // namespace

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
runFigures(const std::vector<std::string> &ids, const core::RunScale &scale,
           Orchestrator &orch)
{
    std::vector<const FigureRow *> rows;
    for (const std::string &id : ids) {
        rows.push_back(&rowFor(id));
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
        const std::string id = rows[i]->id;
        out[i].id = id;  // "t1" -> table1, "4" -> fig04, "11" -> fig11.
        out[i].slug = id.front() == 't' ? "table" + id.substr(1)
                      : id.size() < 2   ? "fig0" + id
                                        : "fig" + id;
        rows[i]->render(orch, handles[i], scale, out[i]);
    }
    return out;
}

core::FlagTable
labFlags(LabCli &out)
{
    using enum core::FlagKind;
    std::vector<std::string> ids;
    for (const FigureRow &row : kFigures) {
        ids.push_back(row.id);
    }
    core::FlagTable table{
        .program = "vepro-lab",
        .synopsis = "(--figures=LIST | --ladder) [options]",
        .rows = {{.name = "figures", .kind = List, .metavar = "LIST",
                  .choices = ids,
                  .help = "tables (t1, t2) and figures to regenerate, in "
                          "order",
                  .set = core::to(out.figures)},
                 {.name = "ladder", .excludes = {"figures"},
                  .help = "run the per-title ABR ladder sweep instead",
                  .set = core::to(out.ladder)},
                 {.name = "out", .kind = String, .metavar = "DIR",
                  .help = "artifact directory", .set = core::to(out.outDir)}},
        .check = [&out] {
            // Table 1 and figs 1, 2, 11-15 run fixed clips.
            if (out.figures.empty() && !out.ladder) {
                throw core::UsageError("--figures or --ladder is required");
            }
            if (!out.ladder && !out.scale.videos.empty() &&
                std::none_of(out.figures.begin(), out.figures.end(),
                             [](const std::string &id) {
                                 return rowFor(id).readsVideos;
                             })) {
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
