#include "lab/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace vepro::lab
{

namespace
{

/** One requested (video, crf) point of a CRF sweep. */
struct SweepHandle {
    std::string video;
    int crf;
    size_t handle;
};

std::string
pctOfCycles(const uarch::CoreStats &c, uint64_t v)
{
    return core::fmt(c.cycles ? 100.0 * static_cast<double>(v) /
                                    static_cast<double>(c.cycles)
                              : 0.0,
                     2);
}

/** Shared request phase of figs 4-7: the preset-4 SVT-AV1 CRF sweep. */
std::vector<SweepHandle>
requestCrfSweep(Orchestrator &orch, const core::RunScale &scale)
{
    std::vector<SweepHandle> handles;
    for (const video::SuiteEntry &e : sweepClips(scale)) {
        for (int crf : core::crfSweepAv1()) {
            JobSpec spec = JobSpec::withScale(scale);
            spec.encoder = "SVT-AV1";
            spec.video = e.name;
            spec.crf = crf;
            spec.preset = 4;
            handles.push_back({e.name, crf, orch.request(spec)});
        }
    }
    return handles;
}

/** Base for the four figures that render the shared CRF sweep. */
class CrfSweepFigure
{
  public:
    virtual ~CrfSweepFigure() = default;

    void
    request(Orchestrator &orch, const core::RunScale &scale)
    {
        handles_ = requestCrfSweep(orch, scale);
    }

    virtual FigureResult render(const Orchestrator &orch) const = 0;

  protected:
    std::vector<SweepHandle> handles_;
};

class Fig4 final : public CrfSweepFigure
{
  public:
    FigureResult
    render(const Orchestrator &orch) const override
    {
        core::Table table(
            {"Video", "CRF", "Instructions", "Time (s)", "IPC"});
        for (const SweepHandle &h : handles_) {
            const JobResult &r = orch.result(h.handle);
            table.addRow({h.video, std::to_string(h.crf),
                          core::fmtCount(r.encode.instructions),
                          core::fmt(r.encode.wallSeconds, 3),
                          core::fmt(r.core.ipc(), 2)});
        }
        FigureResult out;
        out.id = 4;
        out.slug = "fig04";
        out.tables.push_back(
            {"crf_sweep",
             "Fig 4: CRF sweep — instruction count (4a), execution time "
             "(4b), IPC (4c); SVT-AV1 preset 4",
             std::move(table)});
        out.expectedShape =
            "Expected shape: instructions and time fall together as CRF "
            "rises; IPC stays near 2 and rises <= ~10%.";
        return out;
    }
};

class Fig5 final : public CrfSweepFigure
{
  public:
    FigureResult
    render(const Orchestrator &orch) const override
    {
        core::Table table({"Video", "CRF", "Retiring", "Bad-spec",
                           "Frontend", "Backend"});
        for (const SweepHandle &h : handles_) {
            const auto &s = orch.result(h.handle).core.slots;
            table.addRow({h.video, std::to_string(h.crf),
                          core::fmt(s.fraction(s.retiring), 3),
                          core::fmt(s.fraction(s.badSpec), 3),
                          core::fmt(s.fraction(s.frontend), 3),
                          core::fmt(s.fraction(s.backend), 3)});
        }
        FigureResult out;
        out.id = 5;
        out.slug = "fig05";
        out.tables.push_back(
            {"topdown",
             "Fig 5: top-down analysis per video; CRF rises within each "
             "cluster (SVT-AV1 preset 4)",
             std::move(table)});
        out.expectedShape =
            "Expected shape: bad-speculation falls with CRF; backend "
            "rises; retiring ~0.4-0.6 throughout.";
        return out;
    }
};

class Fig6 final : public CrfSweepFigure
{
  public:
    FigureResult
    render(const Orchestrator &orch) const override
    {
        core::Table mpki({"Video", "CRF", "Branch MPKI", "L1D MPKI",
                          "L2 MPKI", "LLC MPKI"});
        core::Table stalls({"Video", "CRF", "RS stall%", "ROB stall%",
                            "LB stall%", "SB stall%"});
        for (const SweepHandle &h : handles_) {
            const auto &c = orch.result(h.handle).core;
            mpki.addRow({h.video, std::to_string(h.crf),
                         core::fmt(c.branchMpki(), 2),
                         core::fmt(c.l1dMpki(), 2),
                         core::fmt(c.l2Mpki(), 2),
                         core::fmt(c.llcMpki(), 3)});
            stalls.addRow({h.video, std::to_string(h.crf),
                           pctOfCycles(c, c.stalls.rs),
                           pctOfCycles(c, c.stalls.rob),
                           pctOfCycles(c, c.stalls.loadBuf),
                           pctOfCycles(c, c.stalls.storeBuf)});
        }
        FigureResult out;
        out.id = 6;
        out.slug = "fig06";
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
        return out;
    }
};

class Fig7 final : public CrfSweepFigure
{
  public:
    FigureResult
    render(const Orchestrator &orch) const override
    {
        core::Table table({"Video", "CRF", "Cond branches", "Mispredicts",
                           "Miss rate %"});
        for (const SweepHandle &h : handles_) {
            const auto &c = orch.result(h.handle).core;
            table.addRow({h.video, std::to_string(h.crf),
                          core::fmtCount(c.condBranches),
                          core::fmtCount(c.mispredicts),
                          core::fmt(c.branchMissRatePercent(), 2)});
        }
        FigureResult out;
        out.id = 7;
        out.slug = "fig07";
        out.tables.push_back(
            {"missrate",
             "Fig 7: branch miss rate vs CRF (SVT-AV1 preset 4)",
             std::move(table)});
        out.expectedShape =
            "Expected shape: the miss rate falls as CRF rises (looser RD "
            "thresholds make decision branches biased).";
        return out;
    }
};

/** Fig 11 — the preset sweep for game1 at fixed CRF 30. */
class Fig11 final
{
  public:
    void
    request(Orchestrator &orch, const core::RunScale &scale)
    {
        handles_.clear();
        for (int preset = 0; preset <= 8; ++preset) {
            JobSpec spec = JobSpec::withScale(scale);
            spec.encoder = "SVT-AV1";
            spec.video = "game1";
            spec.crf = 30;
            spec.preset = preset;
            handles_.push_back(orch.request(spec));
        }
    }

    FigureResult
    render(const Orchestrator &orch) const
    {
        core::Table ab({"Preset", "Time (s)", "Instructions",
                        "Bitrate (kbps)", "PSNR (dB)"});
        core::Table cde({"Preset", "Retiring", "Bad-spec", "Frontend",
                         "Backend", "Br MPKI", "L1D MPKI", "L2 MPKI",
                         "RS stall%", "SB stall%"});
        for (size_t preset = 0; preset < handles_.size(); ++preset) {
            const JobResult &r = orch.result(handles_[preset]);
            const auto &c = r.core;
            const auto &s = c.slots;
            ab.addRow({std::to_string(preset),
                       core::fmt(r.encode.wallSeconds, 3),
                       core::fmtCount(r.encode.instructions),
                       core::fmt(r.encode.bitrateKbps, 0),
                       core::fmt(r.encode.psnrDb, 2)});
            cde.addRow({std::to_string(preset),
                        core::fmt(s.fraction(s.retiring), 3),
                        core::fmt(s.fraction(s.badSpec), 3),
                        core::fmt(s.fraction(s.frontend), 3),
                        core::fmt(s.fraction(s.backend), 3),
                        core::fmt(c.branchMpki(), 2),
                        core::fmt(c.l1dMpki(), 2),
                        core::fmt(c.l2Mpki(), 2),
                        pctOfCycles(c, c.stalls.rs),
                        pctOfCycles(c, c.stalls.storeBuf)});
        }
        FigureResult out;
        out.id = 11;
        out.slug = "fig11";
        out.tables.push_back(
            {"time_rd",
             "Fig 11a-b: preset sweep — time, bitrate, PSNR (game1, "
             "CRF 30)",
             std::move(ab)});
        out.tables.push_back(
            {"uarch",
             "Fig 11c-e: preset sweep — top-down, MPKI, resource stalls",
             std::move(cde)});
        out.expectedShape =
            "Expected shape: time falls ~3 orders of magnitude from "
            "preset 0 to 8; bitrate rises, PSNR dips modestly; the "
            "microarchitectural rows show no clear preset trend.";
        return out;
    }

  private:
    std::vector<size_t> handles_;
};

} // namespace

const std::vector<int> &
supportedFigures()
{
    static const std::vector<int> ids = {4, 5, 6, 7, 11};
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
    std::vector<int> unique;
    for (int id : ids) {
        if (std::find(supportedFigures().begin(), supportedFigures().end(),
                      id) == supportedFigures().end()) {
            std::string known;
            for (int k : supportedFigures()) {
                known += (known.empty() ? "" : ",") + std::to_string(k);
            }
            throw std::invalid_argument("lab: unsupported figure " +
                                        std::to_string(id) +
                                        " (supported: " + known + ")");
        }
        if (std::find(unique.begin(), unique.end(), id) == unique.end()) {
            unique.push_back(id);
        }
    }

    // Request everything first so overlapping figures dedupe, then
    // resolve the union in one pool run, then render per figure.
    std::vector<std::unique_ptr<CrfSweepFigure>> crf_figs;
    std::vector<std::unique_ptr<Fig11>> preset_figs;
    std::vector<std::function<FigureResult()>> renderers;
    for (int id : unique) {
        if (id == 11) {
            preset_figs.push_back(std::make_unique<Fig11>());
            Fig11 *fig = preset_figs.back().get();
            fig->request(orch, scale);
            renderers.emplace_back([fig, &orch] { return fig->render(orch); });
            continue;
        }
        std::unique_ptr<CrfSweepFigure> fig;
        switch (id) {
        case 4: fig = std::make_unique<Fig4>(); break;
        case 5: fig = std::make_unique<Fig5>(); break;
        case 6: fig = std::make_unique<Fig6>(); break;
        default: fig = std::make_unique<Fig7>(); break;
        }
        fig->request(orch, scale);
        CrfSweepFigure *raw = fig.get();
        crf_figs.push_back(std::move(fig));
        renderers.emplace_back([raw, &orch] { return raw->render(orch); });
    }

    orch.run();

    std::vector<FigureResult> out;
    out.reserve(renderers.size());
    for (auto &render : renderers) {
        out.push_back(render());
    }
    return out;
}

} // namespace vepro::lab
