#include "ladder/ladder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "lab/figures.hpp"
#include "video/scale.hpp"
#include "video/suite.hpp"

namespace vepro::ladder
{

namespace
{

constexpr double kPeakSq = 255.0 * 255.0;
constexpr double kPsnrCap = 99.0;  // matches video::psnr's identical cap

std::string
rungLabel(int scale)
{
    return "1/" + std::to_string(scale);
}

std::string
fmtSigned(double v, int decimals)
{
    return (v >= 0.0 ? "+" : "") + core::fmt(v, decimals);
}

/** Per-scale CoreStats totals in double precision (mix rows blend). */
struct Agg {
    double count = 0;
    double cycles = 0, instructions = 0;
    double retiring = 0, badSpec = 0, frontend = 0, backend = 0;
    double backendMemory = 0;
    double mispredicts = 0, l1dMisses = 0, l2Misses = 0, llcMisses = 0;

    void
    add(const uarch::CoreStats &c)
    {
        count += 1;
        cycles += static_cast<double>(c.cycles);
        instructions += static_cast<double>(c.instructions);
        retiring += static_cast<double>(c.slots.retiring);
        badSpec += static_cast<double>(c.slots.badSpec);
        frontend += static_cast<double>(c.slots.frontend);
        backend += static_cast<double>(c.slots.backend);
        backendMemory += static_cast<double>(c.slots.backendMemory);
        mispredicts += static_cast<double>(c.mispredicts);
        l1dMisses += static_cast<double>(c.l1dMisses);
        l2Misses += static_cast<double>(c.l2Misses);
        llcMisses += static_cast<double>(c.llcMisses);
    }

    double ipc() const { return cycles > 0 ? instructions / cycles : 0.0; }
    double
    slotsTotal() const
    {
        return retiring + badSpec + frontend + backend;
    }
    double
    share(double part) const
    {
        return slotsTotal() > 0 ? 100.0 * part / slotsTotal() : 0.0;
    }
    double
    mpki(double misses) const
    {
        return instructions > 0 ? 1000.0 * misses / instructions : 0.0;
    }
};

std::vector<std::string>
aggRow(const std::string &scale_cell, const std::string &share_cell,
       const std::string &points_cell, const Agg &a)
{
    return {scale_cell,
            share_cell,
            points_cell,
            core::fmt(a.ipc(), 2),
            core::fmt(a.share(a.retiring), 1),
            core::fmt(a.share(a.badSpec), 1),
            core::fmt(a.share(a.frontend), 1),
            core::fmt(a.share(a.backend), 1),
            core::fmt(a.share(a.backendMemory), 1),
            core::fmt(a.mpki(a.mispredicts), 3),
            core::fmt(a.mpki(a.l1dMisses), 3),
            core::fmt(a.mpki(a.l2Misses), 3),
            core::fmt(a.mpki(a.llcMisses), 3)};
}

const char *
dominantStall(const Agg &a)
{
    const double bad = a.badSpec;
    const double fe = a.frontend;
    const double be = a.backend;
    if (be >= fe && be >= bad) {
        return "backend";
    }
    if (fe >= bad) {
        return "frontend";
    }
    return "bad-speculation";
}

} // namespace

LadderConfig
ladderConfigFromScale(const core::RunScale &scale)
{
    LadderConfig config;
    for (const video::SuiteEntry &entry : lab::sweepClips(scale)) {
        config.clips.push_back(entry.name);
    }
    const std::vector<int> crfs = scale.suite.divisor <= 4
                                      ? core::crfSweepAv1()
                                      : std::vector<int>{20, 32, 44, 56};
    for (int s : {1, 2, 4}) {
        config.rungs.push_back({s, crfs});
    }
    config.divisor = scale.suite.divisor;
    config.frames = scale.suite.frames;
    config.maxTraceOps = scale.maxTraceOps;
    config.backend = scale.backend;
    return config;
}

std::vector<size_t>
convexHull(const std::vector<video::RdPoint> &pts)
{
    std::vector<size_t> order(pts.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (pts[a].bitrateKbps != pts[b].bitrateKbps) {
            return pts[a].bitrateKbps < pts[b].bitrateKbps;
        }
        if (pts[a].psnrDb != pts[b].psnrDb) {
            return pts[a].psnrDb > pts[b].psnrDb;
        }
        return a < b;
    });

    // Rate-duplicate and dominance filters (rules 2 and 3).
    std::vector<size_t> kept;
    double last_rate = 0.0;
    bool have_rate = false;
    double best_psnr = -std::numeric_limits<double>::infinity();
    for (size_t idx : order) {
        if (have_rate && pts[idx].bitrateKbps == last_rate) {
            continue;
        }
        last_rate = pts[idx].bitrateKbps;
        have_rate = true;
        if (pts[idx].psnrDb <= best_psnr) {
            continue;
        }
        best_psnr = pts[idx].psnrDb;
        kept.push_back(idx);
    }

    // Upper-concave chain (rule 4): drop points on or below the chord
    // of their neighbours. The cross expression must stay byte-for-byte
    // this one — the vepro-check oracle evaluates the identical
    // expression, so agreement is exact, not within-epsilon.
    std::vector<size_t> hull;
    for (size_t idx : kept) {
        while (hull.size() >= 2) {
            const video::RdPoint &a = pts[hull[hull.size() - 2]];
            const video::RdPoint &m = pts[hull.back()];
            const video::RdPoint &b = pts[idx];
            const double cross =
                (m.psnrDb - a.psnrDb) * (b.bitrateKbps - a.bitrateKbps) -
                (b.psnrDb - a.psnrDb) * (m.bitrateKbps - a.bitrateKbps);
            if (cross <= 0.0) {
                hull.pop_back();
            } else {
                break;
            }
        }
        hull.push_back(idx);
    }
    return hull;
}

double
composePsnrAtSource(double psnr_rung_db, double mse_scale)
{
    if (mse_scale <= 0.0) {
        // Exact reduction at scale == 1: no resampling loss means the
        // stored rung PSNR is already the source PSNR.
        return std::min(kPsnrCap, psnr_rung_db);
    }
    const double mse_coding = kPeakSq * std::pow(10.0, -psnr_rung_db / 10.0);
    const double total = mse_scale + mse_coding;
    return std::min(kPsnrCap, 10.0 * std::log10(kPeakSq / total));
}

LadderResult
sweep(const LadderConfig &config, lab::Orchestrator &orch)
{
    if (config.clips.empty() || config.rungs.empty()) {
        throw std::invalid_argument("ladder::sweep: empty clip or rung set");
    }
    for (const RungSpec &rung : config.rungs) {
        if (rung.scale < 1) {
            throw std::invalid_argument("ladder::sweep: rung scale < 1");
        }
        if (rung.crfs.empty()) {
            throw std::invalid_argument("ladder::sweep: rung with no CRFs");
        }
    }

    // Request every (title, rung, crf) point; the orchestrator dedupes
    // and serves cache-first.
    struct Pending {
        size_t title;
        int scale;
        int crf;
        size_t handle;
    };
    std::vector<Pending> pending;
    for (size_t t = 0; t < config.clips.size(); ++t) {
        for (const RungSpec &rung : config.rungs) {
            for (int crf : rung.crfs) {
                lab::JobSpec spec;
                spec.encoder = config.encoder;
                spec.video = config.clips[t];
                spec.crf = crf;
                spec.preset = config.preset;
                spec.divisor = config.divisor;
                spec.frames = config.frames;
                spec.maxTraceOps = config.maxTraceOps;
                spec.backend = config.backend;
                spec.scale = rung.scale;
                pending.push_back(
                    {t, rung.scale, crf, orch.request(spec)});
            }
        }
    }
    orch.run();

    // Resampling loss per (title, scale), measured once from the source
    // clip — no encoder involved, so warm sweeps still run zero encodes.
    video::SuiteScale suite;
    suite.divisor = config.divisor;
    suite.frames = config.frames;
    std::map<std::pair<std::string, int>, double> scale_mse;
    for (const Pending &p : pending) {
        scale_mse.emplace(std::make_pair(config.clips[p.title], p.scale),
                          -1.0);
    }
    for (auto &entry : scale_mse) {
        if (entry.first.second == 1) {
            entry.second = 0.0;
        } else {
            const video::Video src =
                video::loadSuiteVideo(entry.first.first, suite);
            entry.second =
                video::scaleRoundTripMse(src, entry.first.second);
        }
    }

    LadderResult out{
        {},
        core::Table({"title", "rung", "crf", "kbps", "psnr@rung",
                     "psnr@src"}),
        core::Table({"title", "rung", "crf", "kbps", "psnr@rung",
                     "psnr@src", "hull"}),
        core::Table({"scale", "share", "points", "IPC", "retiring%",
                     "bad-spec%", "frontend%", "backend%", "bknd-mem%",
                     "br-MPKI", "L1D-MPKI", "L2-MPKI", "LLC-MPKI"}),
        ""};

    out.titles.resize(config.clips.size());
    for (size_t t = 0; t < config.clips.size(); ++t) {
        out.titles[t].clip = config.clips[t];
    }
    for (const Pending &p : pending) {
        const lab::JobResult &result = orch.result(p.handle);
        RungPoint point;
        point.clip = config.clips[p.title];
        point.scale = p.scale;
        point.crf = p.crf;
        point.bitrateKbps = result.encode.bitrateKbps;
        point.psnrRungDb = result.encode.psnrDb;
        point.psnrSourceDb = composePsnrAtSource(
            result.encode.psnrDb,
            scale_mse.at({point.clip, p.scale}));
        point.result = result;
        out.titles[p.title].points.push_back(std::move(point));
    }

    // Per-title hull on (bitrate, source PSNR).
    for (TitleLadder &title : out.titles) {
        std::vector<video::RdPoint> rd(title.points.size());
        for (size_t i = 0; i < title.points.size(); ++i) {
            rd[i] = {title.points[i].bitrateKbps,
                     title.points[i].psnrSourceDb};
        }
        title.hull = convexHull(rd);
        for (size_t idx : title.hull) {
            title.points[idx].onHull = true;
        }
        for (size_t idx : title.hull) {
            const RungPoint &p = title.points[idx];
            out.ladder.addRow({p.clip, rungLabel(p.scale),
                               std::to_string(p.crf),
                               core::fmt(p.bitrateKbps, 1),
                               core::fmt(p.psnrRungDb, 2),
                               core::fmt(p.psnrSourceDb, 2)});
        }
        for (const RungPoint &p : title.points) {
            out.rd.addRow({p.clip, rungLabel(p.scale),
                           std::to_string(p.crf),
                           core::fmt(p.bitrateKbps, 1),
                           core::fmt(p.psnrRungDb, 2),
                           core::fmt(p.psnrSourceDb, 2),
                           p.onHull ? "yes" : ""});
        }
    }

    // Uarch characterization: per-scale aggregates over every measured
    // point (the rung workload, not just hull members), then the
    // traffic-mix blend and its delta against full resolution.
    std::vector<int> scales;
    for (const RungSpec &rung : config.rungs) {
        if (std::find(scales.begin(), scales.end(), rung.scale) ==
            scales.end()) {
            scales.push_back(rung.scale);
        }
    }
    std::map<int, Agg> by_scale;
    for (const TitleLadder &title : out.titles) {
        for (const RungPoint &p : title.points) {
            by_scale[p.scale].add(p.result.core);
        }
    }
    double mix_total = 0.0;
    std::map<int, double> mix_share;
    for (const RungShare &share : config.rungMix) {
        if (share.weight <= 0.0) {
            throw std::invalid_argument(
                "ladder::sweep: rung-mix weight must be > 0");
        }
        mix_share[share.scale] += share.weight;
        mix_total += share.weight;
    }
    for (auto &entry : mix_share) {
        entry.second /= mix_total;
        if (!by_scale.count(entry.first) ||
            by_scale.at(entry.first).count == 0) {
            throw std::invalid_argument(
                "ladder::sweep: rung mix references scale 1/" +
                std::to_string(entry.first) + " with no measured points");
        }
    }

    for (int s : scales) {
        const Agg &agg = by_scale.at(s);
        const std::string share =
            mix_share.count(s) ? core::fmt(100.0 * mix_share.at(s), 1) : "-";
        out.uarch.addRow(aggRow(
            rungLabel(s), share,
            std::to_string(static_cast<long long>(agg.count)), agg));
    }

    // Mix row: per-encode averages blended by traffic share.
    Agg mix;
    for (const auto &entry : mix_share) {
        const Agg &agg = by_scale.at(entry.first);
        const double w = entry.second / agg.count;
        mix.count += entry.second;
        mix.cycles += w * agg.cycles;
        mix.instructions += w * agg.instructions;
        mix.retiring += w * agg.retiring;
        mix.badSpec += w * agg.badSpec;
        mix.frontend += w * agg.frontend;
        mix.backend += w * agg.backend;
        mix.backendMemory += w * agg.backendMemory;
        mix.mispredicts += w * agg.mispredicts;
        mix.l1dMisses += w * agg.l1dMisses;
        mix.l2Misses += w * agg.l2Misses;
        mix.llcMisses += w * agg.llcMisses;
    }
    out.uarch.addRow(aggRow("mix", "100.0", "-", mix));

    const Agg &base =
        by_scale.count(1) ? by_scale.at(1) : by_scale.at(scales.front());
    out.uarch.addRow(
        {"Δ mix vs 1/1", "-", "-",
         fmtSigned(mix.ipc() - base.ipc(), 2),
         fmtSigned(mix.share(mix.retiring) - base.share(base.retiring), 1),
         fmtSigned(mix.share(mix.badSpec) - base.share(base.badSpec), 1),
         fmtSigned(mix.share(mix.frontend) - base.share(base.frontend), 1),
         fmtSigned(mix.share(mix.backend) - base.share(base.backend), 1),
         fmtSigned(mix.share(mix.backendMemory) -
                       base.share(base.backendMemory),
                   1),
         fmtSigned(mix.mpki(mix.mispredicts) - base.mpki(base.mispredicts),
                   3),
         fmtSigned(mix.mpki(mix.l1dMisses) - base.mpki(base.l1dMisses), 3),
         fmtSigned(mix.mpki(mix.l2Misses) - base.mpki(base.l2Misses), 3),
         fmtSigned(mix.mpki(mix.llcMisses) - base.mpki(base.llcMisses), 3)});

    std::string mix_desc;
    for (const auto &entry : mix_share) {
        if (!mix_desc.empty()) {
            mix_desc += ", ";
        }
        mix_desc += rungLabel(entry.first) + "=" +
                    core::fmt(100.0 * entry.second, 0) + "%";
    }
    const char *base_dom = dominantStall(base);
    const char *mix_dom = dominantStall(mix);
    out.mixLine =
        "rung mix (" + mix_desc + "): backend-bound " +
        core::fmt(base.share(base.backend), 1) + "% -> " +
        core::fmt(mix.share(mix.backend), 1) + "% (" +
        fmtSigned(mix.share(mix.backend) - base.share(base.backend), 1) +
        "pp), LLC MPKI " + core::fmt(base.mpki(base.llcMisses), 3) +
        " -> " + core::fmt(mix.mpki(mix.llcMisses), 3) + ", IPC " +
        core::fmt(base.ipc(), 2) + " -> " + core::fmt(mix.ipc(), 2) +
        " — dominant stall " +
        (std::string(base_dom) == mix_dom
             ? "stays " + std::string(mix_dom) + " (story holds)"
             : std::string("flips ") + base_dom + " -> " + mix_dom +
                   " (story flips)");
    return out;
}

} // namespace vepro::ladder
