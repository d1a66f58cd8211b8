#ifndef VEPRO_LADDER_LADDER_HPP
#define VEPRO_LADDER_LADDER_HPP

/**
 * @file
 * Per-title ABR ladders: multi-resolution encoding as a first-class
 * workload.
 *
 * A ladder rung is (scale divisor, CRF): the suite clip is box-downscaled
 * by `scale` before encoding (JobSpec::scale, src/video/scale.hpp), and
 * its delivered quality is judged AT SOURCE RESOLUTION — what a client
 * upscaling the rung back to display size would see. `sweep` encodes
 * every rung of every title cache-first through the lab Orchestrator
 * (rung JobSpecs reuse JobSpec::traceKey(), so trace capture/replay
 * amortises across backends exactly like full-resolution points), then
 * extracts the per-title convex hull of (bitrate, source PSNR): the
 * "per-title ladder" — the rungs worth serving for that content.
 *
 * Source-resolution PSNR is composed, not re-measured: a warm sweep must
 * run zero encodes, and the cached record stores only the rung-resolution
 * PSNR. The scaling loss is measured independently by a deterministic
 * downscale->upscale round trip on the source (video::scaleRoundTripMse)
 * and added in the MSE domain:
 *
 *   mse_total = mse_scale + 255^2 * 10^(-psnr_rung/10)
 *   psnr_source = 10 * log10(255^2 / mse_total)     (capped at 99 dB)
 *
 * which treats coding noise and resampling loss as independent — the
 * standard additive-distortion assumption — and reduces exactly to the
 * stored PSNR at scale == 1. See DESIGN.md §17.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "lab/orchestrator.hpp"
#include "video/metrics.hpp"

namespace vepro::ladder
{

/** One resolution rung of the ladder: a scale divisor and its CRF grid. */
struct RungSpec {
    int scale = 1;          ///< Extra downscale on top of suite geometry.
    std::vector<int> crfs;  ///< CRFs encoded at this rung.
};

/** Traffic share of one rung scale in the characterization mix. */
struct RungShare {
    int scale = 1;
    double weight = 1.0;  ///< Relative; normalised over the mix.
};

/** A full ladder experiment. */
struct LadderConfig {
    std::string encoder = "SVT-AV1";
    std::vector<std::string> clips;  ///< Suite clip names.
    std::vector<RungSpec> rungs;
    int preset = 6;

    // Suite geometry / simulation knobs (JobSpec fields).
    int divisor = 8;
    int frames = 8;
    uint64_t maxTraceOps = 1'200'000;
    std::string backend;

    /**
     * Job mix for the uarch characterization table: the production
     * share of each rung scale. The default models the ISSUE's
     * 80%-low-res farm (60% of jobs below half resolution).
     */
    std::vector<RungShare> rungMix = {{1, 0.2}, {2, 0.2}, {4, 0.6}};
};

/**
 * The default ladder derived from a parsed RunScale: sweepClips(scale)
 * titles, scales {1, 2, 4}, the CRF grid {20, 32, 44, 56} (the paper's
 * 6-point AV1 sweep at --full's divisor 4 or below, the rule
 * sweepClips uses), suite geometry/backend from @p scale.
 */
LadderConfig ladderConfigFromScale(const core::RunScale &scale);

/**
 * Convex (bitrate, PSNR) hull: indices into @p pts of the rungs on the
 * upper-left hull, in ascending bitrate order. Deterministic contract
 * (mirrored by the naive O(n^2) oracle in vepro-check):
 *  1. order by (rate asc, psnr desc, index asc);
 *  2. equal-rate duplicates: keep only the first (highest psnr, then
 *     lowest index);
 *  3. drop dominated points (psnr not strictly above the running max);
 *  4. drop points on or below the chord of their hull neighbours
 *     (collinear points are dropped), via the exact double expression
 *     (m.q-a.q)*(b.r-a.r) - (b.q-a.q)*(m.r-a.r) <= 0.
 */
std::vector<size_t> convexHull(const std::vector<video::RdPoint> &pts);

/**
 * Compose rung-resolution coding PSNR with resampling loss into
 * source-resolution PSNR (see file header). @p mse_scale is the
 * downscale->upscale round-trip luma MSE; 0 returns @p psnr_rung_db
 * (capped at 99).
 */
double composePsnrAtSource(double psnr_rung_db, double mse_scale);

/** One measured rung point of one title. */
struct RungPoint {
    std::string clip;
    int scale = 1;
    int crf = 0;
    double bitrateKbps = 0.0;
    double psnrRungDb = 0.0;    ///< At encode (rung) resolution.
    double psnrSourceDb = 0.0;  ///< Composed at source resolution.
    bool onHull = false;
    lab::JobResult result;
};

/** All rungs of one title plus its extracted ladder. */
struct TitleLadder {
    std::string clip;
    std::vector<RungPoint> points;  ///< Rung-major, CRF-minor order.
    std::vector<size_t> hull;       ///< Indices into points, rate asc.
};

/** Everything `vepro-lab --ladder` renders. */
struct LadderResult {
    std::vector<TitleLadder> titles;
    core::Table ladder;  ///< Hull rungs per title.
    core::Table rd;      ///< Every measured point.
    core::Table uarch;   ///< Per-scale CPI stack / MPKI + mix + deltas.
    std::string mixLine; ///< One-line verdict on the CPI-stack story.
};

/**
 * Encode every rung of every title through @p orch (cache-first,
 * deduped, trace-amortised), compose source-resolution RD, extract
 * per-title hulls, and render the three tables. Output is byte-identical
 * for a given config regardless of worker count or cache temperature.
 */
LadderResult sweep(const LadderConfig &config, lab::Orchestrator &orch);

} // namespace vepro::ladder

#endif // VEPRO_LADDER_LADDER_HPP
