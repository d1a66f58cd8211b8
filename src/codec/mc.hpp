#ifndef VEPRO_CODEC_MC_HPP
#define VEPRO_CODEC_MC_HPP

/**
 * @file
 * Motion estimation and compensation.
 *
 * Estimation runs a two-level diamond search (optionally exhaustive at
 * the slowest presets) with half-pel refinement. Compensation does
 * full-pel copies, bilinear half-pel averages, or (sharpSubpel) a
 * separable 4-tap (-1,5,5,-1)/8 half-pel filter. The 4-tap reads one pel
 * above/left of the block and two below/right; for blocks at the plane
 * edge it reads an edge-replicated copy of that (w+3)x(h+3)
 * neighbourhood instead, so one filter loop serves every position and
 * needs no per-tap clamping. Every cost
 * comparison in the search is a data-dependent branch and is reported to
 * the probe as such — these are the branches the paper's predictor study
 * lives on.
 */

#include <cstdint>

#include "codec/block.hpp"

namespace vepro::codec
{

/** Motion vector in half-pel units. */
struct MotionVector {
    int x = 0;
    int y = 0;

    bool operator==(const MotionVector &) const = default;
};

/** Motion-search tuning derived from the encoder preset. */
struct MeConfig {
    /** Full-pel search radius around the predictor. */
    int range = 8;
    /** Exhaustively scan the full window instead of diamond search. */
    bool exhaustive = false;
    /** Refine the best full-pel vector at half-pel precision. */
    bool subpel = true;
    /**
     * Use the 4-tap (-1,5,5,-1)/8 half-pel filter instead of bilinear —
     * the sharper interpolation of the HEVC/VP9/AV1 generation. Better
     * prediction for more multiplies.
     */
    bool sharpSubpel = false;
    /**
     * Stop early when a candidate SAD falls below
     * earlyExitPerPel * w * h. 0 disables early exit.
     */
    double earlyExitPerPel = 0.0;
};

/** Result of a motion search. */
struct MeResult {
    MotionVector mv;        ///< Best vector found (half-pel units).
    uint64_t sad = 0;       ///< SAD at the best vector.
    int candidates = 0;     ///< Number of candidate vectors evaluated.
};

/**
 * Motion-compensate a w x h block: fetch the reference block displaced by
 * @p mv from position (@p bx, @p by), clamped inside the reference plane.
 *
 * @param ref      Whole reference plane view.
 * @param ref_w,ref_h Reference plane dimensions.
 * @param dst      Output prediction block.
 */
void motionCompensate(const PelView &ref, int ref_w, int ref_h, int bx,
                      int by, int w, int h, MotionVector mv, PelViewMut dst,
                      bool sharp_subpel = false);

/**
 * Search the reference plane for the best motion vector for the block at
 * (@p bx, @p by) in @p src_plane.
 *
 * @param src_plane Whole source plane view.
 * @param ref       Whole reference plane view.
 * @param pred      Search centre (e.g. the neighbour MV predictor).
 */
MeResult motionSearch(const PelView &src_plane, const PelView &ref, int ref_w,
                      int ref_h, int bx, int by, int w, int h,
                      MotionVector pred, const MeConfig &config);

/** Clamp @p mv (half-pel) so the compensated block stays in the plane. */
MotionVector clampMv(MotionVector mv, int bx, int by, int w, int h, int ref_w,
                     int ref_h);

} // namespace vepro::codec

#endif // VEPRO_CODEC_MC_HPP
