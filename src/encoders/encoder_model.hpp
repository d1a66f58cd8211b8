#ifndef VEPRO_ENCODERS_ENCODER_MODEL_HPP
#define VEPRO_ENCODERS_ENCODER_MODEL_HPP

/**
 * @file
 * Encoder models: the five encoders the paper benchmarks, rebuilt on the
 * shared block-codec toolkit.
 *
 * Each model contributes (a) a ToolConfig mapping its CRF/preset envelope
 * onto toolkit knobs — partition arity, intra-mode count, motion-search
 * effort, RD depth, pruning — and (b) a threading structure used to emit
 * the task graph for the scalability study. The shared encode loop is
 * identical, so differences in instruction count, branch behaviour, and
 * scaling between models are consequences of those two declarations,
 * mirroring how the real encoders differ.
 */

#include <memory>
#include <string>
#include <vector>

#include "codec/rdo.hpp"
#include "sched/taskgraph.hpp"
#include "trace/probe.hpp"
#include "video/frame.hpp"

namespace vepro::encoders
{

/** User-facing encode parameters (one point of the paper's sweeps). */
struct EncodeParams {
    int crf = 32;     ///< Within the model's crfRange().
    int preset = 4;   ///< Within the model's presetRange().
};

/** How a model structures its parallel work. */
enum class ThreadModel {
    Wavefront,      ///< SVT-AV1: superblock wavefront + frame pipelining.
    FrameParallel,  ///< x264: serial frames overlapped with row lag.
    TileParallel,   ///< libaom: independent tiles, serial frames.
    SerialSpine,    ///< x265 model: heavy main thread + light helpers.
};

/** Everything measured during one instrumented encode. */
struct EncodeResult {
    std::string encoder;
    EncodeParams params;

    double wallSeconds = 0.0;       ///< Host wall time of the encode.
    uint64_t instructions = 0;      ///< Modeled dynamic instructions.
    trace::MixCounters mix;         ///< Instruction mix (Table 2 / Fig 3).
    codec::EncodeStats stats;       ///< Search/commit statistics.

    double psnrDb = 0.0;            ///< Sequence luma PSNR.
    double bitrateKbps = 0.0;       ///< Real entropy-coded bitrate.

    /** Instruction span the branch trace covers (CBP MPKI denominator). */
    uint64_t branchTraceInstructions = 0;
    /**
     * In-window records cut by the probe's maxOps/maxBranches caps.
     * Non-zero means the recorded streams under-represent the run;
     * benches warn rather than report silently clipped denominators.
     */
    uint64_t droppedOps = 0;
    uint64_t droppedBranches = 0;

    sched::TaskGraph taskGraph;     ///< For the scalability study.
};

/** Abstract encoder model. */
class EncoderModel
{
  public:
    virtual ~EncoderModel() = default;

    /** Display name matching the paper ("SVT-AV1", "x264", ...). */
    virtual std::string name() const = 0;

    /** Upper CRF bound (63 for the AV1/VP9 family, 51 for x264/x265). */
    virtual int crfRange() const = 0;

    /** Upper preset bound (8 for the AV1/VP9 family, 9 for x264/x265). */
    virtual int presetRange() const = 0;

    /**
     * True when larger preset numbers mean *slower* encodes (x264/x265
     * count presets in the opposite direction from the AV1 family).
     */
    virtual bool presetInverted() const = 0;

    /** Threading structure for the scalability study. */
    virtual ThreadModel threadModel() const = 0;

    /** Toolkit parameterisation for one sweep point. */
    virtual codec::ToolConfig toolConfig(const EncodeParams &params) const = 0;

    /**
     * Encode a clip with full instrumentation.
     *
     * @param video        Input clip.
     * @param params       CRF / preset point.
     * @param probe_config What to collect (mix counters are always on).
     * @param build_tasks  Also emit the scalability task graph.
     * @param sink         Receives the recorded ops and branches as the
     *                     encode emits them (a trace::VectorSink
     *                     materialises them); flush() is called before
     *                     encode() returns.
     * @throws std::invalid_argument on an empty clip, or when
     *         @p probe_config records a trace and @p sink is null.
     */
    EncodeResult encode(const video::Video &video, const EncodeParams &params,
                        const trace::ProbeConfig &probe_config = {},
                        bool build_tasks = false,
                        trace::TraceSink *sink = nullptr) const;

  protected:
    /**
     * Normalised "slowness" in [0, 1] for a preset: 1 = the slowest
     * preset of this model, handling the inverted ranges uniformly.
     */
    double slowness(int preset) const;
};

/**
 * Lookahead pre-analysis (x264/x265): motion estimation over the frame
 * pair ahead of encoding. Costs are reported via the current probe.
 *
 * @param thorough x265-style: adds a full-resolution pass (slice-type
 *                 decision + adaptive quantisation analysis) on top of
 *                 the half-resolution one.
 */
void lookaheadPass(const video::Frame &cur, const video::Frame &prev,
                   uint64_t v_cur, uint64_t v_prev, bool thorough = false);

} // namespace vepro::encoders

#endif // VEPRO_ENCODERS_ENCODER_MODEL_HPP
