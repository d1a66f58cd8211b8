#ifndef VEPRO_ENCODERS_ENCODER_MODEL_HPP
#define VEPRO_ENCODERS_ENCODER_MODEL_HPP

/**
 * @file
 * Encoder models: the five encoders the paper benchmarks, rebuilt on the
 * shared block-codec toolkit.
 *
 * Each model is one EncoderSpec row (registry.cpp) declaring (a) a
 * ToolConfig mapping its CRF/preset envelope onto toolkit knobs —
 * partition arity, intra-mode count, motion-search effort, RD depth,
 * pruning — and (b) a threading structure used to emit the task graph
 * for the scalability study. The shared encode loop is identical, so
 * differences in instruction count, branch behaviour, and scaling
 * between models are consequences of those two declarations, mirroring
 * how the real encoders differ.
 */

#include <string>

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
     * Records cut by the probe's caps (the sample plan's op cap and
     * maxBranches). Non-zero means the recorded streams under-represent
     * the run; benches warn rather than report silently clipped
     * denominators.
     */
    uint64_t droppedOps = 0;
    uint64_t droppedBranches = 0;

    sched::TaskGraph taskGraph;     ///< For the scalability study.
};

/**
 * One encoder's row in the registry (registry.cpp): its CRF and preset
 * envelope, its threading structure, and the knobs its presets drive.
 */
struct EncoderSpec {
    const char *name;         ///< Paper name ("SVT-AV1", "x264", ...).
    int crfRange;             ///< Upper CRF bound (63 AV1/VP9, 51 x264/x265).
    int presetRange;          ///< Upper preset bound (8 AV1/VP9, 9 x264/x265).
    /**
     * True when larger preset numbers mean *slower* encodes (x264/x265
     * count presets in the opposite direction from the AV1 family).
     */
    bool presetInverted;
    ThreadModel threadModel;  ///< Threading for the scalability study.
    /**
     * The preset-driven toolkit knobs for slowness @p s in [0, 1], 1 being
     * the slowest preset; EncoderModel::toolConfig applies the CRF after.
     */
    codec::ToolConfig (*tools)(double s);
};

/** An encoder model: one EncoderSpec row driving the shared encode loop. */
class EncoderModel
{
  public:
    explicit EncoderModel(const EncoderSpec &spec) : spec_(spec) {}

    /** Display name matching the paper ("SVT-AV1", "x264", ...). */
    std::string name() const { return spec_.name; }
    int crfRange() const { return spec_.crfRange; }
    int presetRange() const { return spec_.presetRange; }
    bool presetInverted() const { return spec_.presetInverted; }
    ThreadModel threadModel() const { return spec_.threadModel; }

    /** Toolkit parameterisation for one sweep point. */
    codec::ToolConfig toolConfig(const EncodeParams &params) const;

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

  private:
    /**
     * Normalised "slowness" in [0, 1] for a preset: 1 = the slowest
     * preset of this model, handling the inverted ranges uniformly.
     */
    double slowness(int preset) const;

    EncoderSpec spec_;
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
