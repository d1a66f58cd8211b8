#ifndef VEPRO_CODEC_RDO_HPP
#define VEPRO_CODEC_RDO_HPP

/**
 * @file
 * Rate-distortion-optimised block encoding: recursive partition search,
 * intra/inter mode decision, and the committing encode pass that emits a
 * real entropy-coded bitstream and reconstruction.
 *
 * The encoder models (src/encoders) differ almost entirely in the
 * ToolConfig they build: which partition modes exist, how many intra
 * modes are tried, how hard motion search works, and how aggressively the
 * search is pruned. That is precisely the paper's thesis — AV1's cost is
 * the size of this search space — so the search below really explores it.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/block.hpp"
#include "codec/intra.hpp"
#include "codec/mc.hpp"
#include "codec/quant.hpp"
#include "codec/rangecoder.hpp"
#include "codec/search_memo.hpp"
#include "trace/probe.hpp"
#include "video/frame.hpp"

namespace vepro::codec
{

/** Block partition modes (the AV1 set; subsets model older codecs). */
enum class PartitionMode : uint8_t {
    None,   ///< Code the block as a single leaf.
    Split,  ///< Recurse into four quadrants.
    Horz,   ///< Two w x h/2 leaves.
    Vert,   ///< Two w/2 x h leaves.
    HorzA,  ///< Two w/2 x h/2 on top, one w x h/2 below.
    HorzB,  ///< One w x h/2 on top, two w/2 x h/2 below.
    VertA,  ///< Two w/2 x h/2 left, one w/2 x h right.
    VertB,  ///< One w/2 x h left, two w/2 x h/2 right.
    Horz4,  ///< Four w x h/4 strips.
    Vert4,  ///< Four w/4 x h strips.
    Count,
};

inline constexpr int kNumPartitionModes = static_cast<int>(PartitionMode::Count);

/** Bitmask helpers for ToolConfig::partitionMask. */
constexpr uint32_t
partitionBit(PartitionMode m)
{
    return 1u << static_cast<int>(m);
}

/** The classic quad-tree-only set (AVC-style macroblock splitting). */
inline constexpr uint32_t kPartitionsQuad =
    partitionBit(PartitionMode::None) | partitionBit(PartitionMode::Split);
/** Quad-tree plus rectangles (VP9 / HEVC-style: 4 choices per node). */
inline constexpr uint32_t kPartitionsRect =
    kPartitionsQuad | partitionBit(PartitionMode::Horz) |
    partitionBit(PartitionMode::Vert);
/** The full 10-way AV1 set. */
inline constexpr uint32_t kPartitionsAv1 =
    kPartitionsRect | partitionBit(PartitionMode::HorzA) |
    partitionBit(PartitionMode::HorzB) | partitionBit(PartitionMode::VertA) |
    partitionBit(PartitionMode::VertB) | partitionBit(PartitionMode::Horz4) |
    partitionBit(PartitionMode::Vert4);

/** Complete parameterisation of one encode (codec family x CRF x preset). */
struct ToolConfig {
    int superblockSize = 64;      ///< Top-level coding unit size.
    int minBlockSize = 8;         ///< Quad-tree recursion floor.
    uint32_t partitionMask = kPartitionsRect;  ///< Allowed partition modes.
    int intraModes = 10;          ///< Intra modes evaluated per leaf.
    /** Intra modes evaluated on non-None partition leaves (fast set). */
    int intraModesRect = 4;
    int txSizeCandidates = 1;     ///< Transform sizes tried per leaf (1-2).
    /**
     * Transform *types* evaluated per tile (1-3): DCT plus the
     * horizontally/vertically flipped variants standing in for AV1's
     * ADST family. Each candidate really runs a forward transform,
     * quantisation, and rate estimation.
     */
    int txTypeCandidates = 1;
    /**
     * Reference hypotheses searched per inter leaf (1-4): each runs a
     * full motion search from a different start predictor, modelling
     * AV1/VP9's multi-reference-frame search against one physical
     * reference.
     */
    int refFramesSearched = 1;
    /**
     * Interpolation filters evaluated per inter leaf (1-3): each extra
     * candidate re-runs motion compensation through a smoothing variant
     * and re-costs it, as AV1's dual-filter search does.
     */
    int interpFilterCands = 1;
    MeConfig me;                  ///< Motion-search effort.
    bool fullRd = false;          ///< Transform-domain RD vs SATD estimates.
    /**
     * Early-termination aggressiveness: a leaf whose cost is below
     * earlyExitScale * pixels * qstep skips the remaining partition
     * evaluations. Larger = more pruning. 0 disables pruning.
     */
    double earlyExitScale = 1.0;
    /** Consecutive non-improving intra modes tolerated before bailing. */
    int modePatience = 3;
    /**
     * Minimum partition-tree depth at which early termination may fire.
     * AV1-class encoders always examine at least one split level before
     * concluding a superblock is done; older codecs prune at the root.
     */
    int pruneMinDepth = 0;
    int qIndex = 32;              ///< CRF within the family range.
    int qRange = 63;              ///< Family CRF range (63 or 51).
    double lambdaScale = 1.0;     ///< Extra RD lambda scaling.
    /** Extra smoothing passes after reconstruction (loop filter). */
    int filterPasses = 1;
    /**
     * Coefficient context-model depth (1-4): how many position bands get
     * independent adaptive contexts for significance/magnitude coding.
     * AVC-era coders use coarse models (1); AV1-era coders condition on
     * position much more finely (4), buying real bitrate at the cost of
     * more context-table traffic.
     */
    int coeffContexts = 2;
};

/** Final decisions for one leaf block. */
struct LeafChoice {
    bool inter = false;
    IntraMode mode = IntraMode::Dc;
    MotionVector mv{};
    int txSize = 8;
    int txType = 0;   ///< 0 = DCT, 1 = horizontal flip, 2 = vertical flip.
    double cost = 0.0;
};

/** One node of the chosen partition tree. */
struct PartNode {
    PartitionMode mode = PartitionMode::None;
    std::vector<PartNode> children;   ///< Populated when mode == Split.
    std::vector<LeafChoice> leaves;   ///< Populated otherwise.
};

/** Search-and-commit statistics for one frame / one video. */
struct EncodeStats {
    uint64_t bits = 0;                ///< Real bitstream bits produced.
    uint64_t leafEvals = 0;           ///< Candidate leaf evaluations.
    uint64_t modeEvals = 0;           ///< Prediction modes costed.
    uint64_t meCandidates = 0;        ///< Motion vectors costed.
    uint64_t partitionNodes = 0;      ///< Partition-tree nodes searched.
    uint64_t prunes = 0;              ///< Early-terminated nodes.
    uint64_t leafCommits = 0;         ///< Leaves actually coded.

    EncodeStats &operator+=(const EncodeStats &o);
};

/** A rectangle inside a frame, in luma pixels. */
struct BlockRect {
    int x, y, w, h;
};

/**
 * Adaptive-context state for the block syntax. Shared between the
 * encoder's commit pass and the decoder so both sides track identical
 * probabilities.
 */
struct SyntaxContexts {
    BinContext partition[6][kNumPartitionModes];
    BinContext interFlag[4];
    BinContext codedFlag[4];
    BinContext sig[4];
    BinContext gt1[4];
    BinContext gt2[4];
    BinContext mvJoint[4];
};

/** The sub-rectangles produced by applying @p mode to a block. */
std::vector<BlockRect> partitionRects(PartitionMode mode, const BlockRect &r);

/** True if @p mode is geometrically legal for the block / config. */
bool partitionAllowed(PartitionMode mode, const BlockRect &r,
                      const ToolConfig &config);

/**
 * Per-sequence codec state: reference frames, entropy contexts, scratch
 * buffers, and the search/commit machinery.
 *
 * One FrameCodec serves one encode of one video (sequential frames).
 * Not thread safe; parallel encoder models give each worker its own
 * instance over disjoint frame/tile ranges.
 */
class FrameCodec
{
  public:
    /**
     * @param config Encode parameterisation.
     * @param width,height Luma dimensions (multiples of 8 recommended).
     * @param probe  Probe used for synthetic address-space allocation;
     *               may be null (no instrumentation).
     */
    FrameCodec(const ToolConfig &config, int width, int height,
               trace::Probe *probe);

    /**
     * Encode one frame. The reconstruction becomes the reference for the
     * next call.
     *
     * @param src      Input frame (geometry must match the codec).
     * @param keyframe Force intra-only coding.
     * @return Stats for this frame (bits = real entropy-coded size).
     */
    EncodeStats encodeFrame(const video::Frame &src, bool keyframe);

    // -- Superblock-granular driving (used for task-graph construction) --

    /** Start a frame; pair with encodeSuperblock() calls and endFrame(). */
    void beginFrame(const video::Frame &src, bool keyframe);

    /**
     * Search and commit the superblock whose top-left corner is
     * (@p sx, @p sy). Superblocks must be visited in raster order.
     */
    void encodeSuperblock(int sx, int sy);

    /** Finish the frame: flush entropy coder, filter, update reference.
     *  @return Stats for the frame. */
    EncodeStats endFrame();

    /** Superblock grid dimensions for this codec. */
    int sbCols() const
    {
        return (width_ + config_.superblockSize - 1) / config_.superblockSize;
    }
    int sbRows() const
    {
        return (height_ + config_.superblockSize - 1) / config_.superblockSize;
    }

    /** Reconstruction of the most recently encoded frame. */
    const video::Frame &recon() const { return recon_; }

    /** Total encoded bytes so far (all frames). */
    size_t streamBytes() const { return stream_.sizeBytes(); }

    /** The byte payload of the most recently finished frame. */
    std::vector<uint8_t>
    lastFrameBytes() const
    {
        return {stream_.bytes().begin() +
                    static_cast<ptrdiff_t>(frame_start_bytes_),
                stream_.bytes().end()};
    }

    const ToolConfig &config() const { return config_; }
    const Quantizer &quantizer() const { return quant_; }

  private:
    struct EvalResult {
        LeafChoice choice;
        double cost;
    };

    /** A leaf evaluation as leaf_memo_ stores it: the result and the
     *  EncodeStats counts it adds below the leaf. */
    struct LeafEval {
        EvalResult result;
        uint64_t modeEvals;
        uint64_t meCandidates;
    };

    // -- search pass (estimates only, no recon mutation) -----------------
    double searchNode(const BlockRect &r, int depth, PartNode &out);
    /** One leaf evaluation: searchLeaf() through leaf_memo_. */
    EvalResult evalLeaf(const BlockRect &r, int mode_budget);
    EvalResult searchLeaf(const BlockRect &r, int mode_budget);
    /** motionSearch() for block @p r from @p start, through me_memo_. */
    MeResult searchMotion(const BlockRect &r, MotionVector start);
    double costWithTransform(const PelView &src_blk, const PelView &pred_blk,
                             const BlockRect &r, int tx, double mode_bits,
                             int *best_tx_type);
    double costFast(const PelView &src_blk, const PelView &pred_blk,
                    const BlockRect &r, double mode_bits);

    // -- commit pass (real entropy coding + reconstruction) --------------
    void commitNode(const BlockRect &r, int depth, const PartNode &node);
    void commitLeaf(const BlockRect &r, const LeafChoice &choice);
    void commitChroma(const BlockRect &r, const LeafChoice &choice);
    void codeCoeffTile(const int32_t *levels, int n, uint64_t vaddr);

    void loopFilterFrame();

    MotionVector mvPredictor(const BlockRect &r) const;
    void storeMv(const BlockRect &r, MotionVector mv);

    /** Report scalar control/bookkeeping work tied to block @p r. */
    void control(uint64_t site, int units, const BlockRect &r);

    /** Apply one smoothing interpolation-filter variant in place. */
    void smoothPrediction(PelViewMut pred, int w, int h, int variant);

    ToolConfig config_;
    int width_, height_;
    Quantizer quant_;
    double lambda_;
    trace::Probe *probe_;

    video::Frame recon_;
    video::Frame ref_;
    bool has_ref_ = false;
    bool keyframe_ = true;

    const video::Frame *src_ = nullptr;

    // MV field at 8x8 granularity for predictors.
    int mv_cols_, mv_rows_;
    std::vector<MotionVector> mv_field_;

    // Synthetic addresses of the major buffers.
    uint64_t v_src_ = 0, v_recon_ = 0, v_ref_ = 0;
    uint64_t v_res_ = 0, v_coeff_ = 0, v_levels_ = 0, v_pred_ = 0;
    uint64_t v_ctx_ = 0, v_stream_ = 0, v_modeinfo_ = 0;

    // Scratch (one block's worth each).
    std::vector<int16_t> res_;
    std::vector<int32_t> coeff_;
    std::vector<int32_t> levels_;
    std::vector<int16_t> res2_;
    std::vector<uint8_t> pred_;
    std::vector<uint8_t> pred2_;

    // Entropy machinery.
    Bitstream stream_;
    std::unique_ptr<RangeEncoder> rc_;
    SyntaxContexts ctx_;

    // Per-superblock memos of the search pass's two pure steps
    // (search_memo.hpp), cleared by encodeSuperblock(): motion searches
    // keyed by (x, y, w, h, start.x, start.y), leaf evaluations by
    // (x, y, w, h, mode budget).
    SearchMemo<6, MeResult> me_memo_;
    SearchMemo<5, LeafEval> leaf_memo_;

    EncodeStats stats_;
    EncodeStats frame_stats_before_;
    size_t frame_start_bytes_ = 0;
};

/**
 * Map a (codec-family CRF, range) pair plus a lambda scale to a ToolConfig
 * quality setting; helper shared by the encoder models.
 */
void applyQuality(ToolConfig &config, int crf, int range);

} // namespace vepro::codec

#endif // VEPRO_CODEC_RDO_HPP
