#include "encoders/registry.hpp"

#include <cmath>
#include <stdexcept>

namespace vepro::encoders
{

namespace
{

/**
 * SVT-AV1, the paper's primary subject: the full AV1 toolset (10
 * partition modes, the largest intra-mode set, multiple transform sizes,
 * two-pass loop filtering) with SVT's segment-wavefront threading.
 */
codec::ToolConfig
svtAv1Tools(double s)
{
    codec::ToolConfig tc;
    tc.superblockSize = 64;
    tc.minBlockSize = s >= 0.5 ? 4 : 8;
    tc.partitionMask = codec::kPartitionsAv1;
    tc.intraModes = 6 + static_cast<int>(std::lround(10 * s));
    tc.intraModesRect = 2 + static_cast<int>(std::lround(4 * s));
    tc.txSizeCandidates = s > 0.5 ? 2 : 1;
    tc.txTypeCandidates = 1 + static_cast<int>(std::lround(2 * s));
    tc.refFramesSearched = 1 + static_cast<int>(std::lround(3 * s));
    tc.interpFilterCands = 1 + static_cast<int>(std::lround(2 * s));
    tc.me.range = 6 + static_cast<int>(std::lround(14 * s));
    tc.me.exhaustive = s > 0.9;
    tc.me.subpel = s > 0.2;
    tc.me.sharpSubpel = true;
    tc.me.earlyExitPerPel = (1.0 - s) * 1.2;
    tc.fullRd = s >= 0.35;
    tc.earlyExitScale = 0.05 + (1.0 - s) * (1.0 - s) * 1.1;
    tc.modePatience = 1 + static_cast<int>(std::lround(4 * s));
    tc.filterPasses = 2;
    tc.pruneMinDepth = 1;
    tc.coeffContexts = 4;
    return tc;
}

/**
 * libaom, the AV1 reference encoder: the AV1 toolset with a somewhat
 * leaner per-preset search (at the paper's operating points libaom ran
 * below SVT-AV1), and tile-based threading.
 */
codec::ToolConfig
libaomTools(double s)
{
    codec::ToolConfig tc;
    tc.superblockSize = 64;
    tc.minBlockSize = s >= 0.6 ? 4 : 8;
    tc.partitionMask = codec::kPartitionsAv1;
    tc.intraModes = 5 + static_cast<int>(std::lround(9 * s));
    tc.intraModesRect = 2 + static_cast<int>(std::lround(3 * s));
    tc.txSizeCandidates = s > 0.6 ? 2 : 1;
    tc.txTypeCandidates = 1 + static_cast<int>(std::lround(1.4 * s));
    tc.refFramesSearched = 1 + static_cast<int>(std::lround(2.4 * s));
    tc.interpFilterCands = 1 + static_cast<int>(std::lround(1.2 * s));
    tc.me.range = 5 + static_cast<int>(std::lround(11 * s));
    tc.me.exhaustive = s > 0.92;
    tc.me.subpel = s > 0.25;
    tc.me.sharpSubpel = true;
    tc.me.earlyExitPerPel = (1.0 - s) * 1.5;
    tc.fullRd = s >= 0.45;
    tc.earlyExitScale = 0.08 + (1.0 - s) * (1.0 - s) * 1.4;
    tc.modePatience = 1 + static_cast<int>(std::lround(3 * s));
    tc.filterPasses = 2;
    tc.pruneMinDepth = 1;
    tc.coeffContexts = 4;
    return tc;
}

/**
 * libvpx-VP9: VP9's 4 partition modes and mid-sized intra set — the
 * paper's direct predecessor comparison for AV1 (10 partition modes vs 4
 * is its worked example of search-space growth).
 */
codec::ToolConfig
libvpxVp9Tools(double s)
{
    codec::ToolConfig tc;
    tc.superblockSize = 64;
    tc.minBlockSize = 8;
    tc.partitionMask = codec::kPartitionsRect;
    tc.intraModes = 4 + static_cast<int>(std::lround(4 * s));
    tc.intraModesRect = 2 + static_cast<int>(std::lround(2 * s));
    tc.txSizeCandidates = 1;
    tc.txTypeCandidates = 1;
    tc.refFramesSearched = 1 + static_cast<int>(std::lround(0.8 * s));
    tc.interpFilterCands = 1;
    tc.me.range = 4 + static_cast<int>(std::lround(8 * s));
    tc.me.exhaustive = false;
    tc.me.subpel = s > 0.3;
    tc.me.sharpSubpel = true;
    tc.me.earlyExitPerPel = (1.0 - s) * 2.5;
    tc.fullRd = s >= 0.7;
    tc.earlyExitScale = 0.5 + (1.0 - s) * (1.0 - s) * 2.6;
    tc.modePatience = 1 + static_cast<int>(std::lround(1.5 * s));
    tc.filterPasses = 1;
    tc.coeffContexts = 3;
    return tc;
}

/**
 * x265: HEVC's 64x64 CTU quad-tree with rectangular PUs and a mid-sized
 * intra set. Threading follows the paper's observation that x265
 * concentrates work in a primary thread with light helpers, which is
 * what its ~1.3x scaling ceiling and growing backend-boundedness imply.
 */
codec::ToolConfig
x265Tools(double s)
{
    codec::ToolConfig tc;
    tc.superblockSize = 64;
    tc.minBlockSize = 8;
    tc.partitionMask = codec::kPartitionsRect;
    tc.intraModes = 4 + static_cast<int>(std::lround(8 * s));
    tc.intraModesRect = 2 + static_cast<int>(std::lround(3 * s));
    tc.txSizeCandidates = s > 0.7 ? 2 : 1;
    tc.txTypeCandidates = 1;
    tc.refFramesSearched = 1 + static_cast<int>(std::lround(1.2 * s));
    tc.interpFilterCands = 1;
    tc.me.range = 4 + static_cast<int>(std::lround(10 * s));
    tc.me.exhaustive = false;
    tc.me.subpel = s > 0.3;
    tc.me.sharpSubpel = true;
    tc.me.earlyExitPerPel = (1.0 - s) * 2.5;
    tc.fullRd = s >= 0.65;
    tc.earlyExitScale = 0.3 + (1.0 - s) * (1.0 - s) * 2.2;
    tc.modePatience = 1 + static_cast<int>(std::lround(3 * s));
    tc.filterPasses = 1;
    tc.coeffContexts = 2;
    return tc;
}

/**
 * x264: AVC's 16x16 macroblocks with one split level and two rectangular
 * shapes, a small intra set, and frame-level threading with a row lag —
 * the fastest and most mature of the paper's encoders.
 */
codec::ToolConfig
x264Tools(double s)
{
    codec::ToolConfig tc;
    tc.superblockSize = 16;
    tc.minBlockSize = 8;
    tc.partitionMask = codec::kPartitionsRect;
    tc.intraModes = 3 + static_cast<int>(std::lround(3 * s));
    tc.intraModesRect = 2;
    tc.txSizeCandidates = 1;
    tc.txTypeCandidates = 1;
    tc.refFramesSearched = s > 0.75 ? 2 : 1;
    tc.interpFilterCands = 1;
    tc.me.range = 4 + static_cast<int>(std::lround(8 * s));
    tc.me.exhaustive = s > 0.95;  // the "placebo" esa search
    tc.me.subpel = s > 0.3;
    tc.me.earlyExitPerPel = (1.0 - s) * 3.0 + 0.6;
    tc.fullRd = s >= 0.8;
    tc.earlyExitScale = 0.8 + (1.0 - s) * (1.0 - s) * 3.5;
    tc.modePatience = 1 + static_cast<int>(std::lround(1.5 * s));
    tc.filterPasses = 1;
    tc.coeffContexts = 1;
    return tc;
}

/** The five models, one row each, in the paper's comparison order. */
const EncoderSpec kEncoders[] = {
    {"SVT-AV1", 63, 8, false, ThreadModel::Wavefront, svtAv1Tools},
    {"Libaom", 63, 8, false, ThreadModel::TileParallel, libaomTools},
    {"Libvpx-vp9", 63, 8, false, ThreadModel::TileParallel, libvpxVp9Tools},
    {"x265", 51, 9, true, ThreadModel::SerialSpine, x265Tools},
    {"x264", 51, 9, true, ThreadModel::FrameParallel, x264Tools},
};

} // namespace

std::vector<std::shared_ptr<const EncoderModel>>
allEncoders()
{
    static const std::vector<std::shared_ptr<const EncoderModel>> models = [] {
        std::vector<std::shared_ptr<const EncoderModel>> out;
        for (const EncoderSpec &spec : kEncoders) {
            out.push_back(std::make_shared<const EncoderModel>(spec));
        }
        return out;
    }();
    return models;
}

std::shared_ptr<const EncoderModel>
encoderByName(const std::string &name)
{
    for (const auto &m : allEncoders()) {
        if (m->name() == name) {
            return m;
        }
    }
    throw std::out_of_range("encoderByName: unknown encoder '" + name + "'");
}

} // namespace vepro::encoders
