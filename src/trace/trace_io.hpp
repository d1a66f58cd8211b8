#ifndef VEPRO_TRACE_TRACE_IO_HPP
#define VEPRO_TRACE_TRACE_IO_HPP

/**
 * @file
 * TraceFile: the streaming, block-structured on-disk trace format, so an
 * expensive instrumented encoder run can be captured once and replayed
 * through many predictor/core configurations (the CBP capture-once/
 * replay-many workflow) at O(1) memory on both sides.
 *
 * Layout (all integers little-endian):
 *
 *     "VETF"  magic                                   4 bytes
 *     u32     version (= kTraceFileVersion)           4 bytes
 *     repeat  per block:
 *       u32   payloadBytes  (> 0)
 *       []    payload       (see below)
 *     u32     0             end-of-blocks marker
 *     u32     metaBytes
 *     []      metadata      (opaque to this layer; the lab stores its
 *                            encode-summary JSON here)
 *     u64     opCount       footer
 *     u64     branchCount
 *     u64     blockCount
 *     u32     metaBytes     (again, so inspect() can seek from the tail)
 *     u64     checksum      FNV-1a 64 over every block payload byte,
 *                           then the metadata bytes
 *
 * Block payload — one TraceBlock, varint + delta + dictionary encoded.
 * All dictionaries and delta chains reset at each block boundary so
 * blocks decode independently:
 *
 *     varint  opCount, varint eventCount
 *     per op:
 *       varint  descCode:
 *         0  -> literal descriptor follows, appended to the block's
 *               descriptor table:
 *                 u8      flags: bits 0-3 OpClass, bit 4 taken,
 *                         bit 5 foreign, bit 6 hasAddr (addr != 0),
 *                         bit 7 hasDeps
 *                 [u8 u8] dep1, dep2  when hasDeps
 *         k  -> reuse descriptor table[k-1] (op streams cycle through
 *               a handful of shapes per block, so this is 1 byte)
 *       svarint pc - prevPc            (zigzag; block-wide chain)
 *       svarint addr - prevAddr[cls]   when hasAddr (zigzag; one chain
 *                                       PER OP CLASS, so interleaved
 *                                       load/store streams keep their
 *                                       per-stream stride locality)
 *     per event (program-order, positions nondecreasing):
 *       varint  pos - prevPos
 *       u8      bit 0 kind (0 branch, 1 kernel), bit 1 taken
 *       varint  valCode:
 *         0  -> literal varint value follows, appended to the block's
 *               value table
 *         k  -> reuse value table[k-1]  (branch PCs and kernel sites
 *               are drawn from a small recurring set but look like
 *               random u64s — delta coding is useless for them)
 *
 * Synthetic PCs walk small per-site windows and data addresses stride
 * through per-class buffers, so a dense encode trace lands around
 * 4-5 bytes/op versus 21 for the old fixed-width records.
 *
 * Every ingestion failure throws std::runtime_error with a "trace:"
 * prefix naming the path and byte offset. Files written by the retired
 * fixed-width writers ("VEPB" branch / "VEPO" op traces) are rejected
 * with a versioned message telling the caller to recapture.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/sink.hpp"

namespace vepro::trace
{

/** On-disk format version this build reads and writes. */
inline constexpr uint32_t kTraceFileVersion = 1;

/** Footer-level summary of an on-disk trace. */
struct TraceFileInfo {
    uint64_t opCount = 0;      ///< Dynamic ops across all blocks.
    uint64_t branchCount = 0;  ///< Branch events across all blocks.
    uint64_t blockCount = 0;
    uint64_t fileBytes = 0;    ///< Total file size on disk.
    std::string metadata;      ///< Opaque caller bytes (lab: JSON).

    /** Compression figure of merit; 0 when the trace has no ops. */
    double
    bytesPerOp() const
    {
        return opCount > 0 ? static_cast<double>(fileBytes) /
                                 static_cast<double>(opCount)
                           : 0.0;
    }
};

/**
 * TraceSink that captures a live stream into a TraceFile.
 *
 * A BlockSink: records are staged by BlockStager's rule, the probe's
 * own, and whole blocks (onBlock) are written as they come, so a file
 * holds the producer's blocks however the stream reached it (straight
 * from a probe, or re-delivered as records through a MuxSink). Staging
 * stays O(1) regardless of trace length. flush() seals the file — end
 * marker, metadata, footer — and is idempotent; a sink destroyed
 * unsealed leaves a torn file behind (no footer), which readers reject,
 * so cache writers should capture to a temp path and rename on success.
 */
class FileSink final : public BlockSink
{
  public:
    /** Opens (truncates) @p path and writes the header.
     *  @throws std::runtime_error when the file cannot be opened. */
    explicit FileSink(std::string path);
    ~FileSink() override;

    FileSink(const FileSink &) = delete;
    FileSink &operator=(const FileSink &) = delete;

    /** Seals the file (equivalent to seal()) — unless deferSeal(true),
     *  in which case only the staged block is written out. */
    void flush() override;

    /**
     * Write the end marker, metadata, and footer, and close the file.
     * Idempotent. Split from flush() because producers that flush the
     * sink themselves (EncoderModel::encode) finish before the caller
     * knows the metadata; with deferSeal(true) those flushes just drain
     * the stage and the owner seals explicitly afterwards.
     */
    void seal();
    /** When on, flush() stops sealing; call seal() yourself. */
    void deferSeal(bool on) { defer_seal_ = on; }

    /** Bytes stored after the blocks (lab: encode-summary JSON). Must
     *  be called before seal(). */
    void setMetadata(std::string bytes);

    const std::string &path() const { return path_; }
    uint64_t opCount() const { return op_count_; }
    uint64_t branchCount() const { return branch_count_; }
    /** Total bytes written so far (the final file size after flush). */
    uint64_t bytesWritten() const { return bytes_written_; }

  private:
    /** Encode and write one block. */
    void take(TraceBlock &&block) override;
    void write(const void *p, size_t n);

    std::string path_;
    std::FILE *file_ = nullptr;
    std::string payload_;   ///< Encode buffer, reused per block.
    std::string metadata_;
    uint64_t op_count_ = 0;
    uint64_t branch_count_ = 0;
    uint64_t block_count_ = 0;
    uint64_t bytes_written_ = 0;
    uint64_t checksum_ = 0;
    bool defer_seal_ = false;
};

/**
 * Replays a TraceFile into any TraceSink at O(1) memory: blocks are
 * decoded one at a time and delivered through TraceSink::onBlock, so a
 * record-at-a-time sink sees exactly the stream the capturing probe
 * emitted, and the delivered blocks are the probe's own.
 */
class FileSource
{
  public:
    explicit FileSource(std::string path) : path_(std::move(path)) {}

    /**
     * Stream every block into @p sink in program order. Does NOT call
     * sink.flush() — the caller owns end-of-stream. Footer counts and
     * the payload checksum are verified; any mismatch, truncation, or
     * malformed block throws a "trace:"-prefixed std::runtime_error
     * naming the path and byte offset.
     */
    TraceFileInfo replay(TraceSink &sink) const;

    /**
     * Header + footer + metadata only (no block decode, no checksum
     * verification — that requires the full pass replay() does).
     */
    static TraceFileInfo inspect(const std::string &path);

    const std::string &path() const { return path_; }

    /**
     * Harness-only (vepro-check --inject=tracefile-delta): decode every
     * op's pc delta off by one, modelling a codec regression. Replayed
     * PCs drift from the captured ones, which the capture-vs-live
     * differential must catch.
     */
    void injectDeltaFault(bool on) { delta_fault_ = on; }

  private:
    std::string path_;
    bool delta_fault_ = false;
};

} // namespace vepro::trace

#endif // VEPRO_TRACE_TRACE_IO_HPP
