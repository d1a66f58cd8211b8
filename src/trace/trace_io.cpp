#include "trace/trace_io.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/fnv.hpp"

namespace vepro::trace
{

namespace
{

/// Refuse implausible lengths before allocating for them: a legitimate
/// block holds ~4096 ops (a few tens of KiB encoded), so these caps are
/// orders of magnitude above anything FileSink writes while keeping a
/// corrupt length field from turning into a multi-GiB allocation.
constexpr uint32_t kMaxBlockPayload = 1u << 26;
constexpr uint64_t kMaxBlockRecords = 1u << 20;
constexpr uint32_t kMaxMetadataBytes = 1u << 24;

[[noreturn]] void
fail(const std::string &path, uint64_t offset, const std::string &what)
{
    throw std::runtime_error("trace: " + path + " @ offset " +
                             std::to_string(offset) + ": " + what);
}

void
putVarint(std::string &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(static_cast<uint8_t>(v) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(static_cast<uint8_t>(v)));
}

uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Bounds-checked cursor over one block payload. Errors are plain
/// std::runtime_error; the caller re-throws with path + block offset.
struct ByteReader {
    const uint8_t *p;
    const uint8_t *end;

    uint8_t
    u8(const char *what)
    {
        if (p == end) {
            throw std::runtime_error(std::string("truncated ") + what);
        }
        return *p++;
    }

    uint64_t
    varint(const char *what)
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            const uint8_t byte = u8(what);
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) {
                return v;
            }
        }
        throw std::runtime_error(std::string("overlong varint in ") + what);
    }
};

/// One op-descriptor dictionary entry: the flags byte plus the dep
/// pair. Real op streams cycle through a handful of (class, taken,
/// foreign, deps) shapes per block, so most ops reference an entry with
/// a one-byte code instead of re-spelling 1-3 descriptor bytes.
struct OpDesc {
    uint8_t flags = 0;
    uint8_t dep1 = 0;
    uint8_t dep2 = 0;

    bool
    operator==(const OpDesc &o) const
    {
        return flags == o.flags && dep1 == o.dep1 && dep2 == o.dep2;
    }
};

/// Encode @p block into @p out (cleared first). All dictionaries and
/// delta chains reset per block so every block decodes independently of
/// its predecessors.
void
encodeBlock(const TraceBlock &block, std::string &out)
{
    out.clear();
    putVarint(out, block.ops.size());
    putVarint(out, block.events.size());
    std::vector<OpDesc> descs;
    uint64_t prev_pc = 0;
    uint64_t prev_addr[kNumOpClasses] = {};
    for (const TraceOp &op : block.ops) {
        uint8_t flags = static_cast<uint8_t>(op.cls) & 0x0f;
        const bool has_addr = op.addr != 0;
        const bool has_deps = (op.dep1 | op.dep2) != 0;
        if (op.taken) {
            flags |= 0x10;
        }
        if (op.foreign) {
            flags |= 0x20;
        }
        if (has_addr) {
            flags |= 0x40;
        }
        if (has_deps) {
            flags |= 0x80;
        }
        // Descriptor: a dictionary code when seen before in this block
        // (the overwhelmingly common case), else 0 + the literal bytes.
        const OpDesc desc{flags, has_deps ? op.dep1 : uint8_t{0},
                          has_deps ? op.dep2 : uint8_t{0}};
        size_t idx = descs.size();
        for (size_t i = 0; i < descs.size(); ++i) {
            if (descs[i] == desc) {
                idx = i;
                break;
            }
        }
        if (idx < descs.size()) {
            putVarint(out, idx + 1);
        } else {
            out.push_back(0);
            out.push_back(static_cast<char>(flags));
            if (has_deps) {
                out.push_back(static_cast<char>(op.dep1));
                out.push_back(static_cast<char>(op.dep2));
            }
            descs.push_back(desc);
        }
        putVarint(out, zigzag(static_cast<int64_t>(op.pc - prev_pc)));
        prev_pc = op.pc;
        if (has_addr) {
            // Per-class address chains: loads stride against the last
            // load, stores against the last store, so interleaved
            // streams keep their per-stream locality.
            uint64_t &prev = prev_addr[static_cast<int>(op.cls)];
            putVarint(out, zigzag(static_cast<int64_t>(op.addr - prev)));
            prev = op.addr;
        }
    }
    std::vector<uint64_t> values;
    uint64_t prev_pos = 0;
    for (const TraceBlock::Event &e : block.events) {
        putVarint(out, e.pos - prev_pos);
        prev_pos = e.pos;
        uint8_t packed = e.kind == TraceBlock::Event::Kernel ? 1 : 0;
        if (e.taken) {
            packed |= 2;
        }
        out.push_back(static_cast<char>(packed));
        // Event values (branch pcs, kernel sites) are drawn from a
        // small recurring set but look like random 64-bit integers, so
        // delta coding is useless: dictionary-code them instead.
        size_t idx = values.size();
        for (size_t i = 0; i < values.size(); ++i) {
            if (values[i] == e.value) {
                idx = i;
                break;
            }
        }
        if (idx < values.size()) {
            putVarint(out, idx + 1);
        } else {
            out.push_back(0);
            putVarint(out, e.value);
            values.push_back(e.value);
        }
    }
}

/// Decode one payload into @p block (cleared first). @p delta_fault is
/// the vepro-check tracefile-delta injection: every op pc delta decodes
/// off by one.
void
decodeBlock(const uint8_t *data, size_t n, TraceBlock &block,
            bool delta_fault)
{
    ByteReader r{data, data + n};
    const uint64_t op_count = r.varint("op count");
    const uint64_t event_count = r.varint("event count");
    if (op_count > kMaxBlockRecords || event_count > kMaxBlockRecords) {
        throw std::runtime_error("implausible record count");
    }
    block.clear();
    block.ops.reserve(op_count);
    block.events.reserve(event_count);
    std::vector<OpDesc> descs;
    uint64_t prev_pc = 0;
    uint64_t prev_addr[kNumOpClasses] = {};
    for (uint64_t i = 0; i < op_count; ++i) {
        const uint64_t code = r.varint("op descriptor code");
        OpDesc desc;
        if (code == 0) {
            desc.flags = r.u8("op flags");
            const uint8_t cls = desc.flags & 0x0f;
            if (cls >= kNumOpClasses) {
                throw std::runtime_error("bad op class " +
                                         std::to_string(cls));
            }
            if ((desc.flags & 0x80) != 0) {
                desc.dep1 = r.u8("op deps");
                desc.dep2 = r.u8("op deps");
            }
            descs.push_back(desc);
        } else {
            if (code > descs.size()) {
                throw std::runtime_error("op descriptor code " +
                                         std::to_string(code) +
                                         " past the block's " +
                                         std::to_string(descs.size()) +
                                         " descriptors");
            }
            desc = descs[code - 1];
        }
        TraceOp op;
        op.cls = static_cast<OpClass>(desc.flags & 0x0f);
        op.taken = (desc.flags & 0x10) != 0;
        op.foreign = (desc.flags & 0x20) != 0;
        op.dep1 = desc.dep1;
        op.dep2 = desc.dep2;
        int64_t pc_delta = unzigzag(r.varint("pc delta"));
        if (delta_fault) {
            ++pc_delta;
        }
        op.pc = prev_pc + static_cast<uint64_t>(pc_delta);
        prev_pc = op.pc;
        if ((desc.flags & 0x40) != 0) {
            uint64_t &prev = prev_addr[static_cast<int>(op.cls)];
            op.addr = prev + static_cast<uint64_t>(
                                 unzigzag(r.varint("addr delta")));
            prev = op.addr;
        }
        block.ops.push_back(op);
    }
    std::vector<uint64_t> values;
    uint64_t prev_pos = 0;
    for (uint64_t i = 0; i < event_count; ++i) {
        TraceBlock::Event e;
        const uint64_t pos = prev_pos + r.varint("event position");
        if (pos > block.ops.size()) {
            throw std::runtime_error("event position " + std::to_string(pos) +
                                     " past the block's " +
                                     std::to_string(block.ops.size()) +
                                     " ops");
        }
        prev_pos = pos;
        e.pos = static_cast<uint32_t>(pos);
        const uint8_t packed = r.u8("event kind");
        if ((packed & ~static_cast<uint8_t>(3)) != 0) {
            throw std::runtime_error("bad event kind byte");
        }
        e.kind = (packed & 1) != 0 ? TraceBlock::Event::Kernel
                                   : TraceBlock::Event::Branch;
        e.taken = (packed & 2) != 0;
        const uint64_t code = r.varint("event value code");
        if (code == 0) {
            e.value = r.varint("event value");
            values.push_back(e.value);
        } else {
            if (code > values.size()) {
                throw std::runtime_error("event value code " +
                                         std::to_string(code) +
                                         " past the block's " +
                                         std::to_string(values.size()) +
                                         " values");
            }
            e.value = values[code - 1];
        }
        block.events.push_back(e);
    }
    if (r.p != r.end) {
        throw std::runtime_error("trailing bytes in block payload");
    }
}

uint64_t
countBranchEvents(const TraceBlock &block)
{
    uint64_t n = 0;
    for (const TraceBlock::Event &e : block.events) {
        if (e.kind == TraceBlock::Event::Branch) {
            ++n;
        }
    }
    return n;
}

/// The retired fixed-width formats: recognise their magics so the error
/// says "old format" instead of "corrupt file".
bool
isLegacyMagic(const char magic[4])
{
    return std::memcmp(magic, "VEPB", 4) == 0 ||
           std::memcmp(magic, "VEPO", 4) == 0;
}

[[noreturn]] void
failLegacy(const std::string &path, const char magic[4])
{
    throw std::runtime_error(
        "trace: " + path + ": legacy '" + std::string(magic, 4) +
        "' fixed-width trace (pre-TraceFile v" +
        std::to_string(kTraceFileVersion) +
        "); this build reads 'VETF' TraceFiles only — recapture with "
        "trace::FileSink");
}

} // namespace

// ---------------------------------------------------------------------------
// FileSink

FileSink::FileSink(std::string path)
    : BlockSink(path), path_(std::move(path))
{
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr) {
        throw std::runtime_error("trace: cannot open " + path_ +
                                 " for writing");
    }
    checksum_ = core::kFnv1a64Basis;
    write("VETF", 4);
    const uint32_t version = kTraceFileVersion;
    write(&version, sizeof version);
}

FileSink::~FileSink()
{
    if (file_ != nullptr) {
        std::fclose(file_);  // unsealed: a torn file readers reject
    }
}

void
FileSink::write(const void *p, size_t n)
{
    if (std::fwrite(p, 1, n, file_) != n) {
        throw std::runtime_error("trace: " + path_ + ": write failed");
    }
    bytes_written_ += n;
}

void
FileSink::take(TraceBlock &&block)
{
    encodeBlock(block, payload_);
    const uint32_t len = static_cast<uint32_t>(payload_.size());
    write(&len, sizeof len);
    write(payload_.data(), payload_.size());
    checksum_ = core::fnv1a64(payload_, checksum_);
    op_count_ += block.ops.size();
    branch_count_ += countBranchEvents(block);
    ++block_count_;
}

void
FileSink::setMetadata(std::string bytes)
{
    if (closed()) {
        throw std::logic_error("trace: setMetadata after flush: " + path_);
    }
    metadata_ = std::move(bytes);
}

void
FileSink::flush()
{
    if (defer_seal_) {
        publishStage();
        return;
    }
    seal();
}

void
FileSink::seal()
{
    if (closed()) {
        return;
    }
    close();
    const uint32_t end_marker = 0;
    write(&end_marker, sizeof end_marker);
    const uint32_t meta_bytes = static_cast<uint32_t>(metadata_.size());
    write(&meta_bytes, sizeof meta_bytes);
    write(metadata_.data(), metadata_.size());
    checksum_ = core::fnv1a64(metadata_, checksum_);
    write(&op_count_, sizeof op_count_);
    write(&branch_count_, sizeof branch_count_);
    write(&block_count_, sizeof block_count_);
    write(&meta_bytes, sizeof meta_bytes);
    write(&checksum_, sizeof checksum_);
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
        throw std::runtime_error("trace: " + path_ + ": close failed");
    }
}

// ---------------------------------------------------------------------------
// FileSource

namespace
{

struct FileCloser {
    std::FILE *f;
    ~FileCloser()
    {
        if (f != nullptr) {
            std::fclose(f);
        }
    }
};

/// Validate magic + version at the current read position (offset 0).
void
readHeader(std::FILE *f, const std::string &path)
{
    char magic[4];
    if (std::fread(magic, 1, 4, f) != 4) {
        fail(path, 0, "truncated header");
    }
    if (std::memcmp(magic, "VETF", 4) != 0) {
        if (isLegacyMagic(magic)) {
            failLegacy(path, magic);
        }
        fail(path, 0, "bad magic (not a vepro trace)");
    }
    uint32_t version = 0;
    if (std::fread(&version, 1, sizeof version, f) != sizeof version) {
        fail(path, 4, "truncated header");
    }
    if (version != kTraceFileVersion) {
        fail(path, 4,
             "unsupported version " + std::to_string(version) +
                 " (this build reads v" +
                 std::to_string(kTraceFileVersion) + ")");
    }
}

} // namespace

TraceFileInfo
FileSource::replay(TraceSink &sink) const
{
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) {
        throw std::runtime_error("trace: cannot open " + path_);
    }
    FileCloser closer{f};
    readHeader(f, path_);
    uint64_t offset = 8;
    const auto need = [&](void *p, size_t n, const char *what) {
        if (std::fread(p, 1, n, f) != n) {
            fail(path_, offset, std::string("truncated ") + what);
        }
        offset += n;
    };

    TraceFileInfo info;
    uint64_t checksum = core::kFnv1a64Basis;
    std::string payload;
    TraceBlock block;
    block.reserveStandard();
    for (;;) {
        const uint64_t block_offset = offset;
        uint32_t len = 0;
        need(&len, sizeof len, "block length");
        if (len == 0) {
            break;  // end-of-blocks marker
        }
        if (len > kMaxBlockPayload) {
            fail(path_, block_offset,
                 "implausible block size " + std::to_string(len));
        }
        payload.resize(len);
        need(payload.data(), len, "block payload");
        checksum = core::fnv1a64(payload, checksum);
        try {
            decodeBlock(reinterpret_cast<const uint8_t *>(payload.data()),
                        payload.size(), block, delta_fault_);
        } catch (const std::exception &e) {
            fail(path_, block_offset, e.what());
        }
        info.opCount += block.ops.size();
        info.branchCount += countBranchEvents(block);
        ++info.blockCount;
        sink.onBlock(std::move(block));
        block.clear();  // moved-from or not: reset for reuse
        block.reserveStandard();
    }

    uint32_t meta_bytes = 0;
    need(&meta_bytes, sizeof meta_bytes, "metadata length");
    if (meta_bytes > kMaxMetadataBytes) {
        fail(path_, offset - sizeof meta_bytes,
             "implausible metadata size " + std::to_string(meta_bytes));
    }
    info.metadata.resize(meta_bytes);
    need(info.metadata.data(), meta_bytes, "metadata");
    checksum = core::fnv1a64(info.metadata, checksum);

    const uint64_t footer_offset = offset;
    uint64_t op_count = 0;
    uint64_t branch_count = 0;
    uint64_t block_count = 0;
    uint32_t meta_bytes_again = 0;
    uint64_t want = 0;
    need(&op_count, sizeof op_count, "footer");
    need(&branch_count, sizeof branch_count, "footer");
    need(&block_count, sizeof block_count, "footer");
    need(&meta_bytes_again, sizeof meta_bytes_again, "footer");
    need(&want, sizeof want, "footer");
    if (std::fgetc(f) != EOF) {
        fail(path_, offset, "trailing bytes after footer");
    }
    if (op_count != info.opCount || branch_count != info.branchCount ||
        block_count != info.blockCount || meta_bytes_again != meta_bytes) {
        fail(path_, footer_offset,
             "footer count mismatch (footer " + std::to_string(op_count) +
                 " ops / " + std::to_string(branch_count) + " branches / " +
                 std::to_string(block_count) + " blocks, decoded " +
                 std::to_string(info.opCount) + " / " +
                 std::to_string(info.branchCount) + " / " +
                 std::to_string(info.blockCount) + ")");
    }
    if (want != checksum) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "0x%016llx, computed 0x%016llx",
                      static_cast<unsigned long long>(want),
                      static_cast<unsigned long long>(checksum));
        fail(path_, footer_offset,
             std::string("checksum mismatch (footer ") + buf +
                 ") — corrupt capture");
    }
    info.fileBytes = offset;
    return info;
}

TraceFileInfo
FileSource::inspect(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw std::runtime_error("trace: cannot open " + path);
    }
    FileCloser closer{f};
    readHeader(f, path);
    if (std::fseek(f, 0, SEEK_END) != 0) {
        fail(path, 8, "cannot seek");
    }
    const long size = std::ftell(f);
    // Header (8) + end marker (4) + metadata length (4) + footer (36).
    constexpr long kFooterBytes = 8 + 8 + 8 + 4 + 8;
    constexpr long kMinFile = 8 + 4 + 4 + kFooterBytes;
    if (size < kMinFile) {
        fail(path, static_cast<uint64_t>(size > 0 ? size : 0),
             "truncated file (no footer)");
    }
    TraceFileInfo info;
    info.fileBytes = static_cast<uint64_t>(size);
    std::fseek(f, size - kFooterBytes, SEEK_SET);
    uint64_t offset = static_cast<uint64_t>(size - kFooterBytes);
    const auto need = [&](void *p, size_t n, const char *what) {
        if (std::fread(p, 1, n, f) != n) {
            fail(path, offset, std::string("truncated ") + what);
        }
        offset += n;
    };
    uint32_t meta_bytes = 0;
    need(&info.opCount, sizeof info.opCount, "footer");
    need(&info.branchCount, sizeof info.branchCount, "footer");
    need(&info.blockCount, sizeof info.blockCount, "footer");
    need(&meta_bytes, sizeof meta_bytes, "footer");
    uint64_t checksum = 0;
    need(&checksum, sizeof checksum, "footer");
    if (static_cast<long>(meta_bytes) > size - kMinFile) {
        fail(path, static_cast<uint64_t>(size - kFooterBytes + 24),
             "implausible metadata size " + std::to_string(meta_bytes));
    }
    std::fseek(f, size - kFooterBytes - static_cast<long>(meta_bytes),
               SEEK_SET);
    offset = static_cast<uint64_t>(size - kFooterBytes) - meta_bytes;
    info.metadata.resize(meta_bytes);
    need(info.metadata.data(), meta_bytes, "metadata");
    return info;
}

} // namespace vepro::trace
