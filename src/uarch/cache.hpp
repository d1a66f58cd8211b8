#ifndef VEPRO_UARCH_CACHE_HPP
#define VEPRO_UARCH_CACHE_HPP

/**
 * @file
 * Set-associative cache model with LRU replacement, chainable into the
 * paper machine's hierarchy (32K L1I / 32K L1D / 256K L2 / 30M LLC),
 * plus coherence invalidation for the thread-study traces.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace vepro::uarch
{

/**
 * Zero-filled memory from an anonymous mapping: the OS commits a page
 * on its first touch, so a level holds resident memory only for the
 * sets a run reaches. The default 30M LLC's line state is 8.4 MB, of
 * which a short run touches a small part; a zero-filled vector would
 * commit all of it up front, for every simulated core.
 */
class ZeroPages
{
  public:
    explicit ZeroPages(size_t bytes);
    ~ZeroPages();
    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    unsigned char *data() const { return data_; }

  private:
    unsigned char *data_;
    size_t bytes_;
};

/** Geometry and timing of one cache level. */
struct CacheConfig {
    std::string name = "L1";
    size_t sizeBytes = 32 * 1024;
    int ways = 8;
    int lineBytes = 64;
    int hitLatency = 4;  ///< Cycles to return data on a hit at this level.
};

/** One cache level. */
class Cache
{
  public:
    /** The set count is size / line / ways, as configured. A power of
     *  two indexes with a mask and tags with a shift; any other count
     *  (the default 30M 20-way LLC has 24,576 sets) indexes with
     *  line % sets and tags with line / sets. */
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr; on miss the line is filled (write-allocate).
     * Defined inline below: this is the hottest call in the simulator
     * (every load/store/fetch of every modelled level) and must inline
     * into the core and sink loops rather than pay a cross-TU call.
     * @param is_write Marks the line dirty on hit/fill.
     * @return true on hit.
     */
    bool access(uint64_t addr, bool is_write);

    /** Drop the line containing @p addr if present (coherence). */
    void invalidate(uint64_t addr);

    /**
     * Insert the line containing @p addr without touching the demand
     * hit/miss statistics (prefetch fill). Replaces the LRU way.
     */
    void fill(uint64_t addr);

    const CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    uint64_t invalidations() const { return invalidations_; }

    /** Misses per kilo-instruction given an instruction count. */
    double
    mpki(uint64_t instructions) const
    {
        return instructions ? 1000.0 * static_cast<double>(misses_) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    void resetStats();

  private:
    /** meta_ bits. */
    static constexpr uint8_t kValid = 1;
    static constexpr uint8_t kDirty = 2;

    uint64_t lineOf(uint64_t addr) const
    {
        return line_shift_ >= 0
                   ? addr >> line_shift_
                   : addr / static_cast<uint64_t>(config_.lineBytes);
    }
    uint64_t setOf(uint64_t addr) const
    {
        return set_shift_ >= 0
                   ? lineOf(addr) & set_mask_
                   : lineOf(addr) % static_cast<uint64_t>(num_sets_);
    }
    uint64_t tagOf(uint64_t addr) const
    {
        return set_shift_ >= 0
                   ? lineOf(addr) >> set_shift_
                   : lineOf(addr) / static_cast<uint64_t>(num_sets_);
    }

    CacheConfig config_;
    int num_sets_;
    int line_shift_;     ///< log2(lineBytes), or -1 if not a power of two.
    int set_shift_;      ///< log2(num_sets_), or -1 if not a power of two.
    uint64_t set_mask_;  ///< num_sets_ - 1 (used only for a power of two).

    /**
     * Line state, structure-of-arrays (num_sets_ x ways, row-major),
     * all in one ZeroPages block. The hot lookup touches one tag row
     * plus the per-set MRU hint; recency and dirty bits live in
     * separate arrays so a hit on the hinted way never scans the set.
     */
    ZeroPages state_;
    uint64_t *tags_;
    uint64_t *last_use_;
    uint8_t *meta_;  ///< kValid | kDirty per line.
    uint8_t *mru_;   ///< Most-recently-hit way per set (hint).

    uint64_t tick_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t invalidations_ = 0;
};

/** Stride prefetcher configuration (off by default; ablation knob). */
struct PrefetcherConfig {
    bool enabled = false;
    /** Tracked access streams (per 4 KiB region). */
    int streams = 16;
    /** Lines fetched ahead once a stride is confirmed. */
    int degree = 2;
};

/**
 * The three-level data-side hierarchy plus the instruction L1. Returns
 * total access latency and keeps per-level hit/miss statistics.
 */
class Hierarchy
{
  public:
    /** Timing/geometry of the paper's Xeon E5-2650 v4. */
    struct Config {
        CacheConfig l1i{"L1I", 32 * 1024, 8, 64, 1};
        CacheConfig l1d{"L1D", 32 * 1024, 8, 64, 4};
        CacheConfig l2{"L2", 256 * 1024, 8, 64, 12};
        CacheConfig llc{"LLC", 30 * 1024 * 1024, 20, 64, 38};
        int memoryLatency = 180;
        PrefetcherConfig prefetch{};
    };

    Hierarchy() : Hierarchy(Config{}) {}
    explicit Hierarchy(const Config &config);

    /** Data access; returns total latency in cycles (inline below). */
    int dataAccess(uint64_t addr, bool is_write);

    /** Instruction fetch; returns extra cycles beyond a pipelined hit
     *  (inline below). */
    int instrAccess(uint64_t addr);

    /** Coherence invalidation from a remote core's store. */
    void remoteStore(uint64_t addr);

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

    uint64_t prefetchesIssued() const { return prefetches_; }

    void resetStats();

  private:
    /** Stride detection + L2 fill on L1D misses. */
    void trainPrefetcher(uint64_t addr);

    struct Stream {
        uint64_t region = 0;       ///< 4 KiB region tag.
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confirmations = 0;
        bool valid = false;
    };

    Config config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache llc_;
    std::vector<Stream> streams_;
    uint64_t prefetches_ = 0;
};

// ---------------------------------------------------------------------
// Hot-path definitions. Kept in the header so the per-op simulator
// loops (core load/store issue, CacheSink, StreamRunner) inline the
// whole lookup; the cold paths (fill, invalidate, prefetcher training)
// stay in cache.cpp.

inline bool
Cache::access(uint64_t addr, bool is_write)
{
    ++accesses_;
    ++tick_;
    const uint64_t set = setOf(addr);
    const uint64_t tag = tagOf(addr);
    const size_t base = static_cast<size_t>(set) * config_.ways;
    uint64_t *tags = &tags_[base];
    uint8_t *meta = &meta_[base];

    // Fast path: re-hitting the most recently hit way of the set, the
    // common case on streaming workloads. Hit bookkeeping (recency,
    // dirty bit) is what the full scan would have done, so the stats
    // are unaffected by the probe order.
    const uint8_t hint = mru_[set];
    if ((meta[hint] & kValid) != 0 && tags[hint] == tag) {
        last_use_[base + hint] = tick_;
        meta[hint] |= is_write ? kDirty : 0;
        return true;
    }

    // Hit scan: touches only the set's tag row (one cache line for
    // 8 ways) and the meta bytes; recency is written for the hit way
    // alone, so the no-allocate probe never strides the LRU array.
    for (int w = 0; w < config_.ways; ++w) {
        if ((meta[w] & kValid) != 0 && tags[w] == tag) {
            last_use_[base + w] = tick_;
            meta[w] |= is_write ? kDirty : 0;
            mru_[set] = static_cast<uint8_t>(w);
            return true;
        }
    }

    // Miss: LRU victim selection. The rule replicates the AoS model
    // exactly — the last invalid way in scan order wins; otherwise the
    // first way with the strictly smallest lastUse. Valid ways never
    // tie (tick_ is unique per touch).
    int victim = 0;
    for (int w = 0; w < config_.ways; ++w) {
        if ((meta[w] & kValid) == 0) {
            victim = w;
        } else if ((meta[victim] & kValid) != 0 &&
                   last_use_[base + w] < last_use_[base + victim]) {
            victim = w;
        }
    }
    ++misses_;
    tags[victim] = tag;
    last_use_[base + victim] = tick_;
    meta[victim] = static_cast<uint8_t>(kValid | (is_write ? kDirty : 0));
    mru_[set] = static_cast<uint8_t>(victim);
    return false;
}

inline int
Hierarchy::dataAccess(uint64_t addr, bool is_write)
{
    if (l1d_.access(addr, is_write)) {
        return config_.l1d.hitLatency;
    }
    if (config_.prefetch.enabled) {
        trainPrefetcher(addr);
    }
    if (l2_.access(addr, is_write)) {
        return config_.l2.hitLatency;
    }
    if (llc_.access(addr, is_write)) {
        return config_.llc.hitLatency;
    }
    return config_.memoryLatency;
}

inline int
Hierarchy::instrAccess(uint64_t addr)
{
    if (l1i_.access(addr, false)) {
        return 0;
    }
    // Instruction misses fill from L2 (shared with data).
    if (l2_.access(addr, false)) {
        return config_.l2.hitLatency;
    }
    if (llc_.access(addr, false)) {
        return config_.llc.hitLatency;
    }
    return config_.memoryLatency;
}

} // namespace vepro::uarch

#endif // VEPRO_UARCH_CACHE_HPP
