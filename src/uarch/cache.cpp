#include "uarch/cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>

namespace vepro::uarch
{

namespace
{

/** log2 of a power of two, or -1 if @p v is not one. */
int
exactLog2(uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0) {
        return -1;
    }
    int s = 0;
    while ((v >> s) != 1) {
        ++s;
    }
    return s;
}

/** Sets of @p config: size / line / ways, at least one. */
int
setsOf(const CacheConfig &config)
{
    if (config.sizeBytes == 0 || config.ways <= 0 || config.lineBytes <= 0) {
        throw std::invalid_argument("Cache: bad geometry");
    }
    const size_t lines = config.sizeBytes / config.lineBytes;
    const int sets = static_cast<int>(lines / config.ways);
    if (sets == 0) {
        throw std::invalid_argument("Cache: fewer lines than ways");
    }
    return sets;
}

} // namespace

ZeroPages::ZeroPages(size_t bytes) : bytes_(bytes)
{
    void *p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        throw std::bad_alloc();
    }
    data_ = static_cast<unsigned char *>(p);
}

ZeroPages::~ZeroPages()
{
    munmap(data_, bytes_);
}

Cache::Cache(const CacheConfig &config)
    : config_(config), num_sets_(setsOf(config)),
      line_shift_(exactLog2(static_cast<uint64_t>(config.lineBytes))),
      set_shift_(exactLog2(static_cast<uint64_t>(num_sets_))),
      set_mask_(static_cast<uint64_t>(num_sets_) - 1),
      state_(static_cast<size_t>(num_sets_) *
             (static_cast<size_t>(config.ways) *
                  (2 * sizeof(uint64_t) + sizeof(uint8_t)) +
              sizeof(uint8_t)))
{
    // Tags and recency, then meta (one byte a line) and the MRU hints
    // (one byte a set).
    const size_t total = static_cast<size_t>(num_sets_) * config.ways;
    tags_ = reinterpret_cast<uint64_t *>(state_.data());
    last_use_ = tags_ + total;
    meta_ = reinterpret_cast<uint8_t *>(last_use_ + total);
    mru_ = meta_ + total;
}

void
Cache::fill(uint64_t addr)
{
    ++tick_;
    const uint64_t set = setOf(addr);
    const uint64_t tag = tagOf(addr);
    const size_t base = static_cast<size_t>(set) * config_.ways;
    uint64_t *tags = &tags_[base];
    uint8_t *meta = &meta_[base];
    for (int w = 0; w < config_.ways; ++w) {
        if ((meta[w] & kValid) != 0 && tags[w] == tag) {
            return;  // already resident; leave recency untouched
        }
    }
    int victim = 0;
    for (int w = 0; w < config_.ways; ++w) {
        if ((meta[w] & kValid) == 0) {
            victim = w;
        } else if ((meta[victim] & kValid) != 0 &&
                   last_use_[base + w] < last_use_[base + victim]) {
            victim = w;
        }
    }
    tags[victim] = tag;
    last_use_[base + victim] = tick_;
    meta[victim] = kValid;
    mru_[set] = static_cast<uint8_t>(victim);
}

void
Cache::invalidate(uint64_t addr)
{
    const uint64_t set = setOf(addr);
    const uint64_t tag = tagOf(addr);
    const size_t base = static_cast<size_t>(set) * config_.ways;
    for (int w = 0; w < config_.ways; ++w) {
        if ((meta_[base + w] & kValid) != 0 && tags_[base + w] == tag) {
            meta_[base + w] = 0;
            ++invalidations_;
            return;
        }
    }
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    invalidations_ = 0;
}

Hierarchy::Hierarchy(const Config &config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      llc_(config.llc),
      streams_(static_cast<size_t>(std::max(1, config.prefetch.streams)))
{
}

void
Hierarchy::trainPrefetcher(uint64_t addr)
{
    const uint64_t region = addr >> 12;
    Stream &s = streams_[static_cast<size_t>(region) % streams_.size()];
    if (!s.valid || s.region != region) {
        s = Stream{region, addr, 0, 0, true};
        return;
    }
    int64_t delta = static_cast<int64_t>(addr) -
                    static_cast<int64_t>(s.lastAddr);
    if (delta != 0 && delta == s.stride) {
        if (s.confirmations < 4) {
            ++s.confirmations;
        }
    } else {
        s.stride = delta;
        s.confirmations = 0;
    }
    s.lastAddr = addr;
    if (s.confirmations >= 2 && s.stride != 0) {
        // Fetch the next lines of the stream into L2 (fill only: a
        // prefetch is not a demand access and must not perturb the
        // demand hit/miss statistics).
        for (int d = 1; d <= config_.prefetch.degree; ++d) {
            uint64_t target = addr + static_cast<uint64_t>(s.stride * d);
            l2_.fill(target);
            ++prefetches_;
        }
    }
}

void
Hierarchy::remoteStore(uint64_t addr)
{
    // MESI-style: a remote write invalidates our private copies; the
    // shared LLC keeps the (updated) line.
    l1d_.invalidate(addr);
    l2_.invalidate(addr);
    llc_.access(addr, true);
}

void
Hierarchy::resetStats()
{
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
    llc_.resetStats();
    prefetches_ = 0;
}

} // namespace vepro::uarch
