#include "check/oracle.hpp"

#include <algorithm>
#include <stdexcept>

namespace vepro::check
{

const char *
faultName(Fault fault)
{
    switch (fault) {
      case Fault::None: return "none";
      case Fault::CacheLru: return "cache-lru";
      case Fault::CoreLatency: return "core-latency";
      case Fault::BpredAlloc: return "bpred-alloc";
      case Fault::KernelsSad: return "kernels-sad";
      case Fault::KernelsIdct: return "kernels-idct";
      case Fault::StoreBit: return "store-bit";
      case Fault::ParallelDrop: return "parallel-drop";
      case Fault::BackendEnergy: return "backend-energy";
      case Fault::TraceFileDelta: return "tracefile-delta";
      case Fault::LadderHull: return "ladder-hull";
      case Fault::ProbeQuiet: return "probe-quiet";
      case Fault::ProbeTally: return "probe-tally";
      case Fault::FarmTie: return "farm-tie";
    }
    return "?";
}

bool
parseFault(const std::string &name, Fault &out)
{
    for (Fault f : {Fault::None, Fault::CacheLru, Fault::CoreLatency,
                    Fault::BpredAlloc, Fault::KernelsSad,
                    Fault::KernelsIdct, Fault::StoreBit,
                    Fault::ParallelDrop, Fault::BackendEnergy,
                    Fault::TraceFileDelta, Fault::LadderHull,
                    Fault::ProbeQuiet, Fault::ProbeTally, Fault::FarmTie}) {
        if (name == faultName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------
// RefCache / RefHierarchy

RefCache::RefCache(const uarch::CacheConfig &config, Fault fault)
    : config_(config), fault_(fault)
{
    if (config.sizeBytes == 0 || config.ways <= 0 || config.lineBytes <= 0) {
        throw std::invalid_argument("RefCache: bad geometry");
    }
    size_t lines = config.sizeBytes / config.lineBytes;
    num_sets_ = static_cast<int>(lines / config.ways);
    if (num_sets_ == 0) {
        throw std::invalid_argument("RefCache: fewer lines than ways");
    }
    // Same normalisation as uarch::Cache: sets round down to a power of
    // two so indexing is a mask.
    if ((num_sets_ & (num_sets_ - 1)) != 0) {
        int p = 1;
        while (p * 2 <= num_sets_) {
            p *= 2;
        }
        num_sets_ = p;
    }
    lines_.assign(static_cast<size_t>(num_sets_) * config.ways, Line{});
}

RefCache::Line *
RefCache::victimOf(Line *set)
{
    // The documented victim rule: the LAST invalid way in scan order
    // wins; with no invalid way, the first way with the strictly
    // smallest lastUse.
    Line *victim = &set[0];
    bool any_invalid = false;
    for (int w = 0; w < config_.ways; ++w) {
        Line &line = set[w];
        if (!line.valid) {
            victim = &line;
            any_invalid = true;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    if (fault_ == Fault::CacheLru && !any_invalid) {
        // Injected bug: a flipped comparison evicts the MRU way. (Which
        // *invalid* way receives a fill is unobservable — same tag,
        // same recency — so the fault must break the recency order.)
        victim = &set[0];
        for (int w = 1; w < config_.ways; ++w) {
            if (set[w].lastUse > victim->lastUse) {
                victim = &set[w];
            }
        }
    }
    return victim;
}

bool
RefCache::access(uint64_t addr, bool is_write)
{
    ++accesses_;
    ++tick_;
    Line *set = &lines_[setOf(addr) * config_.ways];
    const uint64_t tag = tagOf(addr);
    for (int w = 0; w < config_.ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = tick_;
            line.dirty |= is_write;
            return true;
        }
    }
    ++misses_;
    Line *victim = victimOf(set);
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick_;
    victim->dirty = is_write;
    return false;
}

void
RefCache::fill(uint64_t addr)
{
    ++tick_;
    Line *set = &lines_[setOf(addr) * config_.ways];
    const uint64_t tag = tagOf(addr);
    for (int w = 0; w < config_.ways; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            return;  // already resident; leave recency untouched
        }
    }
    Line *victim = victimOf(set);
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick_;
    victim->dirty = false;
}

void
RefCache::invalidate(uint64_t addr)
{
    Line *set = &lines_[setOf(addr) * config_.ways];
    const uint64_t tag = tagOf(addr);
    for (int w = 0; w < config_.ways; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].valid = false;
            ++invalidations_;
            return;
        }
    }
}

RefHierarchy::RefHierarchy(const uarch::Hierarchy::Config &config,
                           Fault fault)
    : config_(config), l1i_(config.l1i, fault), l1d_(config.l1d, fault),
      l2_(config.l2, fault), llc_(config.llc, fault),
      streams_(static_cast<size_t>(std::max(1, config.prefetch.streams)))
{
}

int
RefHierarchy::dataAccess(uint64_t addr, bool is_write)
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

int
RefHierarchy::instrAccess(uint64_t addr)
{
    if (l1i_.access(addr, false)) {
        return 0;
    }
    if (l2_.access(addr, false)) {
        return config_.l2.hitLatency;
    }
    if (llc_.access(addr, false)) {
        return config_.llc.hitLatency;
    }
    return config_.memoryLatency;
}

void
RefHierarchy::remoteStore(uint64_t addr)
{
    l1d_.invalidate(addr);
    l2_.invalidate(addr);
    llc_.access(addr, true);
}

void
RefHierarchy::trainPrefetcher(uint64_t addr)
{
    const uint64_t region = addr >> 12;
    Stream &s = streams_[static_cast<size_t>(region) % streams_.size()];
    if (!s.valid || s.region != region) {
        s = Stream{region, addr, 0, 0, true};
        return;
    }
    int64_t delta =
        static_cast<int64_t>(addr) - static_cast<int64_t>(s.lastAddr);
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
        for (int d = 1; d <= config_.prefetch.degree; ++d) {
            l2_.fill(addr + static_cast<uint64_t>(s.stride * d));
        }
    }
}

// ---------------------------------------------------------------------
// RefTage

RefTage::RefTage(size_t budget_bytes, Fault fault)
    : config_(bpred::tageGeometry(budget_bytes)),
      budget_bytes_(budget_bytes), fault_(fault)
{
    const int ntab = static_cast<int>(config_.histLengths.size());
    base_.assign(size_t{1} << config_.baseBits, 2);
    tables_.assign(static_cast<size_t>(ntab),
                   std::vector<Entry>(size_t{1} << config_.tableBits));
    int max_hist = *std::max_element(config_.histLengths.begin(),
                                     config_.histLengths.end());
    ghr_.assign(static_cast<size_t>(max_hist) + 8, 0);

    fold_idx_.resize(static_cast<size_t>(ntab));
    fold_tag0_.resize(static_cast<size_t>(ntab));
    fold_tag1_.resize(static_cast<size_t>(ntab));
    for (int t = 0; t < ntab; ++t) {
        fold_idx_[t].compLength = config_.tableBits;
        fold_idx_[t].origLength = config_.histLengths[t];
        fold_tag0_[t].compLength = config_.tagBits;
        fold_tag0_[t].origLength = config_.histLengths[t];
        fold_tag1_[t].compLength = config_.tagBits - 1;
        fold_tag1_[t].origLength = config_.histLengths[t];
    }
}

std::string
RefTage::name() const
{
    return "ref-tage-" + std::to_string(budget_bytes_ / 1024) + "KB";
}

uint32_t
RefTage::tableIndex(uint64_t pc, int t) const
{
    uint32_t mask = (1u << config_.tableBits) - 1;
    uint64_t p = pc >> 2;
    return static_cast<uint32_t>(
               (p ^ (p >> (config_.tableBits - (t % config_.tableBits))) ^
                fold_idx_[t].comp)) &
           mask;
}

uint16_t
RefTage::tableTag(uint64_t pc, int t) const
{
    uint32_t mask = (1u << config_.tagBits) - 1;
    uint64_t p = pc >> 2;
    return static_cast<uint16_t>(
        (p ^ fold_tag0_[t].comp ^ (fold_tag1_[t].comp << 1)) & mask);
}

bool
RefTage::predict(uint64_t pc)
{
    const int ntab = static_cast<int>(tables_.size());
    provider_ = -1;
    int alt = -1;
    for (int t = ntab - 1; t >= 0; --t) {
        if (tables_[t][tableIndex(pc, t)].tag == tableTag(pc, t)) {
            if (provider_ < 0) {
                provider_ = t;
            } else {
                alt = t;
                break;
            }
        }
    }
    bool base_pred = base_[(pc >> 2) & ((1u << config_.baseBits) - 1)] >= 2;
    alt_pred_ =
        alt >= 0 ? tables_[alt][tableIndex(pc, alt)].ctr >= 0 : base_pred;
    if (provider_ >= 0) {
        provider_pred_ = tables_[provider_][tableIndex(pc, provider_)].ctr >= 0;
        return provider_pred_;
    }
    provider_pred_ = base_pred;
    return base_pred;
}

void
RefTage::updateHistories(bool taken)
{
    // Plain circular buffer: modulo wrap, no power-of-two trickery.
    ghr_[static_cast<size_t>(ghr_pos_)] = taken ? 1 : 0;
    auto bit_at = [&](int age) {
        int idx = ghr_pos_ - age;
        if (idx < 0) {
            idx += static_cast<int>(ghr_.size());
        }
        return static_cast<uint32_t>(ghr_[static_cast<size_t>(idx)]);
    };
    const uint32_t newest = taken ? 1 : 0;
    for (size_t t = 0; t < tables_.size(); ++t) {
        uint32_t oldest = bit_at(config_.histLengths[t]);
        fold_idx_[t].update(newest, oldest);
        fold_tag0_[t].update(newest, oldest);
        fold_tag1_[t].update(newest, oldest);
    }
    ghr_pos_ = (ghr_pos_ + 1) % static_cast<int>(ghr_.size());
}

void
RefTage::update(uint64_t pc, bool taken, bool predicted)
{
    const int ntab = static_cast<int>(tables_.size());
    ++update_count_;

    if (predicted != taken && provider_ < ntab - 1) {
        int start = provider_ + 1;
        // Probabilistic start offset (LFSR), as in the reference TAGE.
        // Fault::BpredAlloc drops the offset — allocation then always
        // begins at provider+1, skewing which table captures a branch.
        lfsr_ =
            (lfsr_ >> 1) ^ (static_cast<uint32_t>(-(lfsr_ & 1u)) & 0xb400u);
        if (fault_ != Fault::BpredAlloc && start < ntab - 1 && (lfsr_ & 1)) {
            ++start;
        }
        bool allocated = false;
        for (int t = start; t < ntab; ++t) {
            Entry &e = tables_[t][tableIndex(pc, t)];
            if (e.u == 0) {
                e.tag = tableTag(pc, t);
                e.ctr = taken ? 0 : -1;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            for (int t = start; t < ntab; ++t) {
                Entry &e = tables_[t][tableIndex(pc, t)];
                if (e.u > 0) {
                    --e.u;
                }
            }
        }
    }

    if (provider_ >= 0) {
        Entry &e = tables_[provider_][tableIndex(pc, provider_)];
        if (taken && e.ctr < 3) {
            ++e.ctr;
        } else if (!taken && e.ctr > -4) {
            --e.ctr;
        }
        if (provider_pred_ != alt_pred_) {
            if (provider_pred_ == taken && e.u < 3) {
                ++e.u;
            } else if (provider_pred_ != taken && e.u > 0) {
                --e.u;
            }
        }
        if (provider_pred_ != taken) {
            uint8_t &b = base_[(pc >> 2) & ((1u << config_.baseBits) - 1)];
            if (taken && b < 3) {
                ++b;
            } else if (!taken && b > 0) {
                --b;
            }
        }
    } else {
        uint8_t &b = base_[(pc >> 2) & ((1u << config_.baseBits) - 1)];
        if (taken && b < 3) {
            ++b;
        } else if (!taken && b > 0) {
            --b;
        }
    }

    if ((update_count_ & ((1u << 18) - 1)) == 0) {
        for (auto &table : tables_) {
            for (Entry &e : table) {
                e.u >>= 1;
            }
        }
    }

    updateHistories(taken);
}

void
RefTage::reset()
{
    std::fill(base_.begin(), base_.end(), 2);
    for (auto &t : tables_) {
        std::fill(t.begin(), t.end(), Entry{});
    }
    std::fill(ghr_.begin(), ghr_.end(), 0);
    ghr_pos_ = 0;
    for (auto &f : fold_idx_) {
        f.comp = 0;
    }
    for (auto &f : fold_tag0_) {
        f.comp = 0;
    }
    for (auto &f : fold_tag1_) {
        f.comp = 0;
    }
    lfsr_ = 0xace1u;
    update_count_ = 0;
    provider_ = -1;
}

std::unique_ptr<bpred::BranchPredictor>
makeRefPredictor(const std::string &spec, Fault fault)
{
    // Only plain "tage-<N>KB" maps to the independent reference model;
    // tage-sc-l and the non-TAGE families share one implementation with
    // the fast path, which the core differential still drives.
    if (spec.rfind("tage-", 0) == 0 && spec.rfind("tage-sc-l", 0) != 0 &&
        spec.size() > 7 && spec.substr(spec.size() - 2) == "KB") {
        const std::string digits = spec.substr(5, spec.size() - 7);
        if (!digits.empty() &&
            digits.find_first_not_of("0123456789") == std::string::npos) {
            return std::make_unique<RefTage>(
                std::stoull(digits) * 1024, fault);
        }
    }
    return bpred::makePredictor(spec);
}

// ---------------------------------------------------------------------
// Backend energy references

double
refDynamicNanojoules(const backend::MachineProfile &p,
                     const uarch::CoreStats &stats, Fault fault)
{
    // An independent transcription of the documented formula, term by
    // term in the documented order (bit-exact doubles demand it). The
    // injected fault swaps the L2 and LLC miss weights — a plausible
    // copy/paste bug a tolerance-based comparison would shrug off
    // whenever the two counters are close.
    const double l2_nj = fault == Fault::BackendEnergy
                             ? p.energy.llcMissNj
                             : p.energy.l2MissNj;
    const double llc_nj = fault == Fault::BackendEnergy
                              ? p.energy.l2MissNj
                              : p.energy.llcMissNj;
    return static_cast<double>(stats.instructions) *
               p.energy.instructionNj +
           static_cast<double>(stats.l1dMisses + stats.l1iMisses) *
               p.energy.l1MissNj +
           static_cast<double>(stats.l2Misses) * l2_nj +
           static_cast<double>(stats.llcMisses) * llc_nj +
           static_cast<double>(stats.mispredicts) * p.energy.mispredictNj;
}

double
refFixedServiceSeconds(const backend::MachineProfile &p, uint64_t blocks,
                       Fault fault)
{
    if (fault == Fault::BackendEnergy) {
        ++blocks;  // One phantom block: the fencepost version of the bug.
    }
    return p.setupSeconds + static_cast<double>(blocks) * p.secondsPerBlock;
}

double
refFixedEnergyJoules(const backend::MachineProfile &p, uint64_t blocks,
                     Fault fault)
{
    if (fault == Fault::BackendEnergy) {
        ++blocks;
    }
    return p.energy.setupJ +
           static_cast<double>(blocks) * p.energy.blockNj * 1e-9;
}

// ---------------------------------------------------------------------
// Ladder: naive hull + naive scalers

std::vector<size_t>
refConvexHull(const std::vector<video::RdPoint> &pts, Fault fault)
{
    // Rule 1+2: candidate order (rate asc, psnr desc, index asc);
    // equal-rate groups keep only their first member.
    std::vector<size_t> order(pts.size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (pts[a].bitrateKbps != pts[b].bitrateKbps) {
            return pts[a].bitrateKbps < pts[b].bitrateKbps;
        }
        if (pts[a].psnrDb != pts[b].psnrDb) {
            return pts[a].psnrDb > pts[b].psnrDb;
        }
        return a < b;
    });
    std::vector<size_t> cand;
    for (size_t i : order) {
        if (!cand.empty() &&
            pts[cand.back()].bitrateKbps == pts[i].bitrateKbps) {
            continue;
        }
        cand.push_back(i);
    }
    // Rule 3: strictly increasing psnr.
    std::vector<size_t> mono;
    for (size_t i : cand) {
        if (mono.empty() || pts[i].psnrDb > pts[mono.back()].psnrDb) {
            mono.push_back(i);
        }
    }
    // Rule 4, exhaustively: keep m iff NO chord (a, b) of two other
    // surviving points straddling it passes on or above m. Same double
    // expression as the production monotone chain, so on integer-grid
    // inputs the arithmetic is exact and the two must agree.
    std::vector<size_t> hull;
    for (size_t mi = 0; mi < mono.size(); ++mi) {
        const video::RdPoint &m = pts[mono[mi]];
        bool keep = true;
        for (size_t ai = 0; ai < mi && keep; ++ai) {
            const video::RdPoint &a = pts[mono[ai]];
            for (size_t bi = mi + 1; bi < mono.size() && keep; ++bi) {
                const video::RdPoint &b = pts[mono[bi]];
                const double cross =
                    (m.psnrDb - a.psnrDb) * (b.bitrateKbps - a.bitrateKbps) -
                    (b.psnrDb - a.psnrDb) * (m.bitrateKbps - a.bitrateKbps);
                const bool cut = fault == Fault::LadderHull ? cross < 0.0
                                                           : cross <= 0.0;
                keep = keep && !cut;
            }
        }
        if (keep) {
            hull.push_back(mono[mi]);
        }
    }
    return hull;
}

video::Plane
refDownscalePlane(const video::Plane &src, int factor)
{
    const int dw = (src.width() + factor - 1) / factor;
    const int dh = (src.height() + factor - 1) / factor;
    video::Plane dst(dw, dh);
    for (int yd = 0; yd < dh; ++yd) {
        for (int xd = 0; xd < dw; ++xd) {
            const int x1 = std::min((xd + 1) * factor, src.width());
            const int y1 = std::min((yd + 1) * factor, src.height());
            uint32_t sum = 0;
            uint32_t cnt = 0;
            for (int y = yd * factor; y < y1; ++y) {
                for (int x = xd * factor; x < x1; ++x) {
                    sum += src.at(x, y);
                    ++cnt;
                }
            }
            dst.set(xd, yd, static_cast<uint8_t>((sum + cnt / 2) / cnt));
        }
    }
    return dst;
}

namespace
{

/** The production tap: source position of output x in 1/64 units,
 *  center-aligned, clamped to the plane. */
void
refTap(int x, int dst_n, int src_n, int &i0, int &w6)
{
    const int64_t s64 =
        (2 * static_cast<int64_t>(x) + 1) * src_n * 32 / dst_n - 32;
    if (s64 < 0) {
        i0 = 0;
        w6 = 0;
        return;
    }
    i0 = static_cast<int>(s64 >> 6);
    w6 = static_cast<int>(s64 & 63);
    if (i0 >= src_n - 1) {
        i0 = src_n - 1;
        w6 = 0;
    }
}

} // namespace

video::Plane
refUpscalePlane(const video::Plane &src, int dst_width, int dst_height)
{
    video::Plane dst(dst_width, dst_height);
    for (int yd = 0; yd < dst_height; ++yd) {
        int yi = 0, yw = 0;
        refTap(yd, dst_height, src.height(), yi, yw);
        const int yi1 = std::min(yi + 1, src.height() - 1);
        for (int xd = 0; xd < dst_width; ++xd) {
            int xi = 0, xw = 0;
            refTap(xd, dst_width, src.width(), xi, xw);
            const int xi1 = std::min(xi + 1, src.width() - 1);
            // Two-pass rounding order, exactly as production: vertical
            // blend to 8 bits first, then horizontal.
            const int a = (src.at(xi, yi) * (64 - yw) +
                           src.at(xi, yi1) * yw + 32) >> 6;
            const int b = (src.at(xi1, yi) * (64 - yw) +
                           src.at(xi1, yi1) * yw + 32) >> 6;
            dst.set(xd, yd, static_cast<uint8_t>(
                                (a * (64 - xw) + b * xw + 32) >> 6));
        }
    }
    return dst;
}

} // namespace vepro::check
