#ifndef VEPRO_CHECK_ORACLE_HPP
#define VEPRO_CHECK_ORACLE_HPP

/**
 * @file
 * Differential-testing oracles: small, obviously-correct reference
 * models of the simulator's optimized hot paths.
 *
 * PR 4 rewrote the core scheduler (rings + bitmask wakeup), the cache
 * model (SoA + MRU hint), and the TAGE update (division-free folds) for
 * speed, promising bit-identical statistics. These classes re-implement
 * the *pre-optimization* semantics in the most straightforward form —
 * AoS exact-LRU caches, full-scan issue, textbook modulo-arithmetic
 * folded histories — so check::Fuzzer can assert the fast paths against
 * them on arbitrary inputs. They are deliberately slow and simple;
 * nothing outside src/check and its tests should use them.
 *
 * Fault injection: every oracle accepts a Fault knob that deliberately
 * mis-implements one rule (e.g. the LRU victim choice). This exists to
 * prove the harness detects single-rule divergences — `vepro-check
 * --inject=cache-lru` must fail — and is never enabled in real checks.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/profile.hpp"
#include "bpred/predictor.hpp"
#include "bpred/tage.hpp"
#include "serve/farm.hpp"
#include "trace/probe.hpp"
#include "trace/sink.hpp"
#include "uarch/cache.hpp"
#include "uarch/core.hpp"
#include "video/frame.hpp"
#include "video/metrics.hpp"

namespace vepro::check
{

/** Deliberate single-rule bugs for harness self-tests (see file docs). */
enum class Fault {
    None,
    CacheLru,       ///< Victim rule: evicts the MRU way instead of LRU.
    CoreLatency,    ///< Divide executes in 19 cycles instead of 20.
    BpredAlloc,     ///< TAGE skips the probabilistic allocation offset.
    KernelsSad,     ///< Oracle SAD reports one too many on 64+ px blocks.
    KernelsIdct,    ///< Oracle idct is off by one on blocks past the
                    ///< vector path's bound (codec::kIdctExactBound).
    StoreBit,       ///< Round-trip flips one mantissa bit of a double.
    ParallelDrop,   ///< Sequential reference stream drops its last op.
    BackendEnergy,  ///< Energy weights: L2 and LLC miss nJ swapped
                    ///< (fixed profiles: one phantom block).
    TraceFileDelta, ///< TraceFile decode reads every op pc delta off by
                    ///< one (replayed PCs drift from the captured ones).
    LadderHull,     ///< Hull oracle tests the chord with a strict cross
                    ///< (< 0 instead of <= 0), so collinear rungs that
                    ///< the real ladder drops stay on the oracle's hull.
    ProbeQuiet,     ///< trace::Probe's quiet regions past the sampling
                    ///< window ignore the interval wrap, so later
                    ///< windows go unrecorded.
    ProbeTally,     ///< trace::Probe's kernel commit tests the op
                    ///< bound instead of the branch bound, so kernels
                    ///< past the branch warmup lose their branches.
    FarmTie,        ///< RefFarm breaks equal server free-time ties
                    ///< toward the later group instead of the earlier.
};

/** CLI name of a fault ("cache-lru", ...; "none" for Fault::None). */
const char *faultName(Fault fault);
/** Parse a CLI fault name; returns false on unknown names. */
bool parseFault(const std::string &name, Fault &out);

/**
 * AoS exact-LRU cache level: the pre-PR4 representation, one Line
 * struct per way, recency scanned linearly. Mirrors uarch::Cache's
 * documented semantics exactly: same geometry normalisation, same
 * victim rule (last invalid way in scan order, else strictly smallest
 * lastUse), same fill/invalidate behaviour.
 */
class RefCache
{
  public:
    explicit RefCache(const uarch::CacheConfig &config,
                      Fault fault = Fault::None);

    bool access(uint64_t addr, bool is_write);
    void fill(uint64_t addr);
    void invalidate(uint64_t addr);

    const uarch::CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    uint64_t invalidations() const { return invalidations_; }

  private:
    struct Line {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    uint64_t lineOf(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(config_.lineBytes);
    }
    uint64_t setOf(uint64_t addr) const
    {
        return lineOf(addr) & (static_cast<uint64_t>(num_sets_) - 1);
    }
    uint64_t tagOf(uint64_t addr) const
    {
        return lineOf(addr) / static_cast<uint64_t>(num_sets_);
    }
    Line *victimOf(Line *set);

    uarch::CacheConfig config_;
    Fault fault_;
    int num_sets_;
    std::vector<Line> lines_;  ///< num_sets_ x ways, row-major.
    uint64_t tick_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t invalidations_ = 0;
};

/**
 * Reference hierarchy over RefCache levels, replicating
 * uarch::Hierarchy's lookup chain, MESI-style remoteStore, and stride
 * prefetcher byte for byte.
 */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const uarch::Hierarchy::Config &config,
                          Fault fault = Fault::None);

    int dataAccess(uint64_t addr, bool is_write);
    int instrAccess(uint64_t addr);
    void remoteStore(uint64_t addr);

    const RefCache &l1i() const { return l1i_; }
    const RefCache &l1d() const { return l1d_; }
    const RefCache &l2() const { return l2_; }
    const RefCache &llc() const { return llc_; }

  private:
    void trainPrefetcher(uint64_t addr);

    struct Stream {
        uint64_t region = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confirmations = 0;
        bool valid = false;
    };

    uarch::Hierarchy::Config config_;
    RefCache l1i_, l1d_, l2_, llc_;
    std::vector<Stream> streams_;
};

/**
 * Textbook TAGE: the pre-PR4 implementation — folded histories that
 * compute `origLength % compLength` on every update, a plain
 * modulo-wrapped global-history ring, and indices/tags re-hashed from
 * scratch wherever needed. Semantically identical to the optimized
 * bpred::TagePredictor for the same geometry.
 */
class RefTage : public bpred::BranchPredictor
{
  public:
    explicit RefTage(size_t budget_bytes, Fault fault = Fault::None);

    std::string name() const override;
    size_t sizeBytes() const override { return budget_bytes_; }
    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken, bool predicted) override;
    void reset() override;

  private:
    struct FoldedHistory {
        uint32_t comp = 0;
        int compLength = 0;
        int origLength = 0;

        void
        update(uint32_t newest, uint32_t oldest)
        {
            comp = (comp << 1) | newest;
            comp ^= oldest << (origLength % compLength);
            comp ^= comp >> compLength;
            comp &= (1u << compLength) - 1;
        }
    };

    struct Entry {
        uint16_t tag = 0;
        int8_t ctr = 0;
        uint8_t u = 0;
    };

    uint32_t tableIndex(uint64_t pc, int t) const;
    uint16_t tableTag(uint64_t pc, int t) const;
    void updateHistories(bool taken);

    bpred::TageConfig config_;
    size_t budget_bytes_;
    Fault fault_;

    std::vector<uint8_t> base_;
    std::vector<std::vector<Entry>> tables_;

    std::vector<uint8_t> ghr_;
    int ghr_pos_ = 0;

    std::vector<FoldedHistory> fold_idx_;
    std::vector<FoldedHistory> fold_tag0_;
    std::vector<FoldedHistory> fold_tag1_;

    uint32_t lfsr_ = 0xace1u;
    uint64_t update_count_ = 0;

    int provider_ = -1;
    bool provider_pred_ = false;
    bool alt_pred_ = false;
};

/**
 * Build the reference predictor for a core-model spec: RefTage for
 * plain "tage-<N>KB" specs, otherwise the shared factory (the core
 * differential then still covers scheduling and caches).
 */
std::unique_ptr<bpred::BranchPredictor>
makeRefPredictor(const std::string &spec, Fault fault = Fault::None);

/**
 * Reference OoO core: the pre-PR4 batch replay, verbatim — per-cycle
 * full scan of the reservation station in vector order, a sorted deque
 * of in-flight load completions, per-op class/latency switches — on top
 * of RefHierarchy and makeRefPredictor. Produces the same CoreStats
 * contract as uarch::Core::run and must match it bit for bit.
 */
uarch::CoreStats refCoreRun(const uarch::CoreConfig &config,
                            const std::vector<trace::TraceOp> &trace,
                            Fault fault = Fault::None);

/**
 * Reference dynamic energy (nanojoules) for Kind::Core profiles: an
 * independent transcription of the sum documented in
 * backend/profile.hpp, in the SAME evaluation order — IEEE doubles only
 * reproduce bit for bit when the operation order matches, and the
 * energy differential demands bit-identical results against
 * backend::dynamicNanojoules, not approximately-equal ones.
 */
double refDynamicNanojoules(const backend::MachineProfile &p,
                            const uarch::CoreStats &stats,
                            Fault fault = Fault::None);

/** Reference service seconds for Kind::Fixed profiles. */
double refFixedServiceSeconds(const backend::MachineProfile &p,
                              uint64_t blocks, Fault fault = Fault::None);

/** Reference energy for Kind::Fixed profiles. */
double refFixedEnergyJoules(const backend::MachineProfile &p,
                            uint64_t blocks, Fault fault = Fault::None);

/**
 * Naive O(n^2) upper convex hull over (bitrate, PSNR): a point is kept
 * iff it survives the documented tie/dominance rules and NO chord of
 * two other surviving points passes on or above it — tested with the
 * same exact double cross expression the production monotone chain
 * uses, so on integer-grid inputs the two agree bit for bit. Returns
 * original indices in ascending bitrate order, the
 * ladder::convexHull contract.
 */
std::vector<size_t> refConvexHull(const std::vector<video::RdPoint> &pts,
                                  Fault fault = Fault::None);

/**
 * Per-call reference probe (refprobe.cpp): trace::Probe's emission API
 * with the accounting every call did before the quiet-region fast path
 * (interval position, window, cap and drops worked out per call) and the
 * probe's recording into TraceBlocks, delivered to @p sink. Always
 * streams, so kernel entries stage deferred kernel events.
 */
class RefProbe
{
  public:
    RefProbe(const trace::ProbeConfig &config, trace::TraceSink &sink);

    void enterKernel(uint64_t site, int body_len);
    void ops(trace::OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2);
    void mem(trace::OpClass cls, uint64_t addr, uint8_t dep1);
    void memRun(trace::OpClass cls, uint64_t addr, int n, int stride,
                uint8_t dep1);
    void decision(uint64_t site, bool taken);
    void loopBranches(uint64_t iterations);
    void flushToSink() { flushBlock(); }

    const trace::MixCounters &mix() const { return mix_; }
    uint64_t totalOps() const { return op_seq_; }
    uint64_t recordedOps() const { return ops_recorded_; }
    uint64_t recordedBranches() const { return branches_recorded_; }
    uint64_t droppedOps() const { return dropped_ops_; }
    uint64_t droppedBranches() const { return dropped_branches_; }
    uint64_t branchTraceOpSpan() const
    {
        return branch_last_op_ > branch_first_op_
                   ? branch_last_op_ - branch_first_op_
                   : 0;
    }

  private:
    uint64_t advance(uint64_t n);
    uint64_t nextPc();
    void flushBlock();
    void stagePendingKernel();
    void pushOp(const trace::TraceOp &op);
    void emitOps(const trace::TraceOp *ops, size_t n);
    void emitBranch(uint64_t pc, bool taken);

    trace::ProbeConfig config_;
    trace::TraceSink &sink_;
    trace::MixCounters mix_{};
    uint64_t op_seq_ = 0;
    uint64_t interval_pos_ = 0;
    uint64_t site_base_ = trace::sitePc("vepro.default");
    int site_body_len_ = 32;
    uint32_t site_pos_ = 0;
    uint64_t branch_first_op_ = 0;
    uint64_t branch_last_op_ = 0;
    uint64_t pending_site_ = 0;
    bool pending_site_valid_ = false;
    trace::TraceBlock stage_;
    uint64_t ops_recorded_ = 0;
    uint64_t branches_recorded_ = 0;
    uint64_t dropped_ops_ = 0;
    uint64_t dropped_branches_ = 0;
};

/** A farm policy as RefFarm applies it: the static or the adaptive rule,
 *  written inline against the cost oracle. */
struct RefFarmPolicy {
    bool adaptive = false;
    int preset = 0;  ///< The static preset (unused when adaptive).
};

/**
 * Reference farm (reffarm.cpp): serve::simulateFarm's event loop before
 * the FIFO dispatch and per-group cost tables. Per-shard (deadline,
 * seq) heaps, an oracle query for every cost at dispatch (through a
 * per-backend view in a pool), the policy rules inline and full-sort
 * percentiles. The two run() overloads take the inputs of the two
 * simulateFarm signatures and, on sorted arrivals, must return the same
 * FarmResult bit for bit.
 */
class RefFarm
{
  public:
    RefFarm(const serve::FarmConfig &config, RefFarmPolicy policy,
            Fault fault = Fault::None);

    /** config.servers identical servers consulting @p cost; no energy. */
    serve::FarmResult run(const std::vector<serve::UploadJob> &arrivals,
                          const serve::CostOracle &cost) const;
    /** One group per non-empty ServerGroup, priced on its backend. */
    serve::FarmResult run(const std::vector<serve::UploadJob> &arrivals,
                          const serve::FleetCostOracle &cost,
                          const std::vector<serve::ServerGroup> &pool) const;

  private:
    serve::FarmConfig config_;
    RefFarmPolicy policy_;
    Fault fault_;
};

/** Naive per-pixel box downscale: clipped box sum, (sum + cnt/2)/cnt.
 *  No kernel table, no interior/edge split — the obviously-correct
 *  transcription of the video::downscalePlane contract. */
video::Plane refDownscalePlane(const video::Plane &src, int factor);

/** Naive per-pixel bilinear upscale replicating the production two-pass
 *  rounding order (vertical blend to 8 bits, then horizontal) with the
 *  tap positions re-derived inline. */
video::Plane refUpscalePlane(const video::Plane &src, int dst_width,
                             int dst_height);

} // namespace vepro::check

#endif // VEPRO_CHECK_ORACLE_HPP
