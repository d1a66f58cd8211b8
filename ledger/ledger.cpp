/**
 * @file
 * The real-point benchmark: one workload, one seed, one JSON line.
 *
 *   ledger --workload cold_sweep|replay_sweep|serve_fleet --seed N
 *          --seconds S --trace 0|1 [--ledger FILE] [--work DIR]
 *          [--spans DIR]
 *
 * Every workload is a closed loop of kWorkers workers driven through
 * the entry points users call (lab::Orchestrator, serve::runScenario,
 * serve::runFleetScenario). A run is: set-up, then rounds over the
 * seed's job set until S seconds have passed (at least one round;
 * two for cold_sweep), then output checks. The last stdout line is
 * the result object {"correct", "attempted", "failed", "metrics"}:
 * end-to-end metrics with --trace 0; with --trace 1 a separate traced
 * pass over one round drives each layer's public functions itself and
 * the metrics are the per-layer ledger (self times, counts, rates).
 * ledger.json next to
 * this file documents the workloads, the layer map and the expected
 * output digests.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/profile.hpp"
#include "core/experiment.hpp"
#include "core/rng.hpp"
#include "encoders/registry.hpp"
#include "lab/json.hpp"
#include "lab/orchestrator.hpp"
#include "lab/store.hpp"
#include "lab/tracecache.hpp"
#include "serve/costmodel.hpp"
#include "serve/farm.hpp"
#include "serve/fleet.hpp"
#include "serve/policy.hpp"
#include "serve/scenario.hpp"
#include "serve/traffic.hpp"
#include "trace/trace_io.hpp"
#include "uarch/core.hpp"
#include "video/suite.hpp"

namespace
{

using namespace vepro;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** Closed-loop pool size for every workload (a 4-core host keeps one
 *  core for the system). */
constexpr int kWorkers = 3;
/** Set-up repetitions whose median is setup_s. A cold set-up is a few
 *  microseconds of CPU, so it is repeated on the worker pool: the
 *  median of 201 on one thread moved by half between runs, as the
 *  thread landed on a busier or quieter core; of 2001 on three threads,
 *  by about 2 %. */
constexpr size_t kColdSetups = 2001;
constexpr int kServeSetups = 3;
/** replay_sweep re-simulates each clip at the two ends of the sweep,
 *  captured at the --full trace cap. */
constexpr std::array<int, 2> kReplayCrfs = {10, 60};
constexpr uint64_t kReplayTraceOps = 4'000'000;
/** serve_fleet: traffic variants per round (each runs the SLA policy
 *  sweep and the fleet sweep) and the factor applied to the reference
 *  quick scenario's users and servers. */
constexpr size_t kServeVariants = 24;
constexpr int kServeScale = 400;

const Clock::time_point kStart = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest whole percentile with at least ten samples beyond it
 *  (nearest rank), floored at the median. */
int
tailPercentile(size_t n)
{
    if (n <= 20) {
        return 50;
    }
    return static_cast<int>(100 * (n - 10) / n);
}

double
percentile(std::vector<double> v, int p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// ---- Output checks ------------------------------------------------------

struct Checks {
    size_t attempted = 0;
    size_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "ledger: check failed: %s\n", what.c_str());
        }
    }
};

/**
 * One line per lab point: the canonical key and every CoreStats
 * counter, a pure function of the spec. ledger/store_digest.py builds
 * the same lines from a vepro-lab store.
 *
 * The encode summary is compared apart, within kSummaryTolerance: an
 * encode's modeled instructions, bitrate and PSNR differ in their last
 * digits between processes, and between encodes of one point running
 * concurrently, while the recorded op window (hence CoreStats) does not.
 */
std::string
digestLine(const lab::JobSpec &spec, const lab::JobResult &r)
{
    const uarch::CoreStats &c = r.core;
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "%s|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|"
        "%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu\n",
        spec.canonicalKey().c_str(),
        static_cast<unsigned long long>(c.cycles),
        static_cast<unsigned long long>(c.instructions),
        static_cast<unsigned long long>(c.slots.retiring),
        static_cast<unsigned long long>(c.slots.badSpec),
        static_cast<unsigned long long>(c.slots.frontend),
        static_cast<unsigned long long>(c.slots.backend),
        static_cast<unsigned long long>(c.slots.backendMemory),
        static_cast<unsigned long long>(c.slots.backendCore),
        static_cast<unsigned long long>(c.stalls.rs),
        static_cast<unsigned long long>(c.stalls.rob),
        static_cast<unsigned long long>(c.stalls.loadBuf),
        static_cast<unsigned long long>(c.stalls.storeBuf),
        static_cast<unsigned long long>(c.condBranches),
        static_cast<unsigned long long>(c.mispredicts),
        static_cast<unsigned long long>(c.l1iMisses),
        static_cast<unsigned long long>(c.l1dAccesses),
        static_cast<unsigned long long>(c.l1dMisses),
        static_cast<unsigned long long>(c.l2Misses),
        static_cast<unsigned long long>(c.llcMisses),
        static_cast<unsigned long long>(c.invalidations));
    return buf;
}

/** Relative tolerance on summed modeled instructions and bitrate, and
 *  absolute tolerance in dB on mean PSNR. */
constexpr double kSummaryTolerance = 1e-3;

/** Encode summaries of a set of points. */
struct Summary {
    double instructions = 0.0;
    double bitrateKbps = 0.0;
    double psnrDb = 0.0;  ///< Summed; mean() divides.
    size_t points = 0;

    void
    add(const lab::EncodeSummary &e)
    {
        instructions += static_cast<double>(e.instructions);
        bitrateKbps += e.bitrateKbps;
        psnrDb += e.psnrDb;
        ++points;
    }

    double meanPsnr() const { return points ? psnrDb / points : 0.0; }

    bool
    close(double instr, double bitrate, double mean_psnr) const
    {
        auto rel = [](double a, double b) {
            return std::fabs(a - b) <= kSummaryTolerance * std::fabs(b);
        };
        return rel(instructions, instr) && rel(bitrateKbps, bitrate) &&
               std::fabs(meanPsnr() - mean_psnr) <= kSummaryTolerance;
    }
};

bool
summariesClose(const lab::EncodeSummary &a, const lab::EncodeSummary &b)
{
    Summary one;
    one.add(a);
    return one.close(static_cast<double>(b.instructions), b.bitrateKbps,
                     b.psnrDb);
}

/** Bit-identical results: every CoreStats counter and the summary. */
bool
identical(const lab::JobSpec &spec, const lab::JobResult &a,
          const lab::JobResult &b)
{
    return digestLine(spec, a) == digestLine(spec, b) &&
           a.encode.instructions == b.encode.instructions &&
           a.encode.bitrateKbps == b.encode.bitrateKbps &&
           a.encode.psnrDb == b.encode.psnrDb &&
           a.encode.droppedOps == b.encode.droppedOps;
}

/** FNV-1a 64 over the lines in sorted order (job order never matters). */
std::string
digestOf(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    std::string all;
    for (const std::string &line : lines) {
        all += line;
    }
    return hex64(lab::fnv1a64(all));
}

// ---- Spans --------------------------------------------------------------

/**
 * One traced interval. Calls into a sink are many and short, so they
 * are aggregated per job: start/end bound the first and last call and
 * busy sums the calls. For a plain span busy == end - start.
 */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double busy = 0.0;
    uint64_t calls = 1;
    int parent = -1;  ///< Index in the log; -1 for a root span.
    int job = -1;
    int worker = -1;
};

/** Spans of one traced pass, kept in memory until the run ends. */
class SpanLog
{
  public:
    int
    open(const std::string &name, int parent, int job, int worker)
    {
        Span span;
        span.name = name;
        span.start = now();
        span.parent = parent;
        span.job = job;
        span.worker = worker;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int id)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        Span &span = spans_.at(static_cast<size_t>(id));
        span.end = t;
        span.busy = t - span.start;
    }

    void
    add(Span span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Self time per span name: busy minus the children's busy. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i) {
            self[i] += spans_[i].busy;
            if (spans_[i].parent >= 0) {
                self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].busy;
            }
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].name] += self[i];
        }
        return out;
    }

    /** Summed busy time of every span called @p name. */
    double
    busy(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        double total = 0.0;
        for (const Span &s : spans_) {
            total += s.name == name ? s.busy : 0.0;
        }
        return total;
    }

    size_t
    count(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return static_cast<size_t>(std::count_if(
            spans_.begin(), spans_.end(),
            [&](const Span &s) { return s.name == name; }));
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /** JSON lines: a header object, then one object per span. */
    void
    write(const fs::path &path, const std::string &header) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path, std::ios::trunc);
        out << header << "\n";
        for (const Span &s : spans_) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "\",\"start\":%.9f,\"end\":%.9f,\"busy\":%.9f,"
                          "\"calls\":%llu,\"parent\":%d,\"job\":%d,"
                          "\"worker\":%d}\n",
                          s.start, s.end, s.busy,
                          static_cast<unsigned long long>(s.calls), s.parent,
                          s.job, s.worker);
            out << "{\"name\":\"" << s.name << buf;
        }
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name, int parent, int job,
           int worker)
        : log_(log), id_(log.open(name, parent, job, worker))
    {
    }
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Forwarding sink that times every call into the wrapped sink. The
 * wrapped sink sees exactly the calls it would see unwrapped, so its
 * results are unchanged.
 */
class TimedSink final : public trace::TraceSink
{
  public:
    explicit TimedSink(trace::TraceSink &inner) : inner_(inner) {}

    void
    onOp(const trace::TraceOp &op) override
    {
        const Stamp stamp(*this);
        inner_.onOp(op);
        ++ops_;
    }
    void
    onOps(const trace::TraceOp *ops, size_t n) override
    {
        const Stamp stamp(*this);
        inner_.onOps(ops, n);
        ops_ += n;
    }
    void
    onBranch(const trace::BranchRecord &branch) override
    {
        const Stamp stamp(*this);
        inner_.onBranch(branch);
    }
    void
    onKernel(uint64_t site) override
    {
        const Stamp stamp(*this);
        inner_.onKernel(site);
    }
    void
    onBlock(trace::TraceBlock &&block) override
    {
        ops_ += block.ops.size();
        const Stamp stamp(*this);
        inner_.onBlock(std::move(block));
    }
    void
    flush() override
    {
        const Stamp stamp(*this);
        inner_.flush();
    }

    uint64_t ops() const { return ops_; }

    /** Log the aggregated calls as one span under @p parent. */
    void
    record(SpanLog &log, const std::string &name, int parent, int job,
           int worker) const
    {
        if (calls_ == 0) {
            return;
        }
        Span span;
        span.name = name;
        span.start = first_;
        span.end = last_;
        span.busy = busy_;
        span.calls = calls_;
        span.parent = parent;
        span.job = job;
        span.worker = worker;
        log.add(std::move(span));
    }

  private:
    struct Stamp {
        explicit Stamp(TimedSink &sink) : sink(sink), t0(now()) {}
        ~Stamp()
        {
            const double t1 = now();
            if (sink.calls_ == 0) {
                sink.first_ = t0;
            }
            sink.last_ = t1;
            sink.busy_ += t1 - t0;
            ++sink.calls_;
        }
        TimedSink &sink;
        double t0;
    };

    trace::TraceSink &inner_;
    double first_ = 0.0;
    double last_ = 0.0;
    double busy_ = 0.0;
    uint64_t calls_ = 0;
    uint64_t ops_ = 0;
};

// ---- Closed loop and scratch space --------------------------------------

/** Run fn(job, worker) for jobs 0..n-1 on kWorkers threads; each
 *  worker takes the next job when its last one finishes. */
void
closedLoop(size_t n, const std::function<void(size_t, int)> &fn)
{
    std::atomic<size_t> next{0};
    std::mutex err_mutex;
    std::exception_ptr err;
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
                try {
                    fn(i, w);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(err_mutex);
                    if (!err) {
                        err = std::current_exception();
                    }
                }
            }
        });
    }
    for (std::thread &t : workers) {
        t.join();
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

/** A fresh directory for one run's stores and traces, removed with
 *  everything in it when the run ends. */
class WorkDir
{
  public:
    explicit WorkDir(const fs::path &root)
        : path_(root / ("run-" + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    fs::path sub(const std::string &name) const { return path_ / name; }

  private:
    fs::path path_;
};

lab::OrchestratorOptions
orchestratorOptions(const fs::path &store, int jobs)
{
    lab::OrchestratorOptions opts;
    opts.jobs = jobs;
    opts.storeDir = store.string();
    opts.verbose = false;
    opts.progress = nullptr;
    return opts;
}

// ---- Inputs from the seed -----------------------------------------------

/**
 * The clips vepro-lab --figures=4 --quick sweeps, in its order: one
 * from each entropy band of three in suite Table 1 order. Both lab
 * workloads run them, in one request order, for every seed: measured
 * over ten seeds, drawing other clips per seed moved the median job
 * time by a third (a point takes 0.3-6 s; chicken's six points alone
 * take 81 s), and shuffling the request order moved cold_sweep's by a
 * fifth (which points overlap sets their contention) and
 * replay_sweep's round wall time by a fifth (which replays finish last
 * sets how long workers idle).
 */
const std::vector<std::string> kFigure4Clips = {"desktop", "funny", "game1",
                                                "cat", "hall"};

std::string
joined(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items) {
        out += (out.empty() ? "" : ",") + item;
    }
    return out;
}

/** The SVT-AV1 preset-4 CRF sweep in quick geometry, clip-major. */
std::vector<lab::JobSpec>
sweepSpecs(const std::vector<std::string> &clips,
           const std::vector<int> &crfs, uint64_t max_trace_ops)
{
    std::vector<lab::JobSpec> specs;
    for (const std::string &clip : clips) {
        for (int crf : crfs) {
            lab::JobSpec spec;
            spec.encoder = "SVT-AV1";
            spec.video = clip;
            spec.crf = crf;
            spec.preset = 4;
            spec.divisor = 8;
            spec.frames = 6;
            spec.maxTraceOps = max_trace_ops;
            specs.push_back(spec);
        }
    }
    return specs;
}

/** The reference quick scenario scaled up kServeScale-fold, with its
 *  traffic seed drawn from (seed, variant). */
serve::ServeScenario
serveScenario(uint64_t seed, size_t variant)
{
    serve::ServeScenario s = serve::referenceScenario(true);
    s.traffic.seed = core::SplitMix64(seed * 1000003ULL + variant).next();
    s.traffic.users *= kServeScale;
    s.farm.servers *= kServeScale;
    return s;
}

// ---- Measurements --------------------------------------------------------

/** What one untimed-prepare + timed-run round measured. */
struct Round {
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<double> jobSeconds;
    size_t failedJobs = 0;
    std::string digest;
    Summary summary;
    double modelInstructions = 0.0;  ///< Modeled encoder instructions.
    double simOps = 0.0;             ///< Core ops simulated.
    double uploads = 0.0;            ///< Uploads simulated by farms.
    size_t encoderRuns = 0;
    size_t traceReplays = 0;
    size_t retries = 0;
};

/** Per-layer numbers of one traced pass. */
struct Ledger {
    SpanLog spans;
    double modelInstructions = 0.0;
    double recordedOps = 0.0;
    double droppedOps = 0.0;
    double simOps = 0.0;
    double traceBytes = 0.0;
    double traceBytesOps = 0.0;
    double readOps = 0.0;
    double uploads = 0.0;
    size_t storeLoads = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Name of the input set the expected digest is recorded under. */
    virtual std::string inputKey() const = 0;
    /** Set up for the rounds; returns the set-up times it measured. */
    virtual std::vector<double> setup() = 0;
    /** Rounds a run makes even when --seconds has passed. */
    virtual size_t minRounds() const { return 1; }
    virtual Round round(Checks &checks) = 0;
    virtual void traced(Ledger &ledger, Checks &checks) = 0;
};

class ColdSweep final : public Workload
{
  public:
    explicit ColdSweep(const WorkDir &dir)
        : dir_(dir), clips_(kFigure4Clips),
          specs_(sweepSpecs(clips_, core::crfSweepAv1(), 1'200'000))
    {
    }

    std::string inputKey() const override { return joined(clips_); }

    /** One round is one sample of each point; with a single round the
     *  median job time moved by a quarter between runs, as timing
     *  jitter changed which points overlapped. */
    size_t minRounds() const override { return 2; }

    /** A cold sweep's set-up: an orchestrator over an empty store
     *  holding the requests. The store's directories appear on its
     *  first write, inside the timed run. */
    std::vector<double>
    setup() override
    {
        std::vector<double> seconds(kColdSetups);
        closedLoop(kColdSetups, [&](size_t i, int) {
            const double t0 = now();
            lab::Orchestrator orch(
                orchestratorOptions(dir_.sub("cold-setup"), kWorkers));
            for (const lab::JobSpec &spec : specs_) {
                orch.request(spec);
            }
            seconds[i] = now() - t0;
        });
        return seconds;
    }

    Round
    round(Checks &checks) override
    {
        const fs::path store = dir_.sub("cold-" + std::to_string(rounds_++));
        lab::Orchestrator orch(orchestratorOptions(store, kWorkers));
        std::vector<size_t> handles;
        for (const lab::JobSpec &spec : specs_) {
            handles.push_back(orch.request(spec));
        }
        Round r;
        const double cpu0 = cpuSeconds();
        const double t0 = now();
        orch.run();
        r.wall = now() - t0;
        r.cpu = cpuSeconds() - cpu0;

        std::vector<std::string> lines;
        for (size_t i = 0; i < specs_.size(); ++i) {
            if (orch.failed(handles[i])) {
                ++r.failedJobs;
                continue;
            }
            const lab::JobResult &res = orch.result(handles[i]);
            r.jobSeconds.push_back(res.jobSeconds);
            r.modelInstructions += static_cast<double>(res.encode.instructions);
            r.simOps += static_cast<double>(res.core.instructions);
            lines.push_back(digestLine(specs_[i], res));
            r.summary.add(res.encode);
            live_[i] = res;
        }
        r.digest = digestOf(lines);
        r.encoderRuns = orch.encoderRuns();
        r.traceReplays = orch.traceReplays();
        r.retries = orch.retries();
        checks.expect(r.encoderRuns == specs_.size() && r.traceReplays == 0,
                      "cold_sweep: " + orch.traceLine() + " for " +
                          std::to_string(specs_.size()) + " jobs");
        fs::remove_all(store);
        return r;
    }

    void
    traced(Ledger &ledger, Checks &checks) override
    {
        const fs::path store = dir_.sub("cold-traced");
        const fs::path traces = store / "traces";
        fs::create_directories(traces);
        const lab::ResultStore results(store.string(), nullptr);
        const std::shared_ptr<const encoders::EncoderModel> encoder =
            encoders::encoderByName("SVT-AV1");

        // Clips load once per clip, in the first job that needs one,
        // as the orchestrator's refcounted slots do.
        std::map<std::string, ClipSlot> slots;
        for (const std::string &clip : clips_) {
            slots[clip];
        }
        std::vector<lab::JobResult> out(specs_.size());
        std::mutex totals_mutex;
        SpanLog &log = ledger.spans;

        closedLoop(specs_.size(), [&](size_t i, int w) {
            const lab::JobSpec &spec = specs_[i];
            const int job_id = static_cast<int>(i);
            {
                const Scoped load(log, "store.load", -1, job_id, w);
                if (results.load(spec)) {
                    throw std::runtime_error("cold store holds " + spec.label());
                }
            }
            lab::JobResult res;
            uint64_t recorded = 0;
            const std::string path =
                (traces / (spec.traceHashHex() + ".vetf")).string();
            {
                const Scoped job(log, "job", -1, job_id, w);
                std::shared_ptr<const video::Video> clip;
                {
                    ClipSlot &slot = slots.at(spec.video);
                    std::lock_guard<std::mutex> lock(slot.mutex);
                    if (!slot.clip) {
                        const Scoped synth(log, "video.synth", job.id(),
                                           job_id, w);
                        slot.clip = std::make_shared<const video::Video>(
                            video::loadSuiteVideo(spec.video,
                                                  spec.toRunScale().suite));
                    }
                    clip = slot.clip;
                }
                encoders::EncodeParams params;
                params.crf = spec.crf;
                params.preset = spec.preset;
                uarch::StreamCore sim;
                trace::FileSink file(path);
                file.deferSeal(true);
                TimedSink timed_file(file);
                TimedSink timed_core(sim);
                trace::MuxSink mux{&timed_file, &timed_core};
                encoders::EncodeResult enc;
                {
                    const Scoped encode(log, "encode", job.id(), job_id, w);
                    enc = encoder->encode(*clip, params,
                                          core::tracingConfig(spec.toRunScale()),
                                          false, &mux);
                    timed_file.record(log, "tracefile.write", encode.id(),
                                      job_id, w);
                    timed_core.record(log, "uarch.core", encode.id(), job_id, w);
                }
                {
                    const Scoped seal(log, "tracefile.write", job.id(), job_id,
                                      w);
                    lab::JsonValue meta = lab::JsonValue::object();
                    meta.set("traceKey", lab::JsonValue::str(spec.traceKey()))
                        .set("wallSeconds", lab::JsonValue::number(enc.wallSeconds))
                        .set("instructions",
                             lab::JsonValue::number(enc.instructions))
                        .set("bitrateKbps", lab::JsonValue::number(enc.bitrateKbps))
                        .set("psnrDb", lab::JsonValue::number(enc.psnrDb))
                        .set("droppedOps", lab::JsonValue::number(enc.droppedOps));
                    file.setMetadata(meta.dump());
                    file.seal();
                }
                res.encode.instructions = enc.instructions;
                res.encode.bitrateKbps = enc.bitrateKbps;
                res.encode.psnrDb = enc.psnrDb;
                res.encode.droppedOps = enc.droppedOps;
                res.encode.wallSeconds = enc.wallSeconds;
                res.core = sim.stats();
                recorded = timed_core.ops();
            }
            {
                const Scoped save(log, "store.save", -1, job_id, w);
                results.save(spec, res);
            }
            {
                // The probe split: the same encode with mix counting
                // only, right after the traced one on the same worker,
                // so both see the same host.
                encoders::EncodeParams params;
                params.crf = spec.crf;
                params.preset = spec.preset;
                const Scoped mix(log, "encoders.mix_only", -1, job_id, w);
                encoder->encode(*slots.at(spec.video).clip, params);
            }
            const trace::TraceFileInfo info = trace::FileSource::inspect(path);
            std::lock_guard<std::mutex> lock(totals_mutex);
            ledger.modelInstructions += static_cast<double>(res.encode.instructions);
            ledger.recordedOps += static_cast<double>(recorded);
            ledger.droppedOps += static_cast<double>(res.encode.droppedOps);
            ledger.simOps += static_cast<double>(res.core.instructions);
            ledger.traceBytes += static_cast<double>(info.fileBytes);
            ledger.traceBytesOps += static_cast<double>(info.opCount);
            ledger.storeLoads += 1;
            out[i] = res;
        });

        bool same = true;
        for (size_t i = 0; i < specs_.size(); ++i) {
            same = same && live_.count(i) &&
                   digestLine(specs_[i], out[i]) ==
                       digestLine(specs_[i], live_.at(i)) &&
                   summariesClose(out[i].encode, live_.at(i).encode);
        }
        checks.expect(same, "cold_sweep: traced pass differs from the "
                            "orchestrator's results");
        fs::remove_all(store);
    }

  private:
    struct ClipSlot {
        std::mutex mutex;
        std::shared_ptr<const video::Video> clip;
    };

    const WorkDir &dir_;
    std::vector<std::string> clips_;
    std::vector<lab::JobSpec> specs_;
    std::map<size_t, lab::JobResult> live_;
    int rounds_ = 0;
};

class ReplaySweep final : public Workload
{
  public:
    explicit ReplaySweep(const WorkDir &dir)
        : dir_(dir), clips_(kFigure4Clips),
          points_(sweepSpecs(clips_, {kReplayCrfs.begin(), kReplayCrfs.end()},
                             kReplayTraceOps)),
          store_(dir.sub("replay-store"))
    {
        for (const char *backend : {"xeon-bdw", "graviton-like"}) {
            for (lab::JobSpec spec : points_) {
                spec.backend = backend;
                specs_.push_back(spec);
            }
        }
    }

    std::string inputKey() const override { return joined(clips_); }

    /** Capture every point's trace through the orchestrator (live
     *  encode on the default core), keeping the live results. Once:
     *  it is encode-bound and takes about 10 s. */
    std::vector<double>
    setup() override
    {
        const double t0 = now();
        lab::Orchestrator orch(orchestratorOptions(store_, kWorkers));
        std::vector<size_t> handles;
        for (const lab::JobSpec &spec : points_) {
            handles.push_back(orch.request(spec));
        }
        orch.run();
        for (size_t i = 0; i < points_.size(); ++i) {
            if (!orch.failed(handles[i])) {
                live_[points_[i].traceKey()] = orch.result(handles[i]);
            }
        }
        setupCaptures_ = orch.traceCaptures();
        return {now() - t0};
    }

    Round
    round(Checks &checks) override
    {
        // Results cold, traces warm: drop the records, keep traces/.
        std::vector<fs::path> records;
        for (const fs::directory_entry &entry : fs::directory_iterator(store_)) {
            if (entry.is_regular_file()) {
                records.push_back(entry.path());
            }
        }
        for (const fs::path &record : records) {
            fs::remove(record);
        }
        lab::Orchestrator orch(orchestratorOptions(store_, kWorkers));
        std::vector<size_t> handles;
        for (const lab::JobSpec &spec : specs_) {
            handles.push_back(orch.request(spec));
        }
        Round r;
        const double cpu0 = cpuSeconds();
        const double t0 = now();
        orch.run();
        r.wall = now() - t0;
        r.cpu = cpuSeconds() - cpu0;

        std::vector<std::string> lines;
        bool bit_identical = true;
        for (size_t i = 0; i < specs_.size(); ++i) {
            if (orch.failed(handles[i])) {
                ++r.failedJobs;
                continue;
            }
            const lab::JobResult &res = orch.result(handles[i]);
            r.jobSeconds.push_back(res.jobSeconds);
            r.modelInstructions += static_cast<double>(res.encode.instructions);
            r.simOps += static_cast<double>(res.core.instructions);
            lines.push_back(digestLine(specs_[i], res));
            r.summary.add(res.encode);
            replayed_[i] = res;
            if (specs_[i].backend == "xeon-bdw") {
                auto it = live_.find(specs_[i].traceKey());
                bit_identical = bit_identical && it != live_.end() &&
                                identical(specs_[i], res, it->second);
            }
        }
        r.digest = digestOf(lines);
        r.encoderRuns = orch.encoderRuns();
        r.traceReplays = orch.traceReplays();
        r.retries = orch.retries();
        checks.expect(setupCaptures_ == points_.size(),
                      "replay_sweep: set-up captured " +
                          std::to_string(setupCaptures_) + " traces");
        checks.expect(r.encoderRuns == 0 &&
                          r.traceReplays == specs_.size(),
                      "replay_sweep: " + orch.traceLine() + " for " +
                          std::to_string(specs_.size()) + " jobs");
        checks.expect(bit_identical, "replay_sweep: xeon-bdw replays differ "
                                     "from the set-up's live results");
        return r;
    }

    void
    traced(Ledger &ledger, Checks &checks) override
    {
        const fs::path store = dir_.sub("replay-traced");
        fs::create_directories(store);
        const lab::ResultStore results(store.string(), nullptr);
        const lab::TraceCache traces((store_ / "traces").string(), nullptr);
        std::vector<lab::JobResult> out(specs_.size());
        std::mutex totals_mutex;
        SpanLog &log = ledger.spans;

        closedLoop(specs_.size(), [&](size_t i, int w) {
            const lab::JobSpec &spec = specs_[i];
            const int job_id = static_cast<int>(i);
            {
                const Scoped load(log, "store.load", -1, job_id, w);
                if (results.load(spec)) {
                    throw std::runtime_error("cold store holds " + spec.label());
                }
            }
            lab::JobResult res;
            trace::TraceFileInfo info;
            {
                const Scoped job(log, "job", -1, job_id, w);
                uarch::StreamCore sim(backend::resolveProfile(spec.backend).core);
                TimedSink timed_core(sim);
                {
                    const Scoped read(log, "tracefile.read", job.id(), job_id,
                                      w);
                    info = trace::FileSource(traces.pathFor(spec))
                               .replay(timed_core);
                    timed_core.flush();
                    timed_core.record(log, "uarch.core", read.id(), job_id, w);
                }
                const lab::JsonValue meta = lab::JsonValue::parse(info.metadata);
                res.encode.instructions = meta.at("instructions").asU64();
                res.encode.bitrateKbps = meta.at("bitrateKbps").asDouble();
                res.encode.psnrDb = meta.at("psnrDb").asDouble();
                res.encode.droppedOps = meta.at("droppedOps").asU64();
                res.encode.wallSeconds = meta.at("wallSeconds").asDouble();
                res.core = sim.stats();
            }
            {
                const Scoped save(log, "store.save", -1, job_id, w);
                results.save(spec, res);
            }
            std::lock_guard<std::mutex> lock(totals_mutex);
            ledger.modelInstructions += static_cast<double>(res.encode.instructions);
            ledger.simOps += static_cast<double>(res.core.instructions);
            ledger.readOps += static_cast<double>(info.opCount);
            ledger.traceBytes += static_cast<double>(info.fileBytes);
            ledger.traceBytesOps += static_cast<double>(info.opCount);
            ledger.storeLoads += 1;
            out[i] = res;
        });

        bool same = true;
        for (size_t i = 0; i < specs_.size(); ++i) {
            same = same && replayed_.count(i) &&
                   identical(specs_[i], out[i], replayed_.at(i));
        }
        checks.expect(same, "replay_sweep: traced pass differs from the "
                            "orchestrator's results");
        fs::remove_all(store);
    }

  private:
    const WorkDir &dir_;
    std::vector<std::string> clips_;
    std::vector<lab::JobSpec> points_;  ///< Captured encodes.
    std::vector<lab::JobSpec> specs_;   ///< Points x core profiles.
    fs::path store_;
    std::map<std::string, lab::JobResult> live_;  ///< By trace key.
    std::map<size_t, lab::JobResult> replayed_;
    size_t setupCaptures_ = 0;
};

class ServeFleet final : public Workload
{
  public:
    ServeFleet(uint64_t seed, const WorkDir &dir) : seed_(seed), dir_(dir) {}

    std::string inputKey() const override { return std::to_string(seed_); }
    /** Warm a fresh store with every cost point the SLA and fleet
     *  sweeps resolve (the traffic seed does not change them), three
     *  times; the rounds use the last store. */
    std::vector<double>
    setup() override
    {
        std::vector<double> seconds;
        for (int k = 0; k < kServeSetups; ++k) {
            const double t0 = now();
            store_ = dir_.sub("serve-" + std::to_string(k));
            lab::Orchestrator orch(orchestratorOptions(store_, kWorkers));
            const serve::ServeScenario scenario = serveScenario(seed_, 0);
            serve::runScenario(scenario, orch, kWorkers);
            serve::runFleetScenario(scenario, orch, kWorkers, {});
            seconds.push_back(now() - t0);
        }
        return seconds;
    }

    Round
    round(Checks &checks) override
    {
        const size_t jobs = 2 * kServeVariants;
        std::vector<std::string> tables(jobs);
        std::vector<double> seconds(jobs, 0.0);
        std::atomic<size_t> computed{0};
        std::atomic<size_t> failures{0};
        std::atomic<size_t> retries{0};
        std::atomic<size_t> encoder_runs{0};
        std::atomic<size_t> uploads{0};

        Round r;
        const double cpu0 = cpuSeconds();
        const double t0 = now();
        closedLoop(jobs, [&](size_t j, int) {
            const serve::ServeScenario scenario = serveScenario(seed_, j / 2);
            const double s0 = now();
            lab::Orchestrator orch(orchestratorOptions(store_, 1));
            if (j % 2 == 0) {
                const serve::ScenarioRun run =
                    serve::runScenario(scenario, orch, 1);
                tables[j] = run.table.toJson();
                uploads += run.arrivals.size() * run.reports.size();
            } else {
                const serve::FleetRun run =
                    serve::runFleetScenario(scenario, orch, 1, {});
                tables[j] = run.sweep.table.toJson() + run.sweep.verdict;
                uploads += run.arrivals.size() * run.sweep.rows.size();
            }
            seconds[j] = now() - s0;
            computed += orch.computed();
            failures += orch.failures();
            retries += orch.retries();
            encoder_runs += orch.encoderRuns();
        });
        r.wall = now() - t0;
        r.cpu = cpuSeconds() - cpu0;
        r.jobSeconds = seconds;
        r.uploads = static_cast<double>(uploads.load());
        r.retries = retries.load();
        r.encoderRuns = encoder_runs.load();
        r.digest = digestOf(tables);
        tables_ = tables;
        checks.expect(computed.load() == 0 && failures.load() == 0,
                      "serve_fleet: " + std::to_string(computed.load()) +
                          " cost points computed and " +
                          std::to_string(failures.load()) +
                          " failed in the timed phase");
        return r;
    }

    void
    traced(Ledger &ledger, Checks &checks) override
    {
        const size_t jobs = 2 * kServeVariants;
        std::vector<std::string> tables(jobs);
        std::mutex totals_mutex;
        SpanLog &log = ledger.spans;
        const lab::ResultStore results(store_.string(), nullptr);

        closedLoop(jobs, [&](size_t j, int w) {
            const serve::ServeScenario scenario = serveScenario(seed_, j / 2);
            const int job_id = static_cast<int>(j);
            const bool fleet = j % 2 == 1;
            serve::FleetConfig config;
            config.backends = backend::profileNames();
            config.serversPerMix = scenario.farm.servers;
            size_t uploads = 0;
            std::vector<lab::JobSpec> cost_specs;
            {
                const Scoped job(log, "job", -1, job_id, w);
                lab::Orchestrator orch(orchestratorOptions(store_, 1));
                std::optional<serve::CostModel> cost;
                {
                    const Scoped span(log, "serve.cost", job.id(), job_id, w);
                    lab::ServiceOptions sopts;
                    sopts.shards = scenario.farm.shards;
                    sopts.workers = 1;
                    orch.startService(sopts);
                    cost.emplace(orch, scenario.cost);
                    const std::vector<std::string> clips =
                        serve::rungClipIds(scenario.traffic);
                    if (fleet) {
                        cost->resolveOn(config.backends, clips,
                                        scenario.traffic.crfs);
                    } else {
                        cost->resolve(clips, scenario.traffic.crfs);
                    }
                    orch.stopService();
                }
                std::vector<serve::UploadJob> arrivals;
                {
                    const Scoped span(log, "serve.traffic", job.id(), job_id,
                                      w);
                    arrivals = serve::generateTraffic(scenario.traffic);
                }
                {
                    const Scoped span(log, "serve.farm", job.id(), job_id, w);
                    if (fleet) {
                        const serve::FleetSweepResult sweep = serve::fleetSweep(
                            arrivals, scenario.farm, *cost, config);
                        tables[j] = sweep.table.toJson() + sweep.verdict;
                        uploads = arrivals.size() * sweep.rows.size();
                    } else {
                        std::vector<serve::SlaReport> reports;
                        for (int preset : scenario.cost.presets) {
                            reports.push_back(
                                serve::simulateFarm(arrivals, scenario.farm,
                                                    serve::StaticPolicy(preset),
                                                    *cost)
                                    .sla);
                        }
                        reports.push_back(
                            serve::simulateFarm(arrivals, scenario.farm,
                                                serve::AdaptivePolicy(), *cost)
                                .sla);
                        tables[j] = serve::slaTable(reports).toJson();
                        uploads = arrivals.size() * reports.size();
                    }
                }
                for (const std::string &clip :
                     serve::rungClipIds(scenario.traffic)) {
                    for (int crf : scenario.traffic.crfs) {
                        for (int preset : scenario.cost.presets) {
                            cost_specs.push_back(cost->specFor(clip, crf, preset));
                        }
                    }
                }
            }
            // The store reads behind the cost resolution, priced on
            // their own: the orchestrator makes them inside serve.cost.
            size_t loads = 0;
            {
                const Scoped span(log, "store.load", -1, job_id, w);
                for (const lab::JobSpec &spec : cost_specs) {
                    loads += results.load(spec) ? 1 : 0;
                }
            }
            std::lock_guard<std::mutex> lock(totals_mutex);
            ledger.uploads += static_cast<double>(uploads);
            ledger.storeLoads += loads;
        });
        checks.expect(tables == tables_, "serve_fleet: traced pass tables "
                                         "differ from runScenario/"
                                         "runFleetScenario");
    }

  private:
    uint64_t seed_;
    const WorkDir &dir_;
    fs::path store_;
    std::vector<std::string> tables_;  ///< Last untraced round's output.
};

// ---- Driver --------------------------------------------------------------

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string ledger;  ///< ledger.json (expected digests).
    std::string work = ".bench_build/ledger-work";
    std::string spans = ".bench_build/ledger-spans";
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value);
        } else if (flag == "--trace") {
            o.trace = core::parseIntStrict(value, "--trace") != 0;
        } else if (flag == "--ledger") {
            o.ledger = value;
        } else if (flag == "--work") {
            o.work = value;
        } else if (flag == "--spans") {
            o.spans = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    return lab::JsonValue::str(s).dump();
}

std::string
hostRecord(const Options &o)
{
    std::ostringstream out;
    out << "{\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"cpu\":" << jsonString(cpuModel())
        << ",\"compiler\":" << jsonString(__VERSION__)
        << ",\"build_type\":" << jsonString(LEDGER_BUILD_TYPE)
        << ",\"workers\":" << kWorkers << ",\"workload\":"
        << jsonString(o.workload) << ",\"seed\":" << o.seed << "}";
    return out.str();
}

/** The recorded outputs for this workload's inputs, if any:
 *  {"digest", and for lab points "instructions", "bitrate_kbps",
 *  "psnr_db"}. */
std::optional<lab::JsonValue>
expectedOutputs(const Options &o, const std::string &input_key)
{
    if (o.ledger.empty()) {
        return std::nullopt;
    }
    std::ifstream in(o.ledger);
    if (!in) {
        throw std::runtime_error("cannot read " + o.ledger);
    }
    std::stringstream text;
    text << in.rdbuf();
    const lab::JsonValue doc = lab::JsonValue::parse(text.str());
    const lab::JsonValue *table = doc.at("digests").find(o.workload);
    const lab::JsonValue *outputs =
        table != nullptr ? table->find(input_key) : nullptr;
    if (outputs == nullptr) {
        return std::nullopt;
    }
    return *outputs;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += checks.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted);
    out += ", \"failed\": " + std::to_string(checks.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + value +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
run(const Options &o)
{
    std::unique_ptr<WorkDir> dir = std::make_unique<WorkDir>(o.work);
    std::unique_ptr<Workload> workload;
    if (o.workload == "cold_sweep") {
        workload = std::make_unique<ColdSweep>(*dir);
    } else if (o.workload == "replay_sweep") {
        workload = std::make_unique<ReplaySweep>(*dir);
    } else if (o.workload == "serve_fleet") {
        workload = std::make_unique<ServeFleet>(o.seed, *dir);
    } else {
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    const std::string host = hostRecord(o);
    std::printf("host: %s\n", host.c_str());
    std::printf("inputs: %s\n", workload->inputKey().c_str());
    std::fflush(stdout);

    Checks checks;
    const std::vector<double> setups = workload->setup();

    std::vector<Round> rounds;
    const double timed0 = now();
    do {
        rounds.push_back(workload->round(checks));
    } while (rounds.size() < workload->minRounds() ||
             now() - timed0 < o.seconds);

    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> job_seconds;
    std::vector<double> job_sums;
    std::vector<double> busy;
    size_t jobs_failed = 0;
    for (const Round &r : rounds) {
        walls.push_back(r.wall);
        cpus.push_back(r.cpu);
        job_seconds.insert(job_seconds.end(), r.jobSeconds.begin(),
                           r.jobSeconds.end());
        double sum = 0.0;
        for (double s : r.jobSeconds) {
            sum += s;
        }
        job_sums.push_back(sum);
        busy.push_back(sum / (kWorkers * r.wall));
        jobs_failed += r.failedJobs;
        const Summary &first = rounds.front().summary;
        checks.expect(r.digest == rounds.front().digest &&
                          r.summary.close(first.instructions,
                                          first.bitrateKbps, first.meanPsnr()),
                      "rounds disagree on the outputs");
    }
    checks.attempted += job_seconds.size() + jobs_failed;
    checks.failed += jobs_failed;

    const std::string digest = rounds.front().digest;
    const Summary &summary = rounds.front().summary;
    std::printf("digest: %s %s %s\n", o.workload.c_str(),
                workload->inputKey().c_str(), digest.c_str());
    if (summary.points > 0) {
        std::printf("summary: instructions %.17g bitrate_kbps %.17g "
                    "psnr_db %.17g\n",
                    summary.instructions, summary.bitrateKbps,
                    summary.meanPsnr());
    }
    if (std::optional<lab::JsonValue> want =
            expectedOutputs(o, workload->inputKey())) {
        const std::string recorded = want->at("digest").asString();
        checks.expect(digest == recorded, "output digest " + digest +
                                              " != recorded " + recorded);
        if (want->find("instructions") != nullptr) {
            checks.expect(summary.close(want->at("instructions").asDouble(),
                                        want->at("bitrate_kbps").asDouble(),
                                        want->at("psnr_db").asDouble()),
                          "encode summary differs from the recorded one");
        }
    } else {
        std::printf("digest: none recorded for inputs %s\n",
                    workload->inputKey().c_str());
    }

    const Round &last = rounds.back();
    const double wall = median(walls);
    const int tail = tailPercentile(job_seconds.size());
    std::printf("rounds: %zu, jobs: %zu, job_s_tail is p%d of %zu jobs\n",
                rounds.size(), job_seconds.size(), tail, job_seconds.size());

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"wall_s", wall, "s"},
            {"cpu_s", median(cpus), "s"},
            {"job_s_p50", median(job_seconds), "s"},
            {"job_s_tail", percentile(job_seconds, tail), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        Ledger ledger;
        workload->traced(ledger, checks);
        std::map<std::string, double> self = ledger.spans.selfTimes();
        const double synth = self["video.synth"];
        const double mix_only = self["encoders.mix_only"];
        const double staging = self["encode"] - mix_only;
        const double write = self["tracefile.write"];
        const double read = self["tracefile.read"];
        const double core_s = self["uarch.core"];
        const double serve_cost = self["serve.cost"];
        const double traffic = self["serve.traffic"];
        const double farm = self["serve.farm"];
        // Layers inside a job; store reads and writes happen outside
        // the orchestrator's job timer.
        const double in_jobs = synth + self["encode"] + write + read +
                               core_s + serve_cost + traffic + farm;
        const double untraced_jobs = median(job_sums);
        const double traced_jobs = ledger.spans.busy("job");
        auto per = [](double work, double seconds) {
            return seconds > 0.0 ? work / seconds : 0.0;
        };
        metrics = {
            {"video.synth_s", synth, "s"},
            {"video.synth_calls",
             static_cast<double>(ledger.spans.count("video.synth")), "count"},
            {"encoders.mix_only_s", mix_only, "s"},
            {"encoders.model_ginst", ledger.modelInstructions / 1e9, "Ginst"},
            {"encoders.minst_per_s",
             per(ledger.modelInstructions / 1e6, mix_only), "Minst/s"},
            {"probe.staging_s", mix_only > 0.0 ? staging : 0.0, "s"},
            {"probe.recorded_ops", ledger.recordedOps, "count"},
            {"probe.dropped_ops", ledger.droppedOps, "count"},
            {"tracefile.write_s", write, "s"},
            {"tracefile.bytes_per_op", per(ledger.traceBytes, ledger.traceBytesOps),
             "B/op"},
            {"tracefile.read_s", read, "s"},
            {"tracefile.read_mops", per(ledger.readOps / 1e6, read), "Mops/s"},
            {"uarch.core_s", core_s, "s"},
            {"uarch.sim_ops", ledger.simOps, "count"},
            {"uarch.core_mops", per(ledger.simOps / 1e6, core_s), "Mops/s"},
            {"store.save_s", self["store.save"], "s"},
            {"store.load_s", self["store.load"], "s"},
            {"store.loads", static_cast<double>(ledger.storeLoads), "count"},
            {"orch.busy_frac", median(busy), "frac"},
            {"orch.encoder_runs", static_cast<double>(last.encoderRuns), "count"},
            {"orch.trace_replays", static_cast<double>(last.traceReplays),
             "count"},
            {"orch.retries", static_cast<double>(last.retries), "count"},
            {"orch.failures", static_cast<double>(last.failedJobs), "count"},
            {"serve.traffic_s", traffic, "s"},
            {"serve.cost_s", serve_cost, "s"},
            {"serve.farm_s", farm, "s"},
            {"serve.uploads", ledger.uploads, "count"},
            {"trace.unattributed_s", untraced_jobs - in_jobs, "s"},
            {"trace.overhead_frac", per(traced_jobs, untraced_jobs) - 1.0,
             "frac"},
            {"run.model_minst_per_s", per(last.modelInstructions / 1e6, last.wall),
             "Minst/s"},
            {"run.sim_mops", per(last.simOps / 1e6, last.wall), "Mops/s"},
            {"run.uploads_per_s", per(last.uploads, last.wall), "1/s"},
        };
        fs::create_directories(o.spans);
        const fs::path spans_path =
            fs::path(o.spans) /
            (o.workload + "-seed" + std::to_string(o.seed) + ".jsonl");
        ledger.spans.write(spans_path, host);
        std::printf("spans: %zu written to %s; summed job seconds %.3f "
                    "untraced, %.3f traced, %.3f in layers\n",
                    ledger.spans.size(), spans_path.string().c_str(),
                    untraced_jobs, traced_jobs, in_jobs);
    }
    dir.reset();  // Remove the run's stores and traces before reporting.
    printResult(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__)
    std::fprintf(stderr, "ledger: refusing to report from an unoptimised "
                         "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    try {
        return run(parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger: %s\n", e.what());
        return 2;
    }
}
