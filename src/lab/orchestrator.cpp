#include "lab/orchestrator.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "encoders/registry.hpp"
#include "lab/json.hpp"
#include "sched/scheduler.hpp"
#include "trace/trace_io.hpp"
#include "video/scale.hpp"
#include "video/suite.hpp"

namespace vepro::lab
{

namespace
{

/** Copy the encode-side numbers a figure consumes into a JobResult,
 *  with the makespan curve of the encode's task graph. */
void
fillEncodeSummary(JobResult &result, const encoders::EncodeResult &enc)
{
    result.encode.wallSeconds = enc.wallSeconds;
    result.encode.instructions = enc.instructions;
    result.encode.bitrateKbps = enc.bitrateKbps;
    result.encode.psnrDb = enc.psnrDb;
    result.encode.droppedOps = enc.droppedOps;
    result.encode.makespans = sched::makespanCurve(enc.taskGraph);
    result.encode.mix = enc.mix;
}

} // namespace

OrchestratorOptions
OrchestratorOptions::fromRunScale(const core::RunScale &scale)
{
    OrchestratorOptions opts;
    opts.jobs = scale.jobs;
    opts.useCache = !scale.noCache;
    opts.storeDir = scale.storeDir;
    return opts;
}

Orchestrator::Orchestrator(OrchestratorOptions opts)
    : opts_(std::move(opts)), store_(opts_.storeDir, opts_.progress),
      traceCache_(opts_.storeDir + "/traces", opts_.progress)
{
}

size_t
Orchestrator::request(const JobSpec &spec)
{
    std::string key = spec.canonicalKey();
    auto it = byKey_.find(key);
    if (it != byKey_.end()) {
        return it->second;
    }
    size_t handle = jobs_.size();
    jobs_.push_back(spec);
    results_.push_back(nullptr);
    byKey_.emplace(std::move(key), handle);
    return handle;
}

std::string
Orchestrator::clipKey(const JobSpec &spec)
{
    std::string key = spec.video + "/" + std::to_string(spec.divisor) +
                      "x" + std::to_string(spec.frames);
    // Ladder rungs load a further-downscaled copy: distinct slot, and
    // scale == 1 keeps the exact pre-ladder key.
    if (spec.scale != 1) {
        key += "/s" + std::to_string(spec.scale);
    }
    return key;
}

std::shared_ptr<const video::Video>
Orchestrator::acquireClip(const JobSpec &spec)
{
    ClipSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> map_lock(clips_mutex_);
        slot = clips_.at(clipKey(spec)).get();
    }
    std::lock_guard<std::mutex> lock(slot->mutex);
    if (!slot->clip) {
        core::RunScale scale = spec.toRunScale();
        video::Video clip = video::loadSuiteVideo(spec.video, scale.suite);
        if (spec.scale != 1) {
            clip = video::downscaleVideo(clip, spec.scale);
        }
        slot->clip =
            std::make_shared<const video::Video>(std::move(clip));
    }
    return slot->clip;
}

void
Orchestrator::releaseClip(const JobSpec &spec)
{
    ClipSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> map_lock(clips_mutex_);
        slot = clips_.at(clipKey(spec)).get();
    }
    std::lock_guard<std::mutex> lock(slot->mutex);
    if (slot->remaining > 0 && --slot->remaining == 0) {
        // Last pending point for this clip: free the frames now
        // instead of at end of sweep (outstanding shared_ptr copies
        // keep it alive until their jobs finish).
        slot->clip.reset();
    }
}

void
Orchestrator::prepareMiss(const JobSpec &spec)
{
    if (opts_.runner) {
        return;  // The test runner brings its own inputs.
    }
    if (!encoders_.count(spec.encoder)) {
        encoders_.emplace(spec.encoder,
                          encoders::encoderByName(spec.encoder));
    }
    std::lock_guard<std::mutex> map_lock(clips_mutex_);
    auto &slot = clips_[clipKey(spec)];
    if (!slot) {
        slot = std::make_unique<ClipSlot>();
    }
    ++slot->remaining;
}

JobResult
Orchestrator::execute(const JobSpec &spec)
{
    if (opts_.runner) {
        return opts_.runner(spec);
    }
    // Every capped point goes through the trace cache: a capture
    // holds the probe's own blocks (one staging rule cuts them), so a
    // replay simulates exactly what the live encode would. An uncapped
    // point streams its whole run (hundreds of MB a point) and replays
    // no faster than it re-encodes, so it is never captured; the result
    // store still serves and saves it.
    // An encode-only point has no core to feed, so it has no trace to
    // write either.
    if (!opts_.useCache || spec.maxTraceOps == 0 || spec.encodeOnly) {
        return executeDirect(spec);
    }

    TraceCache::Lease lease = traceCache_.begin(spec);
    if (lease.hit) {
        try {
            JobResult result = replayTrace(spec, lease.path);
            traceCache_.commit(lease);
            return result;
        } catch (const std::exception &e) {
            // Same policy as the result store: warn, drop the corrupt
            // entry, recompute. recapture() keeps the per-key lease so
            // no other worker can race the re-capture.
            traceCache_.recapture(lease, e.what());
        }
    }
    try {
        JobResult result = captureTrace(spec, lease);
        traceCache_.commit(lease);
        return result;
    } catch (...) {
        traceCache_.abort(lease);
        throw;
    }
}

JobResult
Orchestrator::executeDirect(const JobSpec &spec)
{
    // prepareMiss filled encoders_ before the workers started, so
    // they only read it.
    const encoders::EncoderModel &encoder = *encoders_.at(spec.encoder);
    std::shared_ptr<const video::Video> clip = acquireClip(spec);
    encoderRuns_.fetch_add(1, std::memory_order_relaxed);
    JobResult result;
    if (spec.encodeOnly) {
        encoders::EncodeParams params;
        params.crf = spec.crf;
        params.preset = spec.preset;
        fillEncodeSummary(result, encoder.encode(*clip, params, {},
                                                 /*build_tasks=*/true));
    } else {
        core::SweepPoint point = core::runPoint(
            encoder, *clip, spec.crf, spec.preset, spec.toRunScale());
        fillEncodeSummary(result, point.encode);
        result.core = point.core;
    }
    clip.reset();
    releaseClip(spec);
    return result;
}

JobResult
Orchestrator::replayTrace(const JobSpec &spec, const std::string &path)
{
    trace::TraceFileInfo info;
    JobResult result;
    result.core =
        core::simulate(spec.toRunScale(), [&](trace::TraceSink &sim) {
            info = trace::FileSource(path).replay(sim);
        });

    // The encode-side numbers ride in the trace metadata (written by
    // captureTrace). Any parse failure or key mismatch throws, which
    // the caller treats as a corrupt trace.
    JsonValue meta = JsonValue::parse(info.metadata);
    if (meta.at("traceKey").asString() != spec.traceKey()) {
        throw std::runtime_error(
            "trace metadata key mismatch (hash collision or renamed "
            "field without a version bump)");
    }
    result.encode = summaryFromJson(meta);
    traceReplays_.fetch_add(1, std::memory_order_relaxed);
    // The replayed job never touched the clip, but prepareMiss pinned
    // it; release our reference so an all-replay sweep decodes nothing
    // and frees eagerly.
    releaseClip(spec);
    return result;
}

JobResult
Orchestrator::captureTrace(const JobSpec &spec,
                           const TraceCache::Lease &lease)
{
    const encoders::EncoderModel &encoder = *encoders_.at(spec.encoder);
    encoders::EncodeParams params;
    params.crf = spec.crf;
    params.preset = spec.preset;
    const core::RunScale scale = spec.toRunScale();

    // One encode feeds BOTH the live core model and the on-disk
    // capture: the FileSink sees byte-for-byte the stream the core
    // simulates, which is what makes later replays bit-identical.
    trace::FileSink file(lease.tmpPath);
    file.deferSeal(true);  // metadata is only known after the encode
    encoders::EncodeResult enc;
    JobResult result;
    result.core = core::simulate(scale, [&](trace::TraceSink &sim) {
        trace::MuxSink mux{&file, &sim};
        std::shared_ptr<const video::Video> clip = acquireClip(spec);
        encoderRuns_.fetch_add(1, std::memory_order_relaxed);
        enc = encoder.encode(*clip, params, core::tracingConfig(scale),
                             /*build_tasks=*/true, &mux);
        clip.reset();
        releaseClip(spec);
    });
    fillEncodeSummary(result, enc);

    JsonValue meta = JsonValue::object();
    meta.set("traceKey", JsonValue::str(spec.traceKey()));
    summaryToJson(result.encode, meta);
    file.setMetadata(meta.dump());
    file.seal();
    traceCaptures_.fetch_add(1, std::memory_order_relaxed);
    return result;
}

JobResult
Orchestrator::executeWithRetry(const JobSpec &spec,
                               std::atomic<size_t> &retried)
{
    JobResult result;
    auto attempt = [&] {
        auto t0 = std::chrono::steady_clock::now();
        result = execute(spec);
        result.jobSeconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    };
    auto describe = [](std::exception_ptr err) -> std::string {
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            return e.what();
        } catch (...) {
            return "unknown error";
        }
    };
    try {
        attempt();
        return result;
    } catch (...) {
        retried.fetch_add(1, std::memory_order_relaxed);
        if (opts_.progress) {
            opts_.progress->linef(
                "  warning: %s failed (%s) — retrying once",
                spec.label().c_str(),
                describe(std::current_exception()).c_str());
        }
    }
    try {
        attempt();
        return result;
    } catch (...) {
        // Second failure: record it instead of aborting — a long sweep
        // must never lose completed work to one bad spec.
        result = JobResult{};
        result.failed = true;
        result.error = describe(std::current_exception());
        if (opts_.progress) {
            opts_.progress->linef(
                "  warning: %s failed twice (%s) — recorded as failed",
                spec.label().c_str(), result.error.c_str());
        }
        return result;
    }
}

void
Orchestrator::run()
{
    // Phase 1 — resolve from the store (serial: cheap file reads).
    std::vector<size_t> pending;
    std::vector<size_t> resolved;  ///< Everything this call settles.
    for (size_t i = 0; i < jobs_.size(); ++i) {
        if (results_[i]) {
            continue;
        }
        resolved.push_back(i);
        if (opts_.useCache) {
            if (std::optional<JobResult> hit = store_.load(jobs_[i])) {
                results_[i] = std::make_unique<JobResult>(*hit);
                ++cacheHits_;
                continue;
            }
        }
        pending.push_back(i);
    }

    // Phase 2 — prepare shared state for the misses: encoder models
    // and per-clip refcount slots (only misses pin a clip; a fully
    // cached run never decodes anything).
    for (size_t i : pending) {
        prepareMiss(jobs_[i]);
    }

    // Phase 3 — run the unique misses on the worker pool. A job that
    // throws twice is recorded as failed; the sweep keeps draining.
    std::atomic<size_t> done{0};
    std::atomic<size_t> retried{0};
    std::atomic<size_t> newly_failed{0};
    const size_t total = pending.size();
    core::parallelFor(total, opts_.jobs, [&](size_t p) {
        const JobSpec &spec = jobs_[pending[p]];
        JobResult result = executeWithRetry(spec, retried);
        if (result.failed) {
            newly_failed.fetch_add(1, std::memory_order_relaxed);
        } else {
            result.fromCache = false;
            store_.save(spec, result);
        }
        size_t k = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opts_.verbose && opts_.progress && !result.failed) {
            opts_.progress->linef("  [%zu/%zu] %s — %.2fs", k, total,
                                  spec.label().c_str(), result.jobSeconds);
        }
        results_[pending[p]] = std::make_unique<JobResult>(std::move(result));
    });
    failures_ += newly_failed.load();
    computed_ += total - newly_failed.load();
    retries_ += retried.load();

    // Probe-cap warnings for everything resolved in this run, cached
    // or fresh — capped data under-represents the run either way. Like
    // the per-job lines, only when verbose: vepro-serve caps its cost
    // specs on purpose.
    if (opts_.verbose && opts_.progress) {
        for (size_t i : resolved) {
            const JobResult &r = *results_[i];
            if (!r.failed && r.encode.droppedOps > 0) {
                opts_.progress->linef(
                    "  warning: %s hit the op cap (%llu ops dropped) — "
                    "pass --uncapped for full fidelity",
                    jobs_[i].label().c_str(),
                    static_cast<unsigned long long>(r.encode.droppedOps));
            }
        }
    }
}

// ---- Results ---------------------------------------------------------

const JobResult &
Orchestrator::lookup(size_t handle, const char *caller) const
{
    if (handle >= results_.size()) {
        throw std::out_of_range("lab: bad job handle");
    }
    if (!results_[handle]) {
        throw std::logic_error(std::string("lab: ") + caller +
                               " before run()");
    }
    return *results_[handle];
}

const JobResult &
Orchestrator::result(size_t handle) const
{
    const JobResult &result = lookup(handle, "result()");
    if (result.failed) {
        throw std::runtime_error("lab: job failed: " + result.error);
    }
    return result;
}

bool
Orchestrator::failed(size_t handle) const
{
    return lookup(handle, "failed()").failed;
}

const std::string &
Orchestrator::error(size_t handle) const
{
    return lookup(handle, "error()").error;
}

std::string
Orchestrator::summaryLine() const
{
    const size_t n = jobs_.size();
    const double pct =
        n ? 100.0 * static_cast<double>(cacheHits_) / static_cast<double>(n)
          : 100.0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%zu unique jobs, %zu cache hits, %zu computed "
                  "(cache hits: %.1f%%)",
                  n, cacheHits_, computed_, pct);
    std::string line = buf;
    if (failures_ > 0) {
        line += ", " + std::to_string(failures_) + " failed";
    }
    return line;
}

std::string
Orchestrator::traceLine() const
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "encoder invoked %zu times (%zu trace captures, "
                  "%zu trace replays)",
                  encoderRuns_.load(), traceCaptures_.load(),
                  traceReplays_.load());
    return buf;
}

} // namespace vepro::lab
