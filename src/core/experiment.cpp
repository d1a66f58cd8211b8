#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "backend/profile.hpp"

namespace vepro::core
{

FlagTable
RunScale::flags(RunScale &out, const std::vector<std::string> &reads)
{
    std::vector<std::string> clips;
    for (const video::SuiteEntry &entry : video::vbenchMini()) {
        clips.push_back(entry.name);
    }
    // Fixed-function profiles (hw-enc) have no core to simulate.
    std::vector<std::string> cores;
    for (const std::string &name : backend::profileNames()) {
        if (backend::profile(name).kind == backend::Kind::Core) {
            cores.push_back(name);
        }
    }
    using enum FlagKind;
    FlagTable table{.program = "bench", .rows = {
        {.name = "quick", .excludes = {"full"},
         .help = "1/8-scale clips, 6 frames, 1.2 M-op trace cap (default)",
         .set = [](auto &) {}},
        {.name = "full", .help = "1/4-scale clips, 12 frames, 4 M-op cap",
         .set = [&out](auto &) {
             out.suite = {4, 12};
             out.maxTraceOps = 4'000'000;
         }},
        {.name = "uncapped", .help = "simulate every op: no sampling, no cap",
         .set = [&out](auto &) { out.maxTraceOps = 0; }},
        {.name = "videos", .kind = List, .metavar = "a,b,c", .choices = clips,
         .help = "the clips to run", .set = to(out.videos)},
        {.name = "jobs", .kind = Int, .metavar = "N", .min = 0,
         .help = "worker threads (0 = one per hardware thread)",
         .set = [&out](auto &v) { out.jobs = resolveJobs(std::get<int>(v)); }},
        {.name = "backend", .kind = String, .metavar = "NAME", .choices = cores,
         .help = "machine profile to simulate", .set = to(out.backend)},
        {.name = "no-cache", .help = "recompute every point into the store",
         .set = to(out.noCache)},
        {.name = "store", .kind = String, .metavar = "DIR",
         .help = "result store directory", .set = to(out.storeDir)},
    }};
    std::erase_if(table.rows, [&reads](const Flag &flag) {
        return !reads.empty() && std::find(reads.begin(), reads.end(),
                                           flag.name) == reads.end();
    });
    if (!reads.empty() && table.rows.size() != reads.size()) {
        throw std::logic_error("RunScale: a read names no RunScale flag");
    }
    return table;
}

RunScale
RunScale::fromArgs(int argc, char **argv,
                   const std::vector<std::string> &reads)
{
    std::vector<std::string> all = {"quick", "full"};
    all.insert(all.end(), reads.begin(), reads.end());
    RunScale scale;
    FlagTable table = flags(scale, all);
    table.program = argv[0];
    parseFlagsOrExit(table, argc, argv);
    return scale;
}

const std::vector<int> &
crfSweepAv1()
{
    static const std::vector<int> sweep = {10, 20, 30, 40, 50, 60};
    return sweep;
}

int
mapCrfToX26x(int crf_av1)
{
    return crf_av1 * 51 / 63;
}

trace::ProbeConfig
tracingConfig(const RunScale &scale)
{
    trace::ProbeConfig pc;
    pc.ops = scale.maxTraceOps == 0
                 ? trace::SamplePlan::all()
                 : trace::SamplePlan::windows(150'000, 600'000,
                                              scale.maxTraceOps);
    return pc;
}

uarch::CoreStats
simulate(const RunScale &scale,
         const std::function<void(trace::TraceSink &)> &feed)
{
    uarch::StreamCore sim(backend::coreConfigFor(scale.backend));
    feed(sim);
    sim.flush();
    return sim.stats();
}

SweepPoint
runPoint(const encoders::EncoderModel &encoder, const video::Video &clip,
         int crf, int preset, const RunScale &scale)
{
    encoders::EncodeParams params;
    params.crf = crf;
    params.preset = preset;

    SweepPoint point;
    point.core = simulate(scale, [&](trace::TraceSink &sink) {
        point.encode = encoder.encode(clip, params, tracingConfig(scale),
                                      /*build_tasks=*/true, &sink);
    });
    return point;
}

std::vector<SweepPoint>
runPointMulti(const encoders::EncoderModel &encoder, const video::Video &clip,
              int crf, int preset, const RunScale &scale,
              const std::vector<uarch::CoreConfig> &configs)
{
    if (configs.empty()) {
        return {};
    }
    encoders::EncodeParams params;
    params.crf = crf;
    params.preset = preset;

    std::vector<std::unique_ptr<uarch::StreamCore>> cores;
    trace::MuxSink mux;
    for (const uarch::CoreConfig &cfg : configs) {
        cores.push_back(std::make_unique<uarch::StreamCore>(cfg));
        mux.add(cores.back().get());
    }
    encoders::EncodeResult enc =
        encoder.encode(clip, params, tracingConfig(scale), false, &mux);

    std::vector<SweepPoint> points(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        points[i].encode = enc;  // one encode serves every config
        points[i].core = cores[i]->stats();
    }
    return points;
}

int
resolveJobs(int jobs)
{
    if (jobs >= 1) {
        return jobs;
    }
    unsigned detected = std::thread::hardware_concurrency();
    return detected > 0 ? static_cast<int>(detected) : 1;
}

void
parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn)
{
    if (jobs <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }
    size_t workers = std::min(static_cast<size_t>(jobs), n);
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            while (!failed.load(std::memory_order_relaxed)) {
                size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n) {
                    return;
                }
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error) {
                        error = std::current_exception();
                    }
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        });
    }
    for (std::thread &t : pool) {
        t.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

std::vector<video::SuiteEntry>
selectedVideos(const RunScale &scale)
{
    if (scale.videos.empty()) {
        return video::vbenchMini();
    }
    std::vector<video::SuiteEntry> out;
    for (const std::string &name : scale.videos) {
        out.push_back(video::suiteEntry(name));
    }
    return out;
}

} // namespace vepro::core
