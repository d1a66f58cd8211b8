#include "core/experiment.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "backend/profile.hpp"

namespace vepro::core
{

RunScale
RunScale::fromArgs(int argc, char **argv)
{
    RunScale scale;
    scale.suite.divisor = 8;
    scale.suite.frames = 6;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            scale.suite.divisor = 8;
            scale.suite.frames = 6;
        } else if (arg == "--full") {
            scale.suite.divisor = 4;
            scale.suite.frames = 12;
            scale.maxTraceOps = 4'000'000;
        } else if (arg == "--uncapped") {
            scale.maxTraceOps = 0;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            int jobs = parseIntStrict(arg.substr(7), "--jobs");
            if (jobs < 0) {
                throw std::invalid_argument("--jobs must be >= 0");
            }
            scale.jobs = resolveJobs(jobs);  // 0 = auto-detect
        } else if (arg.rfind("--backend=", 0) == 0) {
            scale.backend = arg.substr(10);
            if (scale.backend.empty()) {
                throw std::invalid_argument("--backend expects a name");
            }
            // Validate at parse time so typos and fixed-function
            // profiles fail before any encode.
            backend::coreConfigFor(scale.backend);
        } else if (arg == "--no-cache") {
            scale.noCache = true;
        } else if (arg.rfind("--store=", 0) == 0) {
            scale.storeDir = arg.substr(8);
            if (scale.storeDir.empty()) {
                throw std::invalid_argument("--store expects a directory");
            }
        } else if (arg.rfind("--videos=", 0) == 0) {
            // An empty name (--videos=, or desktop,,cat) is an error:
            // an empty list would silently select the whole suite. So is
            // a name outside the suite, before any work starts.
            const std::string list = arg.substr(9);
            size_t pos = 0;
            while (pos <= list.size()) {
                size_t comma = list.find(',', pos);
                if (comma == std::string::npos) {
                    comma = list.size();
                }
                if (comma == pos) {
                    throw std::invalid_argument(
                        "--videos expects comma-separated clip names, "
                        "got '" + list + "'");
                }
                scale.videos.push_back(list.substr(pos, comma - pos));
                try {
                    video::suiteEntry(scale.videos.back());
                } catch (const std::out_of_range &) {
                    throw std::invalid_argument("--videos: unknown clip '" +
                                                scale.videos.back() + "'");
                }
                pos = comma + 1;
            }
        } else if (arg.rfind("--benchmark", 0) == 0) {
            // Google-benchmark flags pass through untouched.
        } else {
            throw std::invalid_argument("unknown argument: " + arg);
        }
    }
    return scale;
}

namespace
{

/** from_chars over the whole of @p text, or an error naming @p flag
 *  and @p what it expects. Partial consumption ("4abc") is as wrong as
 *  no digits at all: std::stoi and friends would silently accept it. */
template <typename T>
T
parseWhole(const std::string &text, const std::string &flag,
           const char *what)
{
    T value{};
    const char *last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || ptr != last || text.empty()) {
        throw std::invalid_argument(flag + " expects " + what + ", got '" +
                                    text + "'");
    }
    return value;
}

} // namespace

int
parseIntStrict(const std::string &text, const std::string &flag)
{
    return parseWhole<int>(text, flag, "an integer");
}

uint64_t
parseU64Strict(const std::string &text, const std::string &flag)
{
    return parseWhole<uint64_t>(text, flag, "a non-negative integer");
}

double
parseDoubleStrict(const std::string &text, const std::string &flag)
{
    const double value = parseWhole<double>(text, flag, "a finite number");
    if (!std::isfinite(value)) {
        throw std::invalid_argument(flag + " expects a finite number, got '" +
                                    text + "'");
    }
    return value;
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
    pc.collectOps = true;
    if (scale.maxTraceOps == 0) {
        pc.maxOps = std::numeric_limits<size_t>::max();
        pc.opWindow = 1;
        pc.opInterval = 1;  // opWindow >= opInterval: record everything.
    } else {
        pc.maxOps = scale.maxTraceOps;
        pc.opWindow = 150'000;
        pc.opInterval = 600'000;
    }
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
                                      false, &sink);
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
