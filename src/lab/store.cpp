#include "lab/store.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "backend/profile.hpp"
#include "lab/json.hpp"

namespace vepro::lab
{

namespace fs = std::filesystem;

namespace
{

JsonValue
specToJson(const JobSpec &spec)
{
    JsonValue obj = JsonValue::object();
    obj.set("encoder", JsonValue::str(spec.encoder))
        .set("video", JsonValue::str(spec.video))
        .set("crf", JsonValue::number(spec.crf))
        .set("preset", JsonValue::number(spec.preset))
        .set("threads", JsonValue::number(spec.threads))
        .set("divisor", JsonValue::number(spec.divisor))
        .set("frames", JsonValue::number(spec.frames))
        .set("maxTraceOps", JsonValue::number(spec.maxTraceOps));
    // Echoed only when it is part of the identity (the canonical key
    // carries the same rule), so default-backend records keep the exact
    // pre-backend byte layout.
    if (!spec.backend.empty() && spec.backend != backend::kDefaultProfile) {
        obj.set("backend", JsonValue::str(spec.backend));
    }
    return obj;
}

/** Append every field of @p s to @p obj, in the struct's list order. */
template <class T>
void
fieldsToJson(const T &s, JsonValue &obj)
{
    T::forEachField(
        [&](const char *name, const auto &v) {
            obj.set(name, JsonValue::number(v));
        },
        s);
}

/** Read every field fieldsToJson wrote. @throws JsonError. */
template <class T>
T
fieldsFromJson(const JsonValue &obj)
{
    T s;
    T::forEachField(
        [&](const char *name, auto &v) {
            if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                         double>) {
                v = obj.at(name).asDouble();
            } else {
                v = obj.at(name).asU64();
            }
        },
        s);
    return s;
}

} // namespace

void
summaryToJson(const EncodeSummary &s, JsonValue &obj)
{
    fieldsToJson(s, obj);
}

EncodeSummary
summaryFromJson(const JsonValue &obj)
{
    return fieldsFromJson<EncodeSummary>(obj);
}

ResultStore::ResultStore(std::string dir, Progress *progress)
    : dir_(std::move(dir)), progress_(progress)
{
}

std::string
ResultStore::pathFor(const JobSpec &spec) const
{
    return (fs::path(dir_) / (spec.hashHex() + ".json")).string();
}

std::optional<JobResult>
ResultStore::load(const JobSpec &spec) const
{
    const std::string path = pathFor(spec);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;  // Plain miss: nothing cached yet.
    }
    std::ostringstream text;
    text << in.rdbuf();

    try {
        JsonValue root = JsonValue::parse(text.str());
        if (root.at("schema").asInt() != kSchemaVersion) {
            throw JsonError("schema version mismatch");
        }
        if (root.at("key").asString() != spec.canonicalKey()) {
            // 64-bit hash collision or a renamed field without a
            // schema bump — either way this record is someone else's.
            throw JsonError("canonical key mismatch");
        }
        const JsonValue &res = root.at("result");
        JobResult result;
        result.encode = summaryFromJson(res);
        result.core = fieldsFromJson<uarch::CoreStats>(res.at("core"));
        result.jobSeconds = res.at("jobSeconds").asDouble();
        result.fromCache = true;
        return result;
    } catch (const std::exception &e) {
        if (progress_) {
            progress_->linef(
                "  warning: corrupt or stale cache entry %s (%s) — "
                "recomputing",
                path.c_str(), e.what());
        }
        return std::nullopt;
    }
}

void
ResultStore::save(const JobSpec &spec, const JobResult &result) const
{
    fs::create_directories(dir_);

    JsonValue core = JsonValue::object();
    fieldsToJson(result.core, core);
    JsonValue res = JsonValue::object();
    summaryToJson(result.encode, res);
    res.set("core", std::move(core))
        .set("jobSeconds", JsonValue::number(result.jobSeconds));

    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue::number(kSchemaVersion))
        .set("key", JsonValue::str(spec.canonicalKey()))
        .set("spec", specToJson(spec))
        .set("result", std::move(res));

    // The tmp name must be unique per writer: two processes (e.g.
    // vepro-serve and vepro-lab sharing one store) or two worker
    // threads saving the same key concurrently would otherwise write
    // through ONE "<path>.tmp", interleaving truncations with renames —
    // a reader could then see a half-written record published, or a
    // writer could throw when its tmp was renamed away underneath it.
    // pid disambiguates processes, the counter disambiguates threads;
    // both renames then publish a complete record and last-rename-wins.
    static std::atomic<uint64_t> tmp_counter{0};
#ifdef _WIN32
    const long pid = _getpid();
#else
    const long pid = static_cast<long>(::getpid());
#endif
    const std::string path = pathFor(spec);
    const std::string tmp = path + "." + std::to_string(pid) + "-" +
                            std::to_string(tmp_counter.fetch_add(
                                1, std::memory_order_relaxed)) +
                            ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw std::runtime_error("lab: cannot write " + tmp);
        }
        out << root.dump(2) << "\n";
        out.flush();
        if (!out) {
            throw std::runtime_error("lab: short write to " + tmp);
        }
    }
    // Atomic publish: readers see the old record or the new one, never
    // a partial file.
    fs::rename(tmp, path);
}

} // namespace vepro::lab
