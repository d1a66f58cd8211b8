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

#include "lab/json.hpp"

namespace vepro::lab
{

namespace fs = std::filesystem;

namespace
{

/** Every field of the canonical key, by the key's own rules (the
 *  backend, the rung and the encode-only marker only when they enter
 *  it), so the echo names the same point as the record's key. */
JsonValue
specToJson(const JobSpec &spec)
{
    JsonValue obj = JsonValue::object();
    obj.set("encoder", JsonValue::str(spec.encoder))
        .set("video", JsonValue::str(spec.video))
        .set("crf", JsonValue::number(spec.crf))
        .set("preset", JsonValue::number(spec.preset))
        .set("threads", JsonValue::number(1))
        .set("divisor", JsonValue::number(spec.divisor))
        .set("frames", JsonValue::number(spec.frames))
        .set("maxTraceOps",
             JsonValue::number(spec.encodeOnly ? 0 : spec.maxTraceOps));
    if (spec.keysBackend()) {
        obj.set("backend", JsonValue::str(spec.backend));
    }
    if (spec.scale != 1) {
        obj.set("scale", JsonValue::number(spec.scale));
    }
    if (spec.encodeOnly) {
        obj.set("encodeOnly", JsonValue::number(1));
    }
    return obj;
}

/** Append every field of @p s to @p obj, in the struct's list order:
 *  a number, or an array of numbers for a list. */
template <class T>
void
fieldsToJson(const T &s, JsonValue &obj)
{
    T::forEachField(
        [&](const char *name, const auto &v) {
            if constexpr (std::is_arithmetic_v<
                              std::remove_cvref_t<decltype(v)>>) {
                obj.set(name, JsonValue::number(v));
            } else {
                JsonValue array = JsonValue::array();
                for (uint64_t item : v) {
                    array.push(JsonValue::number(item));
                }
                obj.set(name, std::move(array));
            }
        },
        s);
}

/** Read every field fieldsToJson wrote; a fixed-size list must hold
 *  exactly its size. @throws JsonError. */
template <class T>
T
fieldsFromJson(const JsonValue &obj)
{
    T s;
    T::forEachField(
        [&](const char *name, auto &v) {
            using V = std::remove_cvref_t<decltype(v)>;
            if constexpr (std::is_same_v<V, double>) {
                v = obj.at(name).asDouble();
            } else if constexpr (std::is_same_v<V, uint64_t>) {
                v = obj.at(name).asU64();
            } else {
                const std::vector<JsonValue> &items = obj.at(name).items();
                if constexpr (std::is_same_v<V, std::vector<uint64_t>>) {
                    v.resize(items.size());
                } else if (items.size() != v.size()) {
                    throw JsonError(std::string(name) + " holds " +
                                    std::to_string(items.size()) +
                                    " entries, not " +
                                    std::to_string(v.size()));
                }
                for (size_t i = 0; i < v.size(); ++i) {
                    v[i] = items[i].asU64();
                }
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
        warnCorruptEntry(progress_, path, e.what());
        return std::nullopt;
    }
}

std::string
uniqueTmpPath(const std::string &path)
{
    static std::atomic<uint64_t> counter{0};
#ifdef _WIN32
    const long pid = _getpid();
#else
    const long pid = static_cast<long>(::getpid());
#endif
    return path + "." + std::to_string(pid) + "-" +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
           ".tmp";
}

void
warnCorruptEntry(Progress *progress, const std::string &path,
                 const std::string &error)
{
    if (progress) {
        progress->linef(
            "  warning: corrupt or stale cache entry %s (%s) — recomputing",
            path.c_str(), error.c_str());
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

    const std::string path = pathFor(spec);
    const std::string tmp = uniqueTmpPath(path);
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
