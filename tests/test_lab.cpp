/**
 * @file
 * Unit tests for the vepro::lab subsystem: JobSpec hashing, the JSON
 * round-trip, the persistent result store's durability contract
 * (atomic writes, corrupt-entry recovery, schema staleness), and the
 * orchestrator's dedupe / cache / retry / parallel behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <thread>

#include "core/fnv.hpp"
#include "encoders/registry.hpp"
#include "lab/figures.hpp"
#include "lab/json.hpp"
#include "lab/orchestrator.hpp"
#include "lab/store.hpp"
#include "print_results.hpp"
#include "trace/probe.hpp"
#include "trace/trace_io.hpp"
#include "video/suite.hpp"

namespace vepro::lab
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test store directory under the test tmp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vepro_lab_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

JobSpec
makeSpec(int crf = 30)
{
    JobSpec spec;
    spec.encoder = "SVT-AV1";
    spec.video = "game1";
    spec.crf = crf;
    spec.preset = 4;
    spec.threads = 1;
    spec.divisor = 8;
    spec.frames = 6;
    spec.maxTraceOps = 1'200'000;
    return spec;
}

JobResult
makeResult(int crf)
{
    JobResult r;
    r.encode.wallSeconds = 1.25 + crf;
    r.encode.instructions = 1'000'000ull + static_cast<uint64_t>(crf);
    r.encode.bitrateKbps = 431.0625;
    r.encode.psnrDb = 38.875;
    r.encode.droppedOps = 7;
    r.core.cycles = 500'000ull + static_cast<uint64_t>(crf);
    r.core.instructions = r.encode.instructions;
    r.core.slots.retiring = 11;
    r.core.slots.badSpec = 22;
    r.core.slots.frontend = 33;
    r.core.slots.backend = 44;
    r.core.slots.backendMemory = 30;
    r.core.slots.backendCore = 14;
    r.core.stalls.rs = 1;
    r.core.stalls.rob = 2;
    r.core.stalls.loadBuf = 3;
    r.core.stalls.storeBuf = 4;
    r.core.condBranches = 123'456;
    r.core.mispredicts = 789;
    r.core.l1iMisses = 10;
    r.core.l1dAccesses = 20;
    r.core.l1dMisses = 30;
    r.core.l2Misses = 40;
    r.core.llcMisses = 50;
    r.core.invalidations = 60;
    r.jobSeconds = 2.5;
    return r;
}

TEST(JobSpecHash, CanonicalKeyIsStableAndComplete)
{
    EXPECT_EQ(makeSpec().canonicalKey(),
              "encoder=SVT-AV1;video=game1;crf=30;preset=4;threads=1;"
              "divisor=8;frames=6;maxTraceOps=1200000");
}

TEST(JobSpecHash, DefaultBackendKeepsThePreBackendKey)
{
    // The compatibility contract (ISSUE 8): both the empty backend and
    // an explicit default-profile name hash exactly like specs from
    // before the field existed, so warm stores stay warm. Only a
    // genuinely different machine re-keys the point.
    const JobSpec base = makeSpec();
    JobSpec explicit_default = makeSpec();
    explicit_default.backend = "xeon-bdw";
    EXPECT_EQ(explicit_default.canonicalKey(), base.canonicalKey());
    EXPECT_EQ(explicit_default.hash(), base.hash());
    EXPECT_EQ(base.canonicalKey().find("backend"), std::string::npos);

    JobSpec arm = makeSpec();
    arm.backend = "graviton-like";
    EXPECT_NE(arm.hash(), base.hash());
    EXPECT_EQ(arm.canonicalKey(),
              base.canonicalKey() + ";backend=graviton-like");
    EXPECT_NE(arm.label().find("backend=graviton-like"), std::string::npos);
    EXPECT_EQ(base.label().find("backend"), std::string::npos);
}

TEST(JobSpecHash, DefaultScaleKeepsThePreLadderKey)
{
    // Same append-only contract for the ladder rung (ISSUE 10): a
    // scale-1 spec hashes byte-identically to specs from before the
    // field existed — every store and trace written by earlier versions
    // stays warm. Only a real rung (scale > 1) re-keys, and it re-keys
    // BOTH identities: a downscaled input is a different op stream, so
    // unlike backend/segments the rung is part of traceKey too.
    const JobSpec base = makeSpec();
    EXPECT_EQ(base.scale, 1);
    EXPECT_EQ(base.canonicalKey(),
              "encoder=SVT-AV1;video=game1;crf=30;preset=4;threads=1;"
              "divisor=8;frames=6;maxTraceOps=1200000");
    EXPECT_EQ(base.canonicalKey().find("scale"), std::string::npos);
    EXPECT_EQ(base.traceKey().find("scale"), std::string::npos);
    EXPECT_EQ(base.label().find("scale"), std::string::npos);

    JobSpec rung = makeSpec();
    rung.scale = 2;
    EXPECT_NE(rung.hash(), base.hash());
    EXPECT_EQ(rung.canonicalKey(), base.canonicalKey() + ";scale=2");
    EXPECT_EQ(rung.traceKey(), base.traceKey() + ";scale=2");
    EXPECT_NE(rung.label().find("scale=1/2"), std::string::npos);

    // The rung suffix composes after the backend suffix, so a
    // backend-swept rung point keeps one canonical ordering.
    JobSpec both = makeSpec();
    both.backend = "graviton-like";
    both.scale = 4;
    EXPECT_EQ(both.canonicalKey(),
              base.canonicalKey() + ";backend=graviton-like;scale=4");
    // ...but the trace identity ignores the machine: one captured rung
    // trace replays across every backend.
    EXPECT_EQ(both.traceKey(), base.traceKey() + ";scale=4");
}

TEST(JobSpecHash, BackendRoundTripsThroughRunScale)
{
    JobSpec spec = makeSpec();
    spec.backend = "graviton-like";
    const core::RunScale scale = spec.toRunScale();
    EXPECT_EQ(scale.backend, "graviton-like");
    EXPECT_EQ(JobSpec::withScale(scale).backend, "graviton-like");
}

TEST(JobSpecHash, IndependentOfFieldAssignmentOrder)
{
    // Populate the same spec in two different field orders.
    JobSpec a;
    a.maxTraceOps = 99;
    a.frames = 3;
    a.divisor = 16;
    a.threads = 2;
    a.preset = 6;
    a.crf = 45;
    a.video = "cat";
    a.encoder = "x264";

    JobSpec b;
    b.encoder = "x264";
    b.video = "cat";
    b.crf = 45;
    b.preset = 6;
    b.threads = 2;
    b.divisor = 16;
    b.frames = 3;
    b.maxTraceOps = 99;

    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(a == b);
}

TEST(JobSpecHash, SaltedWithSchemaVersion)
{
    JobSpec spec = makeSpec();
    EXPECT_EQ(spec.hash(),
              fnv1a64("vepro-lab/v" + std::to_string(kSchemaVersion) + "|" +
                      spec.canonicalKey()));
    EXPECT_NE(spec.hashForSchema(kSchemaVersion),
              spec.hashForSchema(kSchemaVersion + 1));
}

TEST(JobSpecHash, EveryFieldChangesTheHash)
{
    const JobSpec base = makeSpec();
    JobSpec v = base;
    v.encoder = "x265";
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.video = "hall";
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.crf = 31;
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.preset = 5;
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.threads = 2;
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.divisor = 4;
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.frames = 12;
    EXPECT_NE(v.hash(), base.hash());
    v = base;
    v.maxTraceOps = 0;
    EXPECT_NE(v.hash(), base.hash());
}

TEST(JobSpecHash, HexFormIsSixteenLowercaseDigits)
{
    std::string hex = makeSpec().hashHex();
    ASSERT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

/** Store keys, trace-cache keys, TraceFile checksums, synthetic PCs and
 *  clip seeds are all one FNV-1a 64. Its reference values, chaining,
 *  one site PC and one store key are pinned, so none of them moves. */
TEST(JobSpecHash, OneFnv1a64PinsEveryKey)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(core::fnv1a64("b", core::fnv1a64("a")), fnv1a64("ab"));
    EXPECT_EQ(trace::sitePc("vepro.default"), 0x211ea5ba5000ULL);
    EXPECT_EQ(makeSpec().hashHex(), "3cddfef27a503b30");
}

TEST(Json, U64RoundTripsExactly)
{
    uint64_t big = 18'446'744'073'709'551'615ull;  // UINT64_MAX.
    JsonValue v = JsonValue::object();
    v.set("n", JsonValue::number(big));
    JsonValue back = JsonValue::parse(v.dump());
    EXPECT_EQ(back.at("n").asU64(), big);
}

TEST(Json, DoubleRoundTripsExactly)
{
    double values[] = {0.1, 1.0 / 3.0, 12345.6789, -2.5e-17};
    for (double d : values) {
        JsonValue v = JsonValue::object();
        v.set("d", JsonValue::number(d));
        EXPECT_EQ(JsonValue::parse(v.dump()).at("d").asDouble(), d);
    }
}

TEST(Json, StringsEscapeAndParseBack)
{
    std::string nasty = "a\"b\\c\nd\te\x01f";
    JsonValue v = JsonValue::object();
    v.set("s", JsonValue::str(nasty));
    EXPECT_EQ(JsonValue::parse(v.dump()).at("s").asString(), nasty);
}

TEST(Json, MalformedInputThrowsNeverCrashes)
{
    const char *bad[] = {"",       "{",        "{\"a\":}", "[1,",
                         "nul",    "{\"a\" 1}", "1x",       "\"unterm",
                         "{\"a\":1}}"};
    for (const char *text : bad) {
        EXPECT_THROW(JsonValue::parse(text), JsonError) << text;
    }
}

TEST(Json, WrongKindAccessThrows)
{
    JsonValue v = JsonValue::parse("{\"s\":\"x\",\"f\":1.5}");
    EXPECT_THROW(v.at("s").asU64(), JsonError);
    EXPECT_THROW(v.at("f").asU64(), JsonError);   // Fraction is not u64.
    EXPECT_THROW(v.at("missing"), JsonError);
    EXPECT_EQ(v.at("f").asDouble(), 1.5);
}

TEST(Store, SaveLoadRoundTripsEveryField)
{
    ResultStore store(freshDir("roundtrip"), nullptr);
    JobSpec spec = makeSpec();
    JobResult saved = makeResult(spec.crf);
    store.save(spec, saved);

    auto loaded = store.load(spec);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->fromCache);
    EXPECT_EQ(loaded->encode, saved.encode);
    EXPECT_EQ(loaded->core, saved.core);
    EXPECT_EQ(loaded->jobSeconds, saved.jobSeconds);
}

/** The record layout is a contract: ledger/store_digest.py reads these
 *  names, and no record changes without a kSchemaVersion bump. */
TEST(Store, RecordBytesArePinned)
{
    ResultStore store(freshDir("pinned"), nullptr);
    const JobSpec spec = makeSpec();
    store.save(spec, makeResult(spec.crf));

    std::ifstream in(store.pathFor(spec), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), R"({
  "schema": 2,
  "key": "encoder=SVT-AV1;video=game1;crf=30;preset=4;threads=1;divisor=8;frames=6;maxTraceOps=1200000",
  "spec": {
    "encoder": "SVT-AV1",
    "video": "game1",
    "crf": 30,
    "preset": 4,
    "threads": 1,
    "divisor": 8,
    "frames": 6,
    "maxTraceOps": 1200000
  },
  "result": {
    "wallSeconds": 31.25,
    "instructions": 1000030,
    "bitrateKbps": 431.0625,
    "psnrDb": 38.875,
    "droppedOps": 7,
    "core": {
      "cycles": 500030,
      "instructions": 1000030,
      "retiring": 11,
      "badSpec": 22,
      "frontend": 33,
      "backend": 44,
      "backendMemory": 30,
      "backendCore": 14,
      "rsStalls": 1,
      "robStalls": 2,
      "loadBufStalls": 3,
      "storeBufStalls": 4,
      "condBranches": 123456,
      "mispredicts": 789,
      "l1iMisses": 10,
      "l1dAccesses": 20,
      "l1dMisses": 30,
      "l2Misses": 40,
      "llcMisses": 50,
      "invalidations": 60
    },
    "jobSeconds": 2.5
  }
}
)");
}

/** Writing field i as i + 1 through the visitor and reading it back
 *  through the JSON pair yields 5 distinct values under 5 distinct
 *  names: no field is listed twice, none is skipped. */
TEST(Store, SummaryVisitorReachesEveryFieldOnce)
{
    EncodeSummary s;
    int next = 0;
    EncodeSummary::forEachField([&](const char *, auto &v) { v = ++next; },
                                s);
    ASSERT_EQ(next, 5);

    JsonValue obj = JsonValue::object();
    summaryToJson(s, obj);
    std::vector<std::string> names;
    int i = 0;
    EncodeSummary::forEachField(
        [&](const char *name, const auto &v) {
            EXPECT_EQ(static_cast<int>(v), ++i) << name;
            EXPECT_EQ(obj.at(name).asDouble(), i) << name;
            names.emplace_back(name);
        },
        s);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
    EXPECT_EQ(summaryFromJson(obj), s);
}

TEST(Store, MissingEntryIsAQuietMiss)
{
    ResultStore store(freshDir("miss"), nullptr);
    EXPECT_FALSE(store.load(makeSpec()).has_value());
}

TEST(Store, AtomicWriteLeavesOnlyTheFinalFile)
{
    std::string dir = freshDir("atomic");
    ResultStore store(dir, nullptr);
    JobSpec spec = makeSpec();
    store.save(spec, makeResult(spec.crf));

    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(entry.path().string(), store.pathFor(spec));
        EXPECT_EQ(entry.path().extension(), ".json");
    }
    EXPECT_EQ(files, 1u);  // No *.tmp droppings left visible.
}

TEST(Store, ConcurrentSameKeyWritersNeverCorruptTheEntry)
{
    // Two drivers (vepro-serve and vepro-lab, here modeled as threads
    // with independent ResultStore instances) race to write the SAME
    // key. With a shared "<path>.tmp" staging name the interleavings
    // truncate each other mid-write and rename partial files into
    // place; with per-writer tmp names every rename publishes a
    // complete record. The surviving entry must parse cleanly and be
    // one of the written values.
    std::string dir = freshDir("race");
    JobSpec spec = makeSpec();
    constexpr int kWriters = 8;
    constexpr int kRounds = 40;
    std::vector<std::thread> writers;
    std::atomic<int> errors{0};
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            ResultStore store(dir, nullptr);
            for (int r = 0; r < kRounds; ++r) {
                try {
                    store.save(spec, makeResult(spec.crf + w));
                } catch (const std::exception &) {
                    // A lost rename race (tmp stolen by another writer)
                    // is exactly the pre-fix failure mode.
                    errors.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : writers) {
        t.join();
    }
    EXPECT_EQ(errors.load(), 0);

    ResultStore reader(dir, nullptr);
    std::optional<JobResult> survivor = reader.load(spec);
    ASSERT_TRUE(survivor.has_value());  // Parses cleanly: no torn write.
    // The record is one writer's value, not an interleaving of several.
    bool known = false;
    for (int w = 0; w < kWriters; ++w) {
        known = known || survivor->encode.instructions ==
                             1'000'000ull +
                                 static_cast<uint64_t>(spec.crf + w);
    }
    EXPECT_TRUE(known);
    // And no tmp droppings survive the races.
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    }
}

TEST(Store, TruncatedEntryIsWarnedAndRecomputable)
{
    std::string dir = freshDir("truncated");
    ResultStore store(dir, nullptr);
    JobSpec spec = makeSpec();
    store.save(spec, makeResult(spec.crf));

    // Chop the record mid-file, as a crash mid-copy or disk-full would.
    fs::resize_file(store.pathFor(spec), 40);
    EXPECT_FALSE(store.load(spec).has_value());

    // A fresh save overwrites the corpse and heals the entry.
    store.save(spec, makeResult(spec.crf));
    EXPECT_TRUE(store.load(spec).has_value());
}

TEST(Store, CorruptEntryWarnsThroughProgress)
{
    std::string dir = freshDir("warns");
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    Progress progress(sink);
    ResultStore store(dir, &progress);
    JobSpec spec = makeSpec();
    store.save(spec, makeResult(spec.crf));
    {
        std::ofstream smash(store.pathFor(spec), std::ios::trunc);
        smash << "{ definitely not a record";
    }
    EXPECT_FALSE(store.load(spec).has_value());

    std::rewind(sink);
    char buf[512] = {};
    size_t n = std::fread(buf, 1, sizeof buf - 1, sink);
    std::string text(buf, n);
    EXPECT_NE(text.find("corrupt or stale cache entry"), std::string::npos);
    std::fclose(sink);
}

TEST(Store, StaleSchemaVersionIsAMiss)
{
    ResultStore store(freshDir("stale"), nullptr);
    JobSpec spec = makeSpec();
    store.save(spec, makeResult(spec.crf));

    // Rewrite the record claiming a future schema version.
    std::ifstream in(store.pathFor(spec));
    std::stringstream text;
    text << in.rdbuf();
    std::string record = text.str();
    std::string needle = "\"schema\": " + std::to_string(kSchemaVersion);
    size_t pos = record.find(needle);
    ASSERT_NE(pos, std::string::npos);
    record.replace(pos, needle.size(),
                   "\"schema\": " + std::to_string(kSchemaVersion + 1));
    std::ofstream(store.pathFor(spec), std::ios::trunc) << record;

    EXPECT_FALSE(store.load(spec).has_value());
}

TEST(Store, ForeignKeyInCollidedSlotIsAMiss)
{
    std::string dir = freshDir("collision");
    ResultStore store(dir, nullptr);
    JobSpec a = makeSpec(30);
    JobSpec b = makeSpec(40);
    store.save(a, makeResult(a.crf));
    // Simulate a 64-bit hash collision: b's slot holds a's record.
    fs::copy_file(store.pathFor(a), store.pathFor(b));
    EXPECT_FALSE(store.load(b).has_value());
    EXPECT_TRUE(store.load(a).has_value());
}

/** Orchestrator options with a counting fake runner. */
OrchestratorOptions
fakeRunnerOptions(const std::string &dir, std::atomic<size_t> &calls,
                  int jobs = 1)
{
    OrchestratorOptions opts;
    opts.jobs = jobs;
    opts.storeDir = dir;
    opts.progress = nullptr;
    opts.verbose = false;
    opts.runner = [&calls](const JobSpec &spec) {
        calls.fetch_add(1);
        return makeResult(spec.crf);
    };
    return opts;
}

TEST(Orchestrator, DedupesIdenticalRequests)
{
    std::atomic<size_t> calls{0};
    Orchestrator orch(fakeRunnerOptions(freshDir("dedupe"), calls));
    size_t h1 = orch.request(makeSpec(30));
    size_t h2 = orch.request(makeSpec(30));
    size_t h3 = orch.request(makeSpec(40));
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, h3);
    EXPECT_EQ(orch.requested(), 2u);
    orch.run();
    EXPECT_EQ(calls.load(), 2u);
    EXPECT_EQ(orch.computed(), 2u);
    EXPECT_EQ(orch.result(h1).encode.instructions, 1'000'030u);
    EXPECT_EQ(orch.result(h3).encode.instructions, 1'000'040u);
}

TEST(Orchestrator, SecondRunIsAllCacheHits)
{
    std::string dir = freshDir("cachehits");
    std::atomic<size_t> calls{0};
    {
        Orchestrator first(fakeRunnerOptions(dir, calls));
        first.request(makeSpec(30));
        first.request(makeSpec(40));
        first.run();
        EXPECT_EQ(first.computed(), 2u);
        EXPECT_EQ(first.cacheHits(), 0u);
    }
    Orchestrator second(fakeRunnerOptions(dir, calls));
    size_t h = second.request(makeSpec(30));
    second.request(makeSpec(40));
    second.run();
    EXPECT_EQ(calls.load(), 2u);  // Nothing recomputed.
    EXPECT_EQ(second.cacheHits(), 2u);
    EXPECT_EQ(second.computed(), 0u);
    EXPECT_TRUE(second.result(h).fromCache);
    EXPECT_EQ(second.result(h).encode.instructions, 1'000'030u);
    EXPECT_NE(second.summaryLine().find("cache hits: 100.0%"),
              std::string::npos);
}

TEST(Orchestrator, NoCacheBypassesLookupsButRefreshesTheStore)
{
    std::string dir = freshDir("nocache");
    std::atomic<size_t> calls{0};
    {
        Orchestrator warm(fakeRunnerOptions(dir, calls));
        warm.request(makeSpec(30));
        warm.run();
    }
    OrchestratorOptions opts = fakeRunnerOptions(dir, calls);
    opts.useCache = false;
    Orchestrator bypass(opts);
    size_t h = bypass.request(makeSpec(30));
    bypass.run();
    EXPECT_EQ(calls.load(), 2u);  // Recomputed despite the cached entry.
    EXPECT_EQ(bypass.cacheHits(), 0u);
    EXPECT_EQ(bypass.computed(), 1u);
    EXPECT_FALSE(bypass.result(h).fromCache);
}

TEST(Orchestrator, CorruptEntryOnlyRecomputesThatPoint)
{
    std::string dir = freshDir("heal");
    std::atomic<size_t> calls{0};
    {
        Orchestrator warm(fakeRunnerOptions(dir, calls));
        for (int crf : {10, 20, 30}) {
            warm.request(makeSpec(crf));
        }
        warm.run();
    }
    ResultStore store(dir, nullptr);
    fs::resize_file(store.pathFor(makeSpec(20)), 10);

    Orchestrator heal(fakeRunnerOptions(dir, calls));
    std::vector<size_t> handles;
    for (int crf : {10, 20, 30}) {
        handles.push_back(heal.request(makeSpec(crf)));
    }
    heal.run();
    EXPECT_EQ(heal.cacheHits(), 2u);
    EXPECT_EQ(heal.computed(), 1u);
    EXPECT_EQ(calls.load(), 4u);  // 3 warm + 1 healed.
    EXPECT_EQ(heal.result(handles[1]).encode.instructions, 1'000'020u);
    // And the healed record persists.
    EXPECT_TRUE(store.load(makeSpec(20)).has_value());
}

TEST(Orchestrator, RetriesOnceThenSucceeds)
{
    std::string dir = freshDir("retry");
    std::atomic<size_t> calls{0};
    OrchestratorOptions opts;
    opts.storeDir = dir;
    opts.progress = nullptr;
    opts.runner = [&calls](const JobSpec &spec) {
        if (calls.fetch_add(1) == 0) {
            throw std::runtime_error("transient failure");
        }
        return makeResult(spec.crf);
    };
    Orchestrator orch(opts);
    size_t h = orch.request(makeSpec(30));
    orch.run();
    EXPECT_EQ(calls.load(), 2u);
    EXPECT_EQ(orch.retries(), 1u);
    EXPECT_EQ(orch.result(h).encode.instructions, 1'000'030u);
}

/** One spec fails on every attempt; the sweep must NOT abort — the
 *  healthy specs complete, persist, and stay readable, while the bad
 *  one resolves as a recorded failure carrying the error text. */
void
expectSecondFailureRecorded(int jobs)
{
    std::string dir = freshDir("recordfail" + std::to_string(jobs));
    std::atomic<size_t> calls{0};
    OrchestratorOptions opts;
    opts.jobs = jobs;
    opts.storeDir = dir;
    opts.progress = nullptr;
    opts.verbose = false;
    opts.runner = [&calls](const JobSpec &spec) -> JobResult {
        calls.fetch_add(1);
        if (spec.crf == 20) {
            throw std::runtime_error("persistent failure");
        }
        return makeResult(spec.crf);
    };
    Orchestrator orch(opts);
    std::vector<size_t> handles;
    for (int crf : {10, 20, 30}) {
        handles.push_back(orch.request(makeSpec(crf)));
    }
    orch.run();  // Must not throw.

    EXPECT_EQ(calls.load(), 4u);  // 2 good + 2 attempts of the bad one.
    EXPECT_EQ(orch.computed(), 2u);
    EXPECT_EQ(orch.failures(), 1u);
    EXPECT_EQ(orch.retries(), 1u);

    // Healthy neighbours resolved and persisted.
    EXPECT_EQ(orch.result(handles[0]).encode.instructions, 1'000'010u);
    EXPECT_EQ(orch.result(handles[2]).encode.instructions, 1'000'030u);
    ResultStore store(dir, nullptr);
    EXPECT_TRUE(store.load(makeSpec(10)).has_value());
    EXPECT_TRUE(store.load(makeSpec(30)).has_value());

    // The failed job: flagged, error text recorded, never cached, and
    // result() rethrows the recorded error for anyone who uses it.
    EXPECT_TRUE(orch.failed(handles[1]));
    EXPECT_NE(orch.error(handles[1]).find("persistent failure"),
              std::string::npos);
    EXPECT_FALSE(store.load(makeSpec(20)).has_value());
    EXPECT_THROW(orch.result(handles[1]), std::runtime_error);
    EXPECT_NE(orch.summaryLine().find("1 failed"), std::string::npos);
}

TEST(Orchestrator, SecondFailureIsRecordedAndTheSweepKeepsDraining)
{
    // On one worker, and on four: the failing job's neighbours must
    // not stall behind it on the pool either.
    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        expectSecondFailureRecorded(jobs);
    }
}

TEST(Orchestrator, ParallelRunResolvesEveryPoint)
{
    std::string dir = freshDir("parallel");
    std::atomic<size_t> calls{0};
    Orchestrator orch(fakeRunnerOptions(dir, calls, 4));
    std::vector<size_t> handles;
    for (int crf = 1; crf <= 24; ++crf) {
        handles.push_back(orch.request(makeSpec(crf)));
    }
    orch.run();
    EXPECT_EQ(calls.load(), 24u);
    for (int crf = 1; crf <= 24; ++crf) {
        EXPECT_EQ(orch.result(handles[static_cast<size_t>(crf - 1)])
                      .encode.instructions,
                  1'000'000ull + static_cast<uint64_t>(crf));
    }
    // Every point landed in the store.
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 24u);
}

TEST(Orchestrator, ResultBeforeRunThrows)
{
    std::atomic<size_t> calls{0};
    Orchestrator orch(fakeRunnerOptions(freshDir("early"), calls));
    size_t h = orch.request(makeSpec(30));
    EXPECT_THROW(orch.result(h), std::logic_error);
    EXPECT_THROW(orch.result(h + 1), std::out_of_range);
}

TEST(Orchestrator, RealRunnerComputesAndCachesAPoint)
{
    std::string dir = freshDir("real");
    OrchestratorOptions opts;
    opts.storeDir = dir;
    opts.progress = nullptr;
    opts.verbose = false;

    JobSpec spec;
    spec.encoder = "Libvpx-vp9";
    spec.video = "cat";
    spec.crf = 45;
    spec.preset = 7;
    spec.divisor = 16;  // Tiny clip: keep the test fast.
    spec.frames = 2;
    spec.maxTraceOps = 100'000;

    uint64_t instructions = 0;
    {
        Orchestrator orch(opts);
        size_t h = orch.request(spec);
        orch.run();
        const JobResult &r = orch.result(h);
        EXPECT_GT(r.encode.instructions, 0u);
        EXPECT_GT(r.core.ipc(), 0.3);
        EXPECT_LT(r.core.ipc(), 4.0);
        EXPECT_GT(r.jobSeconds, 0.0);
        EXPECT_FALSE(r.fromCache);
        instructions = r.encode.instructions;
    }
    Orchestrator again(opts);
    size_t h = again.request(spec);
    again.run();
    EXPECT_EQ(again.cacheHits(), 1u);
    EXPECT_TRUE(again.result(h).fromCache);
    // The modeled numbers replay exactly from the store.
    EXPECT_EQ(again.result(h).encode.instructions, instructions);
}

TEST(Progress, ConcurrentLinesNeverInterleave)
{
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    Progress progress(sink);

    constexpr int kThreads = 4;
    constexpr int kLines = 50;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&progress, t] {
            for (int i = 0; i < kLines; ++i) {
                progress.linef("thread-%d says line %d with a long tail "
                               "of text to tempt partial writes",
                               t, i);
            }
        });
    }
    for (std::thread &t : pool) {
        t.join();
    }

    std::rewind(sink);
    std::string all;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, sink)) > 0) {
        all.append(buf, n);
    }
    std::fclose(sink);

    size_t count = 0;
    std::stringstream lines(all);
    std::string line;
    while (std::getline(lines, line)) {
        ++count;
        // Every emitted line must be whole: prefix and suffix intact.
        EXPECT_EQ(line.rfind("thread-", 0), 0u) << line;
        EXPECT_NE(line.find("to tempt partial writes"), std::string::npos)
            << line;
    }
    EXPECT_EQ(count, static_cast<size_t>(kThreads * kLines));
}

// ---------------------------------------------------------------------------
// Trace cache: one captured TraceFile per unique ENCODE, shared across
// backends. These run the real pipeline (tiny specs) because the whole
// point is the seam between encoder invocation and disk replay.

/** Small enough to encode in well under a second. */
JobSpec
quickSpec()
{
    JobSpec spec;
    spec.encoder = "SVT-AV1";
    spec.video = "game1";
    spec.crf = 32;
    spec.preset = 6;
    spec.divisor = 16;
    spec.frames = 2;
    spec.maxTraceOps = 150'000;
    return spec;
}

OrchestratorOptions
realRunnerOptions(const std::string &dir)
{
    OrchestratorOptions opts;
    opts.jobs = 1;
    opts.storeDir = dir;
    opts.progress = nullptr;
    opts.verbose = false;
    return opts;
}

TEST(TraceKey, ExcludesSimulationSideFields)
{
    const JobSpec base = quickSpec();
    // Backend and segmentation choose the MACHINE; the captured op
    // stream only depends on the encode. Same key -> one capture
    // serves every profile.
    JobSpec arm = quickSpec();
    arm.backend = "graviton-like";
    JobSpec seg = quickSpec();
    seg.segments = 8;
    seg.segmentWarmup = 2;
    EXPECT_EQ(arm.traceKey(), base.traceKey());
    EXPECT_EQ(seg.traceKey(), base.traceKey());
    EXPECT_EQ(arm.traceHashHex(), base.traceHashHex());
    EXPECT_EQ(base.traceKey().find("backend"), std::string::npos);

    // Every encode-side field re-keys the trace.
    for (auto mutate : std::vector<std::function<void(JobSpec &)>>{
             [](JobSpec &s) { s.encoder = "x264"; },
             [](JobSpec &s) { s.video = "sport1"; },
             [](JobSpec &s) { s.crf = 33; },
             [](JobSpec &s) { s.preset = 7; },
             [](JobSpec &s) { s.threads = 4; },
             [](JobSpec &s) { s.divisor = 8; },
             [](JobSpec &s) { s.frames = 3; },
             [](JobSpec &s) { s.maxTraceOps = 100'000; }}) {
        JobSpec changed = quickSpec();
        mutate(changed);
        EXPECT_NE(changed.traceKey(), base.traceKey());
        EXPECT_NE(changed.traceHashHex(), base.traceHashHex());
    }

    const std::string hex = base.traceHashHex();
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(TraceCacheE2E, SecondBackendReplaysWithoutRunningTheEncoder)
{
    const std::string dir = freshDir("tcross");
    JobResult cold, warm;
    {
        Orchestrator orch(realRunnerOptions(dir));
        size_t h = orch.request(quickSpec());
        orch.run();
        cold = orch.result(h);
        EXPECT_EQ(orch.encoderRuns(), 1u);
        EXPECT_EQ(orch.traceCaptures(), 1u);
        EXPECT_EQ(orch.traceReplays(), 0u);
        EXPECT_EQ(orch.traceLine(),
                  "encoder invoked 1 times (1 trace captures, "
                  "0 trace replays)");
    }
    // The acceptance bar for the codec: the on-disk capture of the
    // reference quick clip spends at most 6 bytes per recorded op.
    const std::string trace_path =
        dir + "/traces/" + quickSpec().traceHashHex() + ".vetf";
    ASSERT_TRUE(fs::exists(trace_path));
    trace::TraceFileInfo info = trace::FileSource::inspect(trace_path);
    EXPECT_GT(info.opCount, 0u);
    EXPECT_LE(info.bytesPerOp(), 6.0);

    {
        // Different machine profile = result-store miss, but the SAME
        // encode: the point must come from disk replay, zero encoder
        // work.
        JobSpec arm = quickSpec();
        arm.backend = "graviton-like";
        Orchestrator orch(realRunnerOptions(dir));
        size_t h = orch.request(arm);
        orch.run();
        warm = orch.result(h);
        EXPECT_EQ(orch.computed(), 1u);
        EXPECT_EQ(orch.cacheHits(), 0u);
        EXPECT_EQ(orch.encoderRuns(), 0u);
        EXPECT_EQ(orch.traceCaptures(), 0u);
        EXPECT_EQ(orch.traceReplays(), 1u);
    }
    // Replay reproduces the capture-time encode verbatim, while the
    // different core geometry really simulates apart.
    EXPECT_EQ(warm.encode, cold.encode);
    EXPECT_NE(warm.core.cycles, cold.core.cycles);
}

/** A capture's metadata is the trace key, then the encode summary in
 *  the record's field order, and it reads back as the live result. */
TEST(TraceCacheE2E, CaptureMetadataListsKeyThenSummaryFields)
{
    const std::string dir = freshDir("tmeta");
    Orchestrator orch(realRunnerOptions(dir));
    const size_t h = orch.request(quickSpec());
    orch.run();
    ASSERT_EQ(orch.traceCaptures(), 1u);

    const trace::TraceFileInfo info = trace::FileSource::inspect(
        dir + "/traces/" + quickSpec().traceHashHex() + ".vetf");
    EXPECT_TRUE(std::regex_match(
        info.metadata,
        std::regex(R"(\{"traceKey":"[^"]*","wallSeconds":[^,]+,)"
                   R"("instructions":[0-9]+,"bitrateKbps":[^,]+,)"
                   R"("psnrDb":[^,]+,"droppedOps":[0-9]+\})")))
        << info.metadata;
    const JsonValue meta = JsonValue::parse(info.metadata);
    EXPECT_EQ(meta.at("traceKey").asString(), quickSpec().traceKey());
    EXPECT_EQ(summaryFromJson(meta), orch.result(h).encode);
}

TEST(TraceCacheE2E, SameSpecWarmRunShortCircuitsAtTheResultStore)
{
    const std::string dir = freshDir("twarm");
    {
        Orchestrator orch(realRunnerOptions(dir));
        orch.request(quickSpec());
        orch.run();
    }
    Orchestrator orch(realRunnerOptions(dir));
    orch.request(quickSpec());
    orch.run();
    EXPECT_EQ(orch.cacheHits(), 1u);
    EXPECT_EQ(orch.computed(), 0u);
    // The result store answered first; the trace layer never woke up.
    EXPECT_EQ(orch.encoderRuns(), 0u);
    EXPECT_EQ(orch.traceCaptures(), 0u);
    EXPECT_EQ(orch.traceReplays(), 0u);
    EXPECT_EQ(orch.traceLine(),
              "encoder invoked 0 times (0 trace captures, "
              "0 trace replays)");
}

TEST(TraceCacheE2E, CorruptTraceWarnsAndRecaptures)
{
    const std::string dir = freshDir("theal");
    {
        Orchestrator orch(realRunnerOptions(dir));
        orch.request(quickSpec());
        orch.run();
    }
    const std::string trace_path =
        dir + "/traces/" + quickSpec().traceHashHex() + ".vetf";
    ASSERT_TRUE(fs::exists(trace_path));
    {
        // Flip one payload byte; the checksum/decode must catch it.
        std::fstream f(trace_path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        char byte = 0;
        f.seekg(64);
        f.get(byte);
        f.seekp(64);
        f.put(static_cast<char>(byte ^ 0x20));
    }

    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    Progress progress(sink);
    JobSpec arm = quickSpec();
    arm.backend = "graviton-like";
    OrchestratorOptions opts = realRunnerOptions(dir);
    opts.progress = &progress;
    Orchestrator orch(opts);
    orch.request(arm);
    orch.run();
    // Store-policy healing: warn, recapture under the lease, still
    // produce the point.
    EXPECT_EQ(orch.encoderRuns(), 1u);
    EXPECT_EQ(orch.traceCaptures(), 1u);
    EXPECT_EQ(orch.traceReplays(), 0u);
    EXPECT_EQ(orch.computed(), 1u);

    std::rewind(sink);
    char buf[512] = {};
    size_t n = std::fread(buf, 1, sizeof buf - 1, sink);
    std::string text(buf, n);
    EXPECT_NE(text.find("corrupt or stale cache entry"), std::string::npos);
    std::fclose(sink);

    // The recapture healed the file: a third run replays cleanly.
    trace::TraceFileInfo info = trace::FileSource::inspect(trace_path);
    EXPECT_GT(info.opCount, 0u);
}

TEST(TraceCacheE2E, SegmentedSpecsReplayAndOptedOutSpecsBypassTheCache)
{
    {
        // The sequential capture serves segment points too: traceKey()
        // leaves the segment fields out, and the capture holds the
        // probe's blocks, so a replay splits the segments a live run
        // would. Two points on two workers run SegmentSim's parallelFor
        // inside the orchestrator's.
        const std::string dir = freshDir("tseg");
        {
            Orchestrator orch(realRunnerOptions(dir));
            orch.request(quickSpec());
            orch.run();
            ASSERT_EQ(orch.traceCaptures(), 1u);
        }
        JobSpec seg = quickSpec();
        seg.segments = 2;
        JobSpec seg_arm = seg;
        seg_arm.backend = "graviton-like";
        OrchestratorOptions opts = realRunnerOptions(dir);
        opts.jobs = 2;
        Orchestrator orch(opts);
        const size_t handles[] = {orch.request(seg), orch.request(seg_arm)};
        orch.run();
        EXPECT_EQ(orch.computed(), 2u);
        EXPECT_EQ(orch.encoderRuns(), 0u);
        EXPECT_EQ(orch.traceCaptures(), 0u);
        EXPECT_EQ(orch.traceReplays(), 2u);

        const auto encoder = encoders::encoderByName(seg.encoder);
        const core::RunScale scale = seg.toRunScale();
        const video::Video clip = video::loadSuiteVideo(seg.video, scale.suite);
        for (size_t i = 0; i < 2; ++i) {
            const JobSpec &spec = i == 0 ? seg : seg_arm;
            SCOPED_TRACE(spec.label());
            const core::SweepPoint live = core::runPoint(
                *encoder, clip, spec.crf, spec.preset, spec.toRunScale());
            EXPECT_EQ(orch.result(handles[i]).core, live.core);
        }
    }
    {
        // --no-cache opt-out.
        const std::string dir = freshDir("tnocache");
        OrchestratorOptions opts = realRunnerOptions(dir);
        opts.useCache = false;
        Orchestrator orch(opts);
        orch.request(quickSpec());
        orch.run();
        EXPECT_EQ(orch.encoderRuns(), 1u);
        EXPECT_EQ(orch.traceCaptures(), 0u);
        EXPECT_FALSE(fs::exists(dir + "/traces"));
    }
}

TEST(Figures, UnsupportedIdRejected)
{
    std::atomic<size_t> calls{0};
    Orchestrator orch(fakeRunnerOptions(freshDir("figbad"), calls));
    EXPECT_THROW(runFigures({99}, core::RunScale{}, orch),
                 std::invalid_argument);
    EXPECT_EQ(orch.requested(), 0u);
}

TEST(Figures, SharedSweepPointsDedupeAcrossFigures)
{
    // Figures 4-7 all consume the same 5-clip x 6-CRF sweep, fig 11
    // adds 9 presets of which (preset 4, crf 30, game1) overlaps the
    // sweep: 30 + 9 - 1 unique jobs.
    std::atomic<size_t> calls{0};
    core::RunScale scale;
    scale.suite.divisor = 8;
    scale.suite.frames = 6;
    Orchestrator orch(fakeRunnerOptions(freshDir("figdedupe"), calls));
    auto figures = runFigures({4, 5, 6, 7, 11}, scale, orch);
    EXPECT_EQ(orch.requested(), 38u);
    EXPECT_EQ(calls.load(), 38u);
    ASSERT_EQ(figures.size(), 5u);
    EXPECT_EQ(figures[0].id, 4);
    EXPECT_EQ(figures[4].id, 11);
    EXPECT_EQ(figures[0].tables.size(), 1u);
    EXPECT_EQ(figures[2].tables.size(), 2u);  // Fig 6: MPKI + stalls.
    EXPECT_EQ(figures[0].tables[0].table.rowCount(), 30u);
    EXPECT_EQ(figures[4].tables[0].table.rowCount(), 9u);
}

} // namespace
} // namespace vepro::lab
