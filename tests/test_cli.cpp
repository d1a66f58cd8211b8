/**
 * @file
 * The one flag grammar (core/flags.hpp) and the four tool tables it
 * reads: RunScale (vepro-lab and the benches), vepro-lab, vepro-serve
 * and vepro-check.
 *
 *  - CliTraffic pins every command line the docs and CI give, with the
 *    fields it must parse to.
 *  - CliRows walks every row of every table and derives its bad inputs
 *    from the row's kind and range.
 *  - CliGrammar pins the grammar's rules, one test per rule.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "core/experiment.hpp"
#include "core/flags.hpp"
#include "lab/figures.hpp"
#include "ladder/ladder.hpp"
#include "serve/cli.hpp"

using namespace vepro;
using core::UsageError;

namespace
{

// ---- Field summaries ---------------------------------------------------

std::string
str(const std::string &s)
{
    return s;
}

template <typename T>
std::string
str(const T &x)
{
    std::ostringstream out;
    out << x;
    return out.str();
}

template <typename T>
std::string
str(const std::vector<T> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        out += (i ? "," : "") + str(items[i]);
    }
    return out + "]";
}

/** "key=value" for each field that differs from its default, so a
 *  command line's expected fields name only what it changes. */
class Fields
{
  public:
    template <typename T>
    Fields &
    add(const char *key, const T &value, const T &def)
    {
        if (str(value) != str(def)) {
            out_ += (out_.empty() ? "" : " ") + std::string(key) + "=" +
                    str(value);
        }
        return *this;
    }

    std::string line() const { return out_; }

  private:
    std::string out_;
};

void
addScale(Fields &f, const core::RunScale &s)
{
    f.add("divisor", s.suite.divisor, 8)
        .add("frames", s.suite.frames, 6)
        .add("cap", s.maxTraceOps, size_t{1'200'000})
        .add("jobs", s.jobs, 1)
        .add("videos", s.videos, std::vector<std::string>{})
        .add("backend", s.backend, std::string())
        .add("noCache", s.noCache, false)
        .add("store", s.storeDir, std::string(".vepro-lab"));
}

std::string
serveFields(const serve::ServeCli &c)
{
    if (!c.error.empty()) {
        return "error";
    }
    const serve::ServeScenario &s = c.scenario;
    std::vector<std::string> mix;
    for (const auto &share : s.traffic.rungMix) {
        mix.push_back(str(share.scale) + ":" + str(share.weight));
    }
    using Names = std::vector<std::string>;
    return Fields()
        .add("quick", c.quick, false)
        .add("fleet", c.fleet, false)
        .add("jobs", c.jobs, 1)
        .add("store", c.storeDir, std::string(".vepro-lab"))
        .add("json", c.jsonPath, std::string())
        .add("md", c.markdownPath, std::string())
        .add("backends", c.fleetBackends, Names{})
        .add("seed", s.traffic.seed, uint64_t{7})
        .add("users", s.traffic.users, 1000)
        .add("uph", s.traffic.uploadsPerUserPerHour, 0.26)
        .add("duration", s.traffic.durationSec, 7200.0)
        .add("mix", mix, Names{"1:1"})
        .add("servers", s.farm.servers, 4)
        .add("admission", s.farm.admissionLimit, size_t{0})
        .add("latency", s.farm.latencyTargetSec, 180.0)
        .add("backend", s.cost.backend, std::string())
        .add("ghz", s.cost.nominalGhz, 0.0)
        .add("cores", s.cost.serverCores, 0)
        .line();
}

// ---- The tools' parsers ------------------------------------------------

core::RunScale
parseScale(const std::vector<std::string> &args,
           const std::vector<std::string> &reads = {})
{
    core::RunScale scale;
    core::parseFlags(core::RunScale::flags(scale, reads), args);
    return scale;
}

lab::LabCli
parseLab(const std::vector<std::string> &args)
{
    lab::LabCli cli;
    core::parseFlags(lab::labFlags(cli), args);
    return cli;
}

check::CheckCli
parseCheck(const std::vector<std::string> &args)
{
    check::CheckCli cli;
    core::parseFlags(check::checkFlags(cli), args);
    return cli;
}

/** The RunScale flags each bench main names. */
std::vector<std::string>
benchReads(const std::string &bench)
{
    if (bench.find("_cbp_") != std::string::npos) {
        return {"quick", "full", "videos", "jobs"};
    }
    if (bench == "bench_ablation_bpred_zoo") {
        return {"quick", "full", "videos"};
    }
    if (bench == "bench_fig16_topdown_threads") {
        return {"quick", "full", "jobs"};
    }
    if (bench == "bench_ablation_uarch_sizing") {
        return {"quick", "full", "uncapped"};
    }
    return {"quick", "full"};
}

std::string
benchLine(const std::string &bench, const std::vector<std::string> &args)
{
    try {
        Fields f;
        addScale(f, parseScale(args, benchReads(bench)));
        return f.line();
    } catch (const UsageError &) {
        return "error";
    }
}

std::string
labLine(const std::vector<std::string> &args)
{
    try {
        const lab::LabCli cli = parseLab(args);
        Fields f;
        f.add("figures", cli.figures, std::vector<std::string>{})
            .add("ladder", cli.ladder, false)
            .add("out", cli.outDir, std::string("vepro-lab-out"));
        if (cli.ladder) {
            f.add("grid",
                  ladder::ladderConfigFromScale(cli.scale).rungs.front().crfs,
                  std::vector<int>{});
        }
        addScale(f, cli.scale);
        return f.line();
    } catch (const UsageError &) {
        return "error";
    }
}

std::string
serveLine(const std::vector<std::string> &args)
{
    return serveFields(serve::parseServeCli(args));
}

std::string
checkLine(const std::vector<std::string> &args)
{
    try {
        const check::CheckCli cli = parseCheck(args);
        const std::string mode = !cli.caseFile.empty() ? "case"
                                 : cli.repro()         ? "repro"
                                                       : "fuzz";
        const check::FuzzOptions &o = cli.options;
        return Fields()
            .add("mode", mode, std::string("fuzz"))
            .add("target",
                 std::string(cli.target ? check::targetName(*cli.target)
                                        : "all"),
                 std::string("all"))
            .add("iters", o.iters, 0)
            .add("seed", o.baseSeed, uint64_t{1})
            .add("quick", o.quick, false)
            .add("shrink", o.shrink, true)
            .add("inject", std::string(check::faultName(o.inject)),
                 std::string("none"))
            .add("corpus", cli.corpusDir, std::string())
            .add("case", cli.caseFile, std::string())
            .add("reproOut", cli.reproOut, std::string())
            .line();
    } catch (const UsageError &) {
        return "error";
    }
}

// ---- Traffic: every documented command line ----------------------------

/** A command line found in the docs or CI, and the fields it parses to
 *  ("error" = a usage error, "" = every default). */
struct Pinned {
    const char *where;
    std::string tool;
    std::vector<std::string> args;
    std::string fields;
};

std::string
fieldsOf(const Pinned &p)
{
    if (p.tool == "vepro-lab") {
        return labLine(p.args);
    }
    if (p.tool == "vepro-serve") {
        return serveLine(p.args);
    }
    if (p.tool == "vepro-check") {
        return checkLine(p.args);
    }
    return benchLine(p.tool, p.args);
}

std::vector<Pinned>
pinnedTraffic()
{
    std::vector<Pinned> lines = {
        {"README.md", "vepro-lab", {"--figures=4,5,6,7,11"},
         "figures=[4,5,6,7,11]"},
        {"README.md", "vepro-lab",
         {"--figures=t1,t2,1,2,3,4,5,6,7,11,12,13,14,15"},
         "figures=[t1,t2,1,2,3,4,5,6,7,11,12,13,14,15]"},
        {"README.md", "vepro-lab",
         {"--figures=t1,t2,1,2,3,4,5,6,7,11,12,13,14,15", "--quick",
          "--jobs=4", "--out=lab-out"},
         "figures=[t1,t2,1,2,3,4,5,6,7,11,12,13,14,15] out=lab-out jobs=4"},
        {"README.md", "vepro-lab",
         {"--figures=4,5,6,7,11", "--quick", "--jobs=4", "--out=lab-out"},
         "figures=[4,5,6,7,11] out=lab-out jobs=4"},
        {"README.md, LADDER_quick.md", "vepro-lab",
         {"--ladder", "--quick", "--jobs=4", "--out=ladder-out"},
         "ladder=1 out=ladder-out grid=[20,32,44,56] jobs=4"},
        {"README.md", "vepro-lab",
         {"--figures=4", "--quick", "--store=.vepro-lab", "--out=lab-out"},
         "figures=[4] out=lab-out"},
        {"README.md", "vepro-lab",
         {"--figures=4", "--quick", "--backend=graviton-like",
          "--store=.vepro-lab", "--out=lab-out-arm"},
         "figures=[4] out=lab-out-arm backend=graviton-like"},
        {"README.md, ledger/README.md, verify notes", "vepro-lab",
         {"--figures=4", "--quick"}, "figures=[4]"},
        {"SAMPLING_quick.md", "vepro-lab",
         {"--figures=4,5,6,7", "--quick", "--jobs=4",
          "--store=.vepro-lab-sampling", "--out=lab-out-default"},
         "figures=[4,5,6,7] out=lab-out-default jobs=4 "
         "store=.vepro-lab-sampling"},
        {"SAMPLING_quick.md", "vepro-lab",
         {"--figures=4,5,6,7", "--quick", "--jobs=4", "--uncapped",
          "--store=.vepro-lab-sampling", "--out=lab-out-uncapped"},
         "figures=[4,5,6,7] out=lab-out-uncapped cap=0 jobs=4 "
         "store=.vepro-lab-sampling"},
        {"EXPERIMENTS.md", "vepro-lab",
         {"--figures=4,5,6,7", "--quick", "--uncapped"},
         "figures=[4,5,6,7] cap=0"},
        {"DESIGN.md §10 (its synopsis, with --full)", "vepro-lab",
         {"--figures=4,5,6,7,11", "--jobs=4", "--full", "--no-cache",
          "--store=DIR", "--out=DIR"},
         "figures=[4,5,6,7,11] out=DIR divisor=4 frames=12 cap=4000000 "
         "jobs=4 noCache=1 store=DIR"},
        {"DESIGN.md §16", "vepro-lab",
         {"--figures=4", "--quick", "--uncapped", "--videos=desktop",
          "--jobs=4"},
         "figures=[4] cap=0 jobs=4 videos=[desktop]"},
        {"verify notes", "vepro-lab",
         {"--figures=4", "--quick", "--jobs=4", "--videos=desktop",
          "--store=.vepro-lab-v"},
         "figures=[4] jobs=4 videos=[desktop] store=.vepro-lab-v"},
        {"verify notes", "vepro-lab",
         {"--figures=4", "--quick", "--jobs=4", "--videos=desktop",
          "--backend=graviton-like", "--store=.vepro-lab-v"},
         "figures=[4] jobs=4 videos=[desktop] backend=graviton-like "
         "store=.vepro-lab-v"},
        {"verify notes", "vepro-lab",
         {"--figures=4", "--uncapped", "--videos=desktop", "--no-cache"},
         "figures=[4] cap=0 videos=[desktop] noCache=1"},
        {"verify notes", "vepro-lab",
         {"--figures=4", "--quick", "--videos=bogus"}, "error"},
        {"verify notes", "vepro-lab",
         {"--figures=t1,t2,1,2,3,12,13,14,15", "--quick", "--jobs=3",
          "--store=.vepro-lab-v"},
         "figures=[t1,t2,1,2,3,12,13,14,15] jobs=3 store=.vepro-lab-v"},
        {"ledger/README.md", "vepro-lab",
         {"--figures=4", "--quick", "--jobs=3", "--store=st",
          "--videos=desktop,bike,funny,game1,cat,girl,hall,landscape"},
         "figures=[4] jobs=3 "
         "videos=[desktop,bike,funny,game1,cat,girl,hall,landscape] "
         "store=st"},
        {"ci.yml", "vepro-lab",
         {"--figures=4", "--quick", "--jobs=2", "--store=.vepro-lab-ci",
          "--out=lab-out-1"},
         "figures=[4] out=lab-out-1 jobs=2 store=.vepro-lab-ci"},
        {"ci.yml", "vepro-lab",
         {"--figures=t1,t2,1,2,3,12,13,14,15", "--quick", "--jobs=2",
          "--store=.vepro-lab-ci", "--out=lab-out-mix-1"},
         "figures=[t1,t2,1,2,3,12,13,14,15] out=lab-out-mix-1 jobs=2 "
         "store=.vepro-lab-ci"},
        {"ci.yml", "vepro-lab",
         {"--figures=4", "--quick", "--jobs=2", "--backend=graviton-like",
          "--store=.vepro-lab-ci", "--out=lab-out-3"},
         "figures=[4] out=lab-out-3 jobs=2 backend=graviton-like "
         "store=.vepro-lab-ci"},
        {"ci.yml", "vepro-lab",
         {"--ladder", "--quick", "--jobs=2", "--store=.vepro-ladder-ci",
          "--out=ladder-out-1"},
         "ladder=1 out=ladder-out-1 grid=[20,32,44,56] jobs=2 "
         "store=.vepro-ladder-ci"},

        {"README.md", "vepro-serve",
         {"--quick", "--jobs=4", "--json=serve-sla.json"},
         "quick=1 jobs=4 json=serve-sla.json duration=1800"},
        {"README.md", "vepro-serve",
         {"--fleet", "--quick", "--markdown=FLEET_quick.md"},
         "quick=1 fleet=1 md=FLEET_quick.md duration=1800"},
        {"README.md", "vepro-serve", {"--rung-mix=1:20,2:20,4:60"},
         "mix=[1:20,2:20,4:60]"},
        {"README.md", "vepro-serve", {"--backend=graviton-like"},
         "backend=graviton-like"},
        {"LADDER_quick.md", "vepro-serve",
         {"--fleet", "--quick", "--jobs=4", "--rung-mix=1:20,2:20,4:60"},
         "quick=1 fleet=1 jobs=4 duration=1800 mix=[1:20,2:20,4:60]"},
        {"ci.yml", "vepro-serve",
         {"--quick", "--jobs=2", "--store=.vepro-serve-ci",
          "--json=serve-sla-1.json"},
         "quick=1 jobs=2 store=.vepro-serve-ci json=serve-sla-1.json "
         "duration=1800"},
        {"ci.yml", "vepro-serve", {"--quick", "--shards", "4"}, "error"},
        {"ci.yml", "vepro-serve",
         {"--fleet", "--quick", "--backends=xeon-bdw,xeon-bdw"}, "error"},
        {"ci.yml", "vepro-serve",
         {"--fleet", "--quick", "--jobs=2",
          "--backends=xeon-bdw,graviton-like", "--store=.vepro-serve-ci",
          "--json=serve-fleet-1.json"},
         "quick=1 fleet=1 jobs=2 store=.vepro-serve-ci "
         "json=serve-fleet-1.json backends=[xeon-bdw,graviton-like] "
         "duration=1800"},

        {"README.md", "vepro-check", {"--quick"}, "quick=1"},
        {"README.md", "vepro-check",
         {"--target=core", "--iters=500", "--seed=123"},
         "target=core iters=500 seed=123"},
        {"README.md", "vepro-check", {"--corpus=tests/corpus"},
         "corpus=tests/corpus"},
        {"verify notes", "vepro-check", {"--quick", "--corpus=tests/corpus"},
         "quick=1 corpus=tests/corpus"},
        {"ci.yml", "vepro-check",
         {"--quick", "--corpus=tests/corpus",
          "--repro-out=vepro-check-repro-asan.txt"},
         "quick=1 corpus=tests/corpus reproOut=vepro-check-repro-asan.txt"},
        {"ci.yml", "vepro-check",
         {"--quick", "--target=ladder", "--corpus=bad-corpus"},
         "target=ladder quick=1 corpus=bad-corpus"},
        {"ci.yml", "vepro-check",
         {"--quick", "--target=ladder", "--iters=3000000000"}, "error"},
        {"ci.yml, verify notes", "vepro-check",
         {"--quick", "--target=ladder", "--seed=1", "--corpus=/no-such-dir"},
         "error"},

        {"verify notes", "bench_fig09_cbp_p4c10",
         {"--jobs=2", "--videos=desktop"}, "jobs=2 videos=[desktop]"},
        {"ci.yml", "bench_fig16_topdown_threads", {"--jobs=abc"}, "error"},
        {"ci.yml", "bench_fig16_topdown_threads", {"--videos=desktop"},
         "error"},
    };
    // CI's removed-flag loop.
    for (const char *flag : {"--sim-jobs=2", "--segments=4",
                             "--segment-warmup=8", "--videos=bogus"}) {
        lines.push_back({"ci.yml", "vepro-lab",
                         {"--figures=4", "--quick", flag,
                          "--store=.vepro-lab-removed"},
                         "error"});
    }
    // README's and CI's injected-fault loop.
    for (const char *pair :
         {"core:core-latency", "cache:cache-lru", "bpred:bpred-alloc",
          "kernels:kernels-sad", "kernels:kernels-idct", "store:store-bit",
          "energy:backend-energy", "tracefile:tracefile-delta",
          "ladder:ladder-hull", "probe:probe-quiet", "probe:probe-tally",
          "probe:probe-span", "farm:farm-tie", "farm:farm-admit"}) {
        const std::string p = pair;
        const std::string target = p.substr(0, p.find(':'));
        const std::string fault = p.substr(p.find(':') + 1);
        lines.push_back({"README.md, ci.yml", "vepro-check",
                         {"--quick", "--target=" + target,
                          "--inject=" + fault},
                         "target=" + target + " quick=1 inject=" + fault});
    }
    // README's `for b in build/bench/bench_fig* ...; do $b; done`.
    for (const char *bench :
         {"bench_fig08_cbp_p8c63", "bench_fig09_cbp_p4c10",
          "bench_fig10_cbp_p4c60", "bench_fig16_topdown_threads",
          "bench_ablation_bpred_zoo", "bench_ablation_uarch_sizing"}) {
        lines.push_back({"README.md", bench, {}, ""});
    }
    return lines;
}

TEST(CliTraffic, EveryDocumentedCommandLineParsesToItsFields)
{
    const std::vector<Pinned> lines = pinnedTraffic();
    EXPECT_EQ(lines.size(), 67u);
    for (const Pinned &p : lines) {
        std::string cmd = p.tool;
        for (const std::string &a : p.args) {
            cmd += " " + a;
        }
        EXPECT_EQ(fieldsOf(p), p.fields) << cmd << " (" << p.where << ")";
    }
}

TEST(CliTraffic, ReproCommandsParseBackToRepro)
{
    for (check::Target t : check::allTargets()) {
        for (size_t f = 0; f < check::kFaultCount; ++f) {
            for (bool quick : {false, true}) {
                const check::Fault fault = static_cast<check::Fault>(f);
                const std::string cmd =
                    check::Fuzzer::reproCommand(t, 4242, fault, quick);
                std::istringstream words(cmd);
                std::string word;
                words >> word;
                ASSERT_EQ(word, "vepro-check");
                std::vector<std::string> args;
                while (words >> word) {
                    args.push_back(word);
                }
                const std::string want =
                    Fields()
                        .add("mode", std::string("repro"), std::string())
                        .add("target", std::string(check::targetName(t)),
                             std::string("all"))
                        .add("seed", 4242, 1)
                        .add("quick", quick, false)
                        .add("inject", std::string(check::faultName(fault)),
                             std::string("none"))
                        .line();
                EXPECT_EQ(checkLine(args), want) << cmd;
            }
        }
    }
}

// ---- Rows: every row's bad inputs, derived from its kind and range ----

/** One tool's table, for the walk. */
struct Tool {
    const char *name;
    /** The rows, over a scratch config. */
    std::function<core::FlagTable()> table;
    /** Parse a command line into a fresh config; throws UsageError. */
    std::function<void(const std::vector<std::string> &)> parse;
    /** What a valid line needs besides @p row (vepro-lab: a mode). */
    std::function<std::vector<std::string>(const core::Flag &row)> base;
};

std::vector<Tool>
tools()
{
    static core::RunScale scale;
    static lab::LabCli lab_cli;
    static serve::ServeCli serve_cli;
    static check::CheckCli check_cli;
    const auto none = [](const core::Flag &) {
        return std::vector<std::string>{};
    };
    return {
        {"RunScale",
         [] { return core::RunScale::flags(scale); },
         [](const std::vector<std::string> &a) { parseScale(a); },
         none},
        {"vepro-lab", [] { return lab::labFlags(lab_cli); },
         [](const std::vector<std::string> &a) { parseLab(a); },
         [](const core::Flag &row) {
             return row.name == "figures" || row.name == "ladder"
                        ? std::vector<std::string>{}
                        : std::vector<std::string>{"--ladder"};
         }},
        {"vepro-serve", [] { return serve::serveFlags(serve_cli); },
         [](const std::vector<std::string> &a) {
             serve::ServeCli cli;
             core::parseFlags(serve::serveFlags(cli), a);
         },
         none},
        {"vepro-check", [] { return check::checkFlags(check_cli); },
         [](const std::vector<std::string> &a) { parseCheck(a); },
         none},
    };
}

std::string
number(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

/** One value @p row accepts. */
std::string
validValue(const core::Flag &row)
{
    using core::FlagKind;
    if (row.name == "rung-mix") {
        return "1:20,4:80";  // The setter reads each item's pairs.
    }
    switch (row.kind) {
    case FlagKind::Switch:
        return "";
    case FlagKind::Int:
        return std::isfinite(row.min) ? number(row.min) : "1";
    case FlagKind::U64:
        return "7";
    case FlagKind::Double:
        if (!std::isfinite(row.min)) {
            return "1";
        }
        if (!row.open) {
            return number(row.min);
        }
        return number(std::isfinite(row.max) ? (row.min + row.max) / 2
                                             : row.min + 1);
    case FlagKind::String:
        return row.choices.empty() ? "x.out" : row.choices.front();
    case FlagKind::List:
        return row.choices.front() + "," + row.choices.back();
    }
    return "";
}

/** The line that gives @p row: --name, or --name=value. */
std::string
given(const core::Flag &row)
{
    return row.kind == core::FlagKind::Switch
               ? "--" + row.name
               : "--" + row.name + "=" + validValue(row);
}

const core::Flag &
rowNamed(const core::FlagTable &table, const std::string &name)
{
    for (const core::Flag &row : table.rows) {
        if (row.name == name) {
            return row;
        }
    }
    throw std::logic_error("no row " + name);
}

/** Every bad input the row's kind and range imply, as the value part of
 *  a line (the row's own tokens; the caller adds what it needs). */
std::vector<std::vector<std::string>>
badInputs(const core::Flag &row)
{
    using core::FlagKind;
    const std::string flag = "--" + row.name;
    const std::string v = validValue(row);
    if (row.kind == FlagKind::Switch) {
        return {{flag + "=x"}, {flag, flag}};
    }
    std::vector<std::vector<std::string>> bad = {
        {flag + "=" + v, flag + "=" + v},  // a repeat
        {flag},                            // a missing value
        {flag, "--" + v},                  // a space-form value at "--"
        {flag + "="},                      // an empty value
    };
    const auto value = [&](const std::string &text) {
        bad.push_back({flag + "=" + text});
    };
    // Trailing garbage: anything but a free-form string has a grammar.
    if (row.kind != FlagKind::String || !row.choices.empty()) {
        value(v + "x");
    }
    switch (row.kind) {
    case FlagKind::Int:
        value(std::isfinite(row.min) ? number(row.min - 1) : "-2147483649");
        value(std::isfinite(row.max) ? number(row.max + 1) : "2147483648");
        break;
    case FlagKind::U64:
        value("-1");
        value("18446744073709551616");
        break;
    case FlagKind::Double:
        if (std::isfinite(row.min)) {
            value(number(row.open ? row.min : row.min - 1));
        }
        if (std::isfinite(row.max)) {
            value(number(row.open ? row.max : row.max + 1));
        }
        value("nan");
        value("inf");
        break;
    case FlagKind::List: {
        const std::string item = v.substr(0, v.find(','));
        value(item + ",," + item);
        value(item + "," + item);  // A repeated item.
        value("," + item);
        value(item + ",");
        break;
    }
    default:
        break;
    }
    if (!row.choices.empty()) {
        value("no-such-name");
    }
    return bad;
}

std::vector<std::string>
operator+(std::vector<std::string> a, const std::vector<std::string> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

std::string
shown(const std::vector<std::string> &args)
{
    std::string out;
    for (const std::string &a : args) {
        out += (out.empty() ? "'" : " '") + a + "'";
    }
    return out;
}

/** @p args must be a usage error whose message names every flag of
 *  @p flags. */
void
expectUsageError(const Tool &tool, const std::vector<std::string> &args,
                 const std::vector<std::string> &flags)
{
    try {
        tool.parse(args);
        ADD_FAILURE() << tool.name << " accepted " << shown(args);
    } catch (const UsageError &e) {
        for (const std::string &flag : flags) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                << tool.name << " " << shown(args) << ": " << e.what();
        }
    }
}

TEST(CliRows, EveryRowRejectsTheBadInputsItsKindAndRangeImply)
{
    size_t rows = 0, lines = 0;
    for (const Tool &tool : tools()) {
        const core::FlagTable table = tool.table();
        for (const core::Flag &row : table.rows) {
            ++rows;
            // What the row needs comes along, so each line fails on the
            // row's own value.
            std::vector<std::string> with = tool.base(row);
            if (!row.needs.empty()) {
                with.push_back(given(rowNamed(table, row.needs)));
            }
            for (const std::vector<std::string> &bad : badInputs(row)) {
                ++lines;
                expectUsageError(tool, with + bad, {"--" + row.name});
            }
            EXPECT_NO_THROW(tool.parse(with + std::vector{given(row)}))
                << tool.name << " " << given(row);
            if (row.kind != core::FlagKind::Switch) {
                EXPECT_NO_THROW(tool.parse(
                    with + std::vector<std::string>{"--" + row.name,
                                                    validValue(row)}))
                    << tool.name << " --" << row.name << " "
                    << validValue(row);
            }
        }
    }
    // RunScale 8, vepro-lab 3 + 8, vepro-serve 18, vepro-check 9.
    EXPECT_EQ(rows, 46u);
    std::printf("%zu rows, %zu bad lines\n", rows, lines);
}

TEST(CliRows, EveryNeedsAndExcludesIsEnforced)
{
    for (const Tool &tool : tools()) {
        const core::FlagTable table = tool.table();
        for (const core::Flag &row : table.rows) {
            const std::vector<std::string> base = tool.base(row);
            if (!row.needs.empty()) {
                expectUsageError(tool, base + std::vector{given(row)},
                                 {"--" + row.name, "--" + row.needs});
            }
            for (const std::string &other : row.excludes) {
                const core::Flag &excluded = rowNamed(table, other);
                std::vector<std::string> line = {given(row), given(excluded)};
                if (!excluded.needs.empty()) {
                    line.push_back(given(rowNamed(table, excluded.needs)));
                }
                expectUsageError(tool, line,
                                 {"--" + row.name, "--" + other});
            }
        }
    }
}

TEST(CliRows, UsageListsEveryRow)
{
    for (const Tool &tool : tools()) {
        const core::FlagTable table = tool.table();
        const std::string text = core::usage(table);
        for (const core::Flag &row : table.rows) {
            EXPECT_NE(text.find("--" + row.name), std::string::npos)
                << tool.name << " --" << row.name;
            for (const std::string &choice : row.choices) {
                EXPECT_NE(text.find(choice), std::string::npos) << choice;
            }
        }
        EXPECT_NE(text.find("--help"), std::string::npos);
    }
}

// ---- Grammar: the rules, and the faults the one parser mends -----------

TEST(CliGrammar, FullAppliesBeforeUncappedInEitherOrder)
{
    // Table order, not argv order: --uncapped overrides --full's cap.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--uncapped", "--full"},
          std::vector<std::string>{"--full", "--uncapped"}}) {
        const core::RunScale s = parseScale(args);
        EXPECT_EQ(s.maxTraceOps, 0u) << shown(args);
        EXPECT_EQ(s.suite.divisor, 4);
        EXPECT_EQ(s.suite.frames, 12);
    }
}

TEST(CliGrammar, QuickAndFullAreExclusive)
{
    // No order makes sense of both: quick clips with --full's 4 M cap?
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--full", "--quick"},
          std::vector<std::string>{"--quick", "--full", "--quick"}}) {
        EXPECT_THROW(parseScale(args), UsageError) << shown(args);
        EXPECT_THROW(parseLab(std::vector<std::string>{"--ladder"} +
                                      args),
                     UsageError);
    }
}

TEST(CliGrammar, DefaultsAreTheConfigsInitializers)
{
    const core::RunScale def;
    EXPECT_EQ(def.suite.divisor, 8);
    EXPECT_EQ(def.suite.frames, 6);
    EXPECT_EQ(def.maxTraceOps, 1'200'000u);
    Fields want, got;
    addScale(want, def);
    addScale(got, parseScale({}));
    EXPECT_EQ(got.line(), want.line());
    EXPECT_EQ(got.line(), "");

    EXPECT_EQ(serveFields(serve::parseServeCli({})),
              serveFields(serve::ServeCli{}));
    EXPECT_EQ(checkLine({}), "");
    EXPECT_EQ(labLine({"--ladder"}), "ladder=1 grid=[20,32,44,56]");
}

TEST(CliGrammar, RepeatedFlagsAreUsageErrors)
{
    // A repeat is a usage error in every tool, not "the last one wins".
    EXPECT_THROW(parseScale({"--jobs=1", "--jobs=2"}), UsageError);
    EXPECT_THROW(parseLab({"--figures=4", "--figures=5"}),
                 UsageError);
    EXPECT_THROW(parseLab({"--ladder", "--jobs=1", "--jobs=2"}),
                 UsageError);
    EXPECT_NE(serve::parseServeCli({"--users", "5", "--users=6"})
                  .error.find("--users is given twice"),
              std::string::npos);
    EXPECT_THROW(parseCheck({"--seed=1", "--seed=2"}), UsageError);
    EXPECT_THROW(parseCheck({"--quick", "--quick"}), UsageError);
}

TEST(CliGrammar, EmptyListItemsAreUsageErrors)
{
    // An empty item is an error, not a dropped item.
    EXPECT_NE(serve::parseServeCli(
                  {"--backends=xeon-bdw,,graviton-like", "--fleet"})
                  .error.find("--backends"),
              std::string::npos);
    EXPECT_NE(serve::parseServeCli({"--rung-mix=1:20,,4:60"})
                  .error.find("--rung-mix"),
              std::string::npos);
    EXPECT_THROW(parseLab({"--figures=4,,5"}), UsageError);
    EXPECT_THROW(parseScale({"--videos=desktop,,cat"}),
                 UsageError);
}

TEST(CliGrammar, RepeatedListItemsAreUsageErrors)
{
    // A repeat would print its rows twice (--videos, --figures) or
    // double a profile's servers in the fleet's blend (--backends).
    EXPECT_THROW(parseLab({"--figures=7", "--quick", "--videos=cat,cat"}),
                 UsageError);
    EXPECT_THROW(parseLab({"--figures=4,5,4"}), UsageError);
    EXPECT_NE(serve::parseServeCli(
                  {"--fleet", "--quick", "--backends=xeon-bdw,xeon-bdw"})
                  .error.find("--backends repeats 'xeon-bdw'"),
              std::string::npos);
    EXPECT_NE(serve::parseServeCli({"--rung-mix=1:20,1:20"})
                  .error.find("--rung-mix"),
              std::string::npos);
    EXPECT_EQ(labLine({"--figures=t1,1"}), "figures=[t1,1]");
}

TEST(CliGrammar, FlagsTheModeIgnoresAreUsageErrors)
{
    // vepro-serve: the markdown table and the profile list are the fleet
    // sweep's, and the fleet's mixes set the servers' profiles.
    EXPECT_NE(serve::parseServeCli({"--markdown=x.md"}).error,
              "");  // --markdown writes the fleet table only.
    EXPECT_NE(serve::parseServeCli({"--quick", "--backends=xeon-bdw"}).error,
              "");
    EXPECT_NE(serve::parseServeCli({"--fleet", "--backend=graviton-like"})
                  .error.find("--fleet"),
              std::string::npos);
    EXPECT_EQ(serve::parseServeCli({"--fleet", "--markdown=x.md"}).error, "");

    // vepro-check: --case and repro mode replay one case.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--case="},
          {"--corpus="},
          {"--repro-out="},
          {"--case=c.case", "--seed=3"},
          {"--case=c.case", "--target=core"},
          {"--case=c.case", "--iters=3"},
          {"--case=c.case", "--corpus=dir"},
          {"--target=ladder", "--seed=1", "--corpus=dir"}}) {
        EXPECT_THROW(parseCheck(args), UsageError) << shown(args);
    }
    EXPECT_EQ(checkLine({"--target=ladder", "--seed=1", "--iters=5",
                         "--corpus=dir"}),
              "target=ladder iters=5 corpus=dir");
    EXPECT_EQ(checkLine({"--seed=5", "--corpus=dir"}), "seed=5 corpus=dir");
    EXPECT_EQ(checkLine({"--case=c.case", "--quick", "--inject=cache-lru"}),
              "mode=case quick=1 inject=cache-lru case=c.case");

    // vepro-lab: Table 1 and figures 1, 2 and 11-15 run fixed clips
    // whatever --videos says; Table 2 and figures 3-7 read it.
    for (const char *ids : {"--figures=11", "--figures=t1", "--figures=1",
                            "--figures=2", "--figures=12,13,14,15"}) {
        EXPECT_THROW(parseLab({ids, "--videos=desktop"}), UsageError)
            << ids;
    }
    EXPECT_EQ(labLine({"--figures=4,11", "--videos=desktop"}),
              "figures=[4,11] videos=[desktop]");
    EXPECT_EQ(labLine({"--figures=t1,t2", "--videos=desktop"}),
              "figures=[t1,t2] videos=[desktop]");
    EXPECT_EQ(labLine({"--figures=3", "--videos=desktop"}),
              "figures=[3] videos=[desktop]");
    EXPECT_EQ(labLine({"--ladder", "--videos=desktop"}),
              "ladder=1 grid=[20,32,44,56] videos=[desktop]");
    EXPECT_THROW(parseLab({"--ladder", "--figures=4"}), UsageError);
    EXPECT_THROW(parseLab({"--quick"}), UsageError);

    // A bench accepts the RunScale flags its main reads, and no
    // google-benchmark flag.
    for (const char *bench :
         {"bench_fig16_topdown_threads", "bench_fig09_cbp_p4c10",
          "bench_ablation_uarch_sizing"}) {
        EXPECT_EQ(benchLine(bench, {"--benchmark_filter=x"}), "error");
        EXPECT_EQ(benchLine(bench, {"--store=st"}), "error");
        EXPECT_EQ(benchLine(bench, {"--no-cache"}), "error");
        EXPECT_EQ(benchLine(bench, {"--backend=graviton-like"}), "error");
    }
    EXPECT_EQ(benchLine("bench_ablation_uarch_sizing", {"--videos=desktop"}),
              "error");
    EXPECT_EQ(benchLine("bench_ablation_uarch_sizing", {"--jobs=2"}),
              "error");
    EXPECT_EQ(benchLine("bench_fig16_topdown_threads", {"--jobs=2"}),
              "jobs=2");
    EXPECT_EQ(benchLine("bench_fig16_topdown_threads", {"--videos=cat"}),
              "error");
    EXPECT_EQ(benchLine("bench_ablation_uarch_sizing", {"--uncapped"}),
              "cap=0");
    EXPECT_EQ(benchLine("bench_fig09_cbp_p4c10", {"--uncapped"}), "error");
    EXPECT_THROW(parseScale({"--benchmark_filter=x"}), UsageError);
}

TEST(CliGrammar, SpaceAndEqualsFormsAgree)
{
    EXPECT_EQ(labLine({"--figures", "4", "--jobs", "2", "--store", "st"}),
              labLine({"--figures=4", "--jobs=2", "--store=st"}));
    EXPECT_EQ(serveLine({"--users", "77", "--quick"}),
              serveLine({"--quick", "--users=77"}));
    EXPECT_EQ(checkLine({"--target", "core", "--seed", "9"}),
              "mode=repro target=core seed=9");
    // A space-form value may not start with "--"; a single dash is a
    // value (and here out of range).
    EXPECT_THROW(parseScale({"--store", "--quick"}), UsageError);
    EXPECT_NE(serve::parseServeCli({"--users", "-1"}).error.find(">= 0"),
              std::string::npos);
    EXPECT_THROW(parseScale({"stray"}), UsageError);
}

TEST(CliGrammar, HelpIsAParserRule)
{
    EXPECT_THROW(parseScale({"--help"}), core::HelpRequested);
    EXPECT_THROW(parseLab({"--figures=4", "--help"}),
                 core::HelpRequested);
    EXPECT_THROW(parseCheck({"-h"}), core::HelpRequested);
    EXPECT_TRUE(serve::parseServeCli({"--quick", "--help"}).showHelp);
    EXPECT_TRUE(serve::parseServeCli({"--help"}).error.empty());
}

TEST(CliGrammar, UsageErrorsAreInvalidArguments)
{
    // Callers that catch std::invalid_argument keep catching them.
    EXPECT_THROW(parseScale({"--jobs=x"}), std::invalid_argument);
    try {
        parseScale({"--bogus"});
        FAIL();
    } catch (const UsageError &e) {
        EXPECT_STREQ(e.what(), "unknown option --bogus");
    }
}

} // namespace
