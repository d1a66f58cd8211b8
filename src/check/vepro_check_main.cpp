/**
 * @file
 * `vepro-check` — differential fuzz driver for the optimized simulator:
 *
 *   vepro-check [--target=core|cache|bpred|kernels|store|parallel|energy|
 *                         tracefile|ladder|probe|farm|all]
 *               [--iters=N] [--seed=N] [--quick] [--no-shrink]
 *               [--corpus=DIR] [--case=FILE] [--inject=FAULT]
 *               [--repro-out=FILE]
 *
 * Runs the seeded property-fuzz harness (check::Fuzzer) that replays
 * randomized adversarial inputs through both the optimized hot paths
 * and the slow reference oracles, demanding bit-identical results. On a
 * divergence it prints the field-level mismatch, the ddmin-shrunk
 * failing input size, and a one-command repro, then exits 1.
 *
 * `--seed=N` (with `--target=<t>`) replays exactly one case — the repro
 * path. `--corpus=DIR` replays every *.case seed file first (CI runs
 * the checked-in corpus before fresh fuzzing). `--inject=<fault>`
 * deliberately breaks one reference rule; the run then MUST fail,
 * which is how the harness proves its own sensitivity.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "check/fuzzer.hpp"
#include "core/experiment.hpp"

namespace
{

using namespace vepro;

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::fprintf(
        stderr,
        "usage: vepro-check "
        "[--target=core|cache|bpred|kernels|store|parallel|energy|"
        "tracefile|ladder|probe|farm|all]\n"
        "                   [--iters=N] [--seed=N] [--quick] [--no-shrink]\n"
        "                   [--corpus=DIR] [--case=FILE] [--inject=FAULT]\n"
        "                   [--repro-out=FILE]\n"
        "faults: none cache-lru core-latency bpred-alloc kernels-sad "
        "store-bit parallel-drop backend-energy tracefile-delta "
        "ladder-hull probe-quiet probe-tally farm-tie\n");
    std::exit(2);
}

void
printDivergences(const check::FuzzReport &report)
{
    for (const check::Divergence &d : report.divergences) {
        std::fprintf(stderr, "DIVERGENCE [%s seed=%llu]\n  %s\n  repro: %s\n",
                     check::targetName(d.target),
                     static_cast<unsigned long long>(d.seed),
                     d.detail.c_str(), d.repro.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions options;
    std::string target_arg = "all";
    std::string corpus_dir;
    std::string case_file;
    std::string repro_out;
    bool seed_given = false;

    // A bad number (core::parseU64Strict) is a usage error too.
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--target=", 0) == 0) {
                target_arg = arg.substr(9);
            } else if (arg.rfind("--iters=", 0) == 0) {
                options.iters = static_cast<int>(
                    core::parseU64Strict(arg.substr(8), "--iters"));
            } else if (arg.rfind("--seed=", 0) == 0) {
                options.baseSeed =
                    core::parseU64Strict(arg.substr(7), "--seed");
                seed_given = true;
            } else if (arg == "--quick") {
                options.quick = true;
            } else if (arg == "--no-shrink") {
                options.shrink = false;
            } else if (arg.rfind("--corpus=", 0) == 0) {
                corpus_dir = arg.substr(9);
            } else if (arg.rfind("--case=", 0) == 0) {
                case_file = arg.substr(7);
            } else if (arg.rfind("--inject=", 0) == 0) {
                if (!check::parseFault(arg.substr(9), options.inject)) {
                    usage("unknown fault '" + arg.substr(9) + "'");
                }
            } else if (arg.rfind("--repro-out=", 0) == 0) {
                repro_out = arg.substr(12);
            } else {
                usage("unknown flag '" + arg + "'");
            }
        }
    } catch (const std::invalid_argument &err) {
        usage(err.what());
    }

    check::Target target = check::Target::Core;
    const bool all_targets = target_arg == "all";
    if (!all_targets && !check::parseTarget(target_arg, target)) {
        usage("unknown target '" + target_arg + "'");
    }

    check::Fuzzer fuzzer(options);
    check::FuzzReport report;

    if (!case_file.empty()) {
        check::CorpusCase c;
        std::string err;
        if (!check::loadCorpusCase(case_file, c, err)) {
            usage(err);
        }
        ++report.cases;
        check::Divergence d;
        if (fuzzer.runCase(c.target, c.seed, d)) {
            report.divergences.push_back(d);
        }
    } else if (seed_given && !all_targets && options.iters == 0) {
        // Repro mode: exactly the one printed case.
        ++report.cases;
        check::Divergence d;
        if (fuzzer.runCase(target, options.baseSeed, d)) {
            report.divergences.push_back(d);
        }
    } else {
        if (!corpus_dir.empty()) {
            check::FuzzReport corpus = fuzzer.runCorpus(corpus_dir);
            std::printf("corpus: %llu cases, %zu divergences\n",
                        static_cast<unsigned long long>(corpus.cases),
                        corpus.divergences.size());
            report.cases += corpus.cases;
            for (auto &d : corpus.divergences) {
                report.divergences.push_back(std::move(d));
            }
        }
        if (all_targets) {
            for (check::Target t : check::allTargets()) {
                check::FuzzReport r = fuzzer.run(t);
                std::printf("%-8s %3d cases, %zu divergences\n",
                            check::targetName(t), fuzzer.itersFor(t),
                            r.divergences.size());
                report.cases += r.cases;
                for (auto &d : r.divergences) {
                    report.divergences.push_back(std::move(d));
                }
            }
        } else {
            check::FuzzReport r = fuzzer.run(target);
            std::printf("%-8s %3d cases, %zu divergences\n",
                        check::targetName(target), fuzzer.itersFor(target),
                        r.divergences.size());
            report.cases += r.cases;
            for (auto &d : r.divergences) {
                report.divergences.push_back(std::move(d));
            }
        }
    }

    printDivergences(report);
    if (!repro_out.empty() && !report.divergences.empty()) {
        std::ofstream out(repro_out, std::ios::trunc);
        for (const check::Divergence &d : report.divergences) {
            out << d.repro << "\n  # " << d.detail << "\n";
        }
    }

    if (!report.divergences.empty()) {
        std::fprintf(stderr, "vepro-check: FAILED (%zu divergences in %llu "
                             "cases)\n",
                     report.divergences.size(),
                     static_cast<unsigned long long>(report.cases));
        return 1;
    }
    std::printf("vepro-check: OK (%llu cases, 0 divergences)\n",
                static_cast<unsigned long long>(report.cases));
    return 0;
}
