/**
 * @file
 * `vepro-check` — differential fuzz driver for the optimized simulator
 * (flags: check::checkFlags, or `vepro-check --help`).
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
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"

int
main(int argc, char **argv)
{
    using namespace vepro;
    check::CheckCli cli;
    core::parseFlagsOrExit(check::checkFlags(cli), argc, argv);

    check::Fuzzer fuzzer(cli.options);
    check::FuzzReport report;

    if (!cli.caseFile.empty() || cli.repro()) {
        // One case: --case=FILE's, or exactly the printed repro's.
        check::CorpusCase c{cli.target.value_or(check::Target::Core),
                            cli.options.baseSeed};
        std::string err;
        if (!cli.caseFile.empty() &&
            !check::loadCorpusCase(cli.caseFile, c, err)) {
            std::fprintf(stderr, "vepro-check: %s\n", err.c_str());
            return 2;
        }
        ++report.cases;
        check::Divergence d;
        if (fuzzer.runCase(c.target, c.seed, d)) {
            report.divergences.push_back(d);
        }
    } else {
        if (!cli.corpusDir.empty()) {
            check::FuzzReport corpus;
            try {
                corpus = fuzzer.runCorpus(cli.corpusDir);
            } catch (const std::invalid_argument &err) {
                std::fprintf(stderr, "vepro-check: %s\n", err.what());
                return 2;
            }
            std::printf("corpus: %llu cases, %zu divergences\n",
                        static_cast<unsigned long long>(corpus.cases),
                        corpus.divergences.size());
            report.cases += corpus.cases;
            for (auto &d : corpus.divergences) {
                report.divergences.push_back(std::move(d));
            }
        }
        const std::vector<check::Target> targets =
            cli.target ? std::vector<check::Target>{*cli.target}
                       : check::allTargets();
        for (check::Target t : targets) {
            check::FuzzReport r = fuzzer.run(t);
            std::printf("%-8s %3d cases, %zu divergences\n",
                        check::targetName(t), fuzzer.itersFor(t),
                        r.divergences.size());
            report.cases += r.cases;
            for (auto &d : r.divergences) {
                report.divergences.push_back(std::move(d));
            }
        }
    }

    for (const check::Divergence &d : report.divergences) {
        std::fprintf(stderr, "DIVERGENCE [%s seed=%llu]\n  %s\n  repro: %s\n",
                     check::targetName(d.target),
                     static_cast<unsigned long long>(d.seed),
                     d.detail.c_str(), d.repro.c_str());
    }
    if (!cli.reproOut.empty() && !report.divergences.empty()) {
        std::ofstream out(cli.reproOut, std::ios::trunc);
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
