/**
 * @file
 * `vepro-lab` — regenerate any subset of the paper's tables and figures
 * in one invocation (`vepro-lab --figures=t1,t2,1,2,3,4,5,6,7,11 --jobs=4`),
 * backed by the persistent experiment store (flags: lab::labFlags, or
 * `--help`).
 *
 * Overlapping sweep points across the requested figures run once;
 * everything already in the store is a cache hit. Each figure's tables
 * print as markdown on stdout and land as a JSON artifact in --out
 * (default vepro-lab-out/: fig04.json, table1.json, ...),
 * byte-identical across re-runs of the same configuration.
 *
 * `vepro-lab --ladder` runs the per-title ABR ladder instead (see
 * src/ladder): every clip × {1/1, 1/2, 1/4} × CRF grid cache-first,
 * convex-hull ladder extraction, and the rung-mix uarch
 * characterization, with the same store and artifact contract
 * (ladder.json in --out).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lab/figures.hpp"
#include "lab/orchestrator.hpp"
#include "ladder/ladder.hpp"

namespace
{

using namespace vepro;

/** Write @p json to <out_dir>/<name> atomically enough for CI's cmp. */
void
writeArtifact(const std::string &out_dir, const std::string &name,
              const std::string &json)
{
    std::filesystem::path path = std::filesystem::path(out_dir) / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw std::runtime_error("cannot write " + path.string());
    }
    out << json;
    if (!out.flush()) {
        throw std::runtime_error("short write to " + path.string());
    }
    std::printf("wrote %s\n", path.string().c_str());
}

void
runLadder(lab::Orchestrator &orch, const lab::LabCli &cli)
{
    ladder::LadderResult result =
        ladder::sweep(ladder::ladderConfigFromScale(cli.scale), orch);

    result.ladder.print("Per-title ladder (convex hull of bitrate vs "
                        "source-resolution PSNR)");
    result.rd.print("All measured rungs");
    result.uarch.print("Rung workload characterization (CPI stack, MPKI)");
    std::printf("\n%s\n", result.mixLine.c_str());

    std::filesystem::create_directories(cli.outDir);
    std::string json = "{\n  \"ladder\": true,\n  \"tables\": {";
    json += "\n    \"ladder\": " + result.ladder.toJson();
    json += ",\n    \"rd\": " + result.rd.toJson();
    json += ",\n    \"uarch\": " + result.uarch.toJson();
    json += "\n  },\n  \"mix\": \"" + result.mixLine + "\"\n}\n";
    writeArtifact(cli.outDir, "ladder.json", json);
}

void
runFigureList(lab::Orchestrator &orch, const lab::LabCli &cli)
{
    std::vector<lab::FigureResult> figures =
        lab::runFigures(cli.figures, cli.scale, orch);
    std::filesystem::create_directories(cli.outDir);
    for (const lab::FigureResult &fig : figures) {
        for (const lab::NamedTable &t : fig.tables) {
            t.table.print(t.caption);
        }
        std::printf("\n%s\n", fig.expectedShape.c_str());

        // One artifact per figure: every table, keyed by slug, under
        // "figure": 4 or, for a table's id t1, "table": 1.
        const bool table = fig.id.front() == 't';
        std::string json = std::string("{\n  \"") +
                           (table ? "table" : "figure") +
                           "\": " + fig.id.substr(table ? 1 : 0) +
                           ",\n  \"tables\": {";
        for (size_t i = 0; i < fig.tables.size(); ++i) {
            json += (i ? ",\n    \"" : "\n    \"") + fig.tables[i].slug +
                    "\": " + fig.tables[i].table.toJson();
        }
        json += "\n  }\n}\n";
        writeArtifact(cli.outDir, fig.slug + ".json", json);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    lab::LabCli cli;
    core::parseFlagsOrExit(lab::labFlags(cli), argc, argv);
    try {
        lab::Orchestrator orch(
            lab::OrchestratorOptions::fromRunScale(cli.scale));
        (cli.ladder ? runLadder : runFigureList)(orch, cli);
        std::printf("\nvepro-lab: %s\n", orch.summaryLine().c_str());
        // Always printed (even on a fully result-cached run) so CI can
        // assert that a trace-warm sweep does zero encoder work.
        std::printf("vepro-lab: %s\n", orch.traceLine().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vepro-lab: %s\n", e.what());
        return 1;
    }
    return 0;
}
