/**
 * @file
 * `vepro-lab` — regenerate any subset of the paper's figures in one
 * invocation, backed by the persistent experiment store:
 *
 *   vepro-lab --figures=4,5,6,7,11 --jobs=4 [--quick|--full]
 *             [--no-cache] [--store=DIR] [--out=DIR] [--videos=a,b,c]
 *
 * Overlapping sweep points across the requested figures run once;
 * everything already in the store is a cache hit. Each figure's tables
 * print as markdown on stdout and land as a JSON artifact in --out
 * (default vepro-lab-out/), byte-identical across re-runs of the same
 * configuration.
 *
 * `vepro-lab --ladder` runs the per-title ABR ladder instead (see
 * src/ladder): every clip × {1/1, 1/2, 1/4} × CRF grid cache-first,
 * convex-hull ladder extraction, and the rung-mix uarch
 * characterization, with the same store and artifact contract
 * (ladder.json in --out).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "lab/figures.hpp"
#include "lab/orchestrator.hpp"
#include "ladder/ladder.hpp"

namespace
{

using namespace vepro;

[[noreturn]] void
usage(const char *argv0, const std::string &error)
{
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::string known;
    for (int id : lab::supportedFigures()) {
        known += (known.empty() ? "" : ",") + std::to_string(id);
    }
    std::fprintf(stderr,
                 "usage: %s (--figures=%s | --ladder) [--jobs=N] "
                 "[--quick|--full] "
                 "[--uncapped] [--no-cache] [--store=DIR] [--out=DIR] "
                 "[--videos=a,b,c]\n"
                 "       --jobs=0 auto-detects hardware threads\n",
                 argv0, known.c_str());
    std::exit(2);
}

std::vector<int>
parseFigureList(const std::string &list)
{
    std::vector<int> ids;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
            comma = list.size();
        }
        ids.push_back(core::parseIntStrict(list.substr(pos, comma - pos),
                                           "--figures"));
        pos = comma + 1;
    }
    return ids;
}

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

int
runLadder(const core::RunScale &scale, bool full, const std::string &out_dir)
{
    lab::Orchestrator orch(lab::OrchestratorOptions::fromRunScale(scale));
    ladder::LadderConfig config = ladder::ladderConfigFromScale(scale, full);
    ladder::LadderResult result = ladder::sweep(config, orch);

    result.ladder.print("Per-title ladder (convex hull of bitrate vs "
                        "source-resolution PSNR)");
    result.rd.print("All measured rungs");
    result.uarch.print("Rung workload characterization (CPI stack, MPKI)");
    std::printf("\n%s\n", result.mixLine.c_str());

    std::filesystem::create_directories(out_dir);
    std::string json = "{\n  \"ladder\": true,\n  \"tables\": {";
    json += "\n    \"ladder\": " + result.ladder.toJson();
    json += ",\n    \"rd\": " + result.rd.toJson();
    json += ",\n    \"uarch\": " + result.uarch.toJson();
    json += "\n  },\n  \"mix\": \"" + result.mixLine + "\"\n}\n";
    writeArtifact(out_dir, "ladder.json", json);

    std::printf("\nvepro-lab: %s\n", orch.summaryLine().c_str());
    std::printf("vepro-lab: %s\n", orch.traceLine().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> figure_ids;
    std::string out_dir = "vepro-lab-out";
    bool ladder_mode = false;
    bool full = false;

    // Split off the lab-only flags; everything else is RunScale's.
    std::vector<std::string> owned;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--figures=", 0) == 0) {
            try {
                figure_ids = parseFigureList(arg.substr(10));
            } catch (const std::exception &e) {
                usage(argv[0], e.what());
            }
        } else if (arg == "--ladder") {
            ladder_mode = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            out_dir = arg.substr(6);
            if (out_dir.empty()) {
                usage(argv[0], "--out expects a directory");
            }
        } else {
            if (arg == "--full") {
                full = true;  // also RunScale's: stays in owned
            }
            owned.push_back(std::move(arg));
        }
    }
    std::vector<char *> scale_args;
    scale_args.push_back(argv[0]);
    for (std::string &arg : owned) {
        scale_args.push_back(arg.data());
    }

    if (ladder_mode && !figure_ids.empty()) {
        usage(argv[0], "--ladder and --figures are mutually exclusive");
    }
    if (!ladder_mode && figure_ids.empty()) {
        usage(argv[0], "--figures=... or --ladder is required");
    }

    core::RunScale scale;
    try {
        scale = core::RunScale::fromArgs(static_cast<int>(scale_args.size()),
                                         scale_args.data());
    } catch (const std::exception &e) {
        usage(argv[0], e.what());
    }

    try {
        if (ladder_mode) {
            return runLadder(scale, full, out_dir);
        }
        lab::Orchestrator orch(lab::OrchestratorOptions::fromRunScale(scale));
        std::vector<lab::FigureResult> figures =
            lab::runFigures(figure_ids, scale, orch);

        std::filesystem::create_directories(out_dir);
        for (const lab::FigureResult &fig : figures) {
            for (const lab::NamedTable &t : fig.tables) {
                t.table.print(t.caption);
            }
            std::printf("\n%s\n", fig.expectedShape.c_str());

            // One artifact per figure: every table, keyed by slug.
            std::string json = "{\n  \"figure\": " + std::to_string(fig.id) +
                               ",\n  \"tables\": {";
            for (size_t i = 0; i < fig.tables.size(); ++i) {
                json += (i ? ",\n    \"" : "\n    \"") +
                        fig.tables[i].slug + "\": " +
                        fig.tables[i].table.toJson();
            }
            json += "\n  }\n}\n";
            writeArtifact(out_dir, fig.slug + ".json", json);
        }
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
