#ifndef VEPRO_LAB_FIGURES_HPP
#define VEPRO_LAB_FIGURES_HPP

/**
 * @file
 * Declarative registry of the paper artifacts the lab can regenerate:
 * each table or figure declares the JobSpecs it needs and renders its
 * tables from the orchestrator's results. Running several together
 * dedupes their overlapping points (figs 3-7 share one CRF sweep, figs
 * 12-15 three encodes), and every point comes from — or lands in — the
 * persistent store, so re-rendering any of them is pure cache hits.
 * Of the artifacts that need no core simulation, Table 2 and figs 1,
 * 2 and 12-15 request encode-only points, Table 1 requests none, and
 * fig 3 reads the op mix of fig 4's sweep.
 */

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "lab/orchestrator.hpp"
#include "video/suite.hpp"

namespace vepro::lab
{

/** One rendered table of a figure. */
struct NamedTable {
    std::string slug;     ///< Artifact key ("mpki", "stalls", ...).
    std::string caption;  ///< The caption the bench prints.
    core::Table table;
};

/** A fully rendered figure or table. */
struct FigureResult {
    std::string id;             ///< The --figures id: "4", "t1", ...
    std::string slug;           ///< "fig04", "table1", ...
    std::vector<NamedTable> tables;
    std::string expectedShape;  ///< The paper's qualitative claim.
};

/**
 * The clips a CRF sweep covers: explicit --videos= > full suite
 * (--full) > the 5-clip entropy-spanning quick subset.
 */
std::vector<video::SuiteEntry> sweepClips(const core::RunScale &scale);

/**
 * Regenerate figures and tables: request every point of every listed
 * id on @p orch (deduped across them), resolve them in one run, and
 * render, in the order given.
 * @throws std::invalid_argument for an unsupported id.
 */
std::vector<FigureResult> runFigures(const std::vector<std::string> &ids,
                                     const core::RunScale &scale,
                                     Orchestrator &orch);

/** Everything vepro-lab's main() needs from argv. */
struct LabCli {
    std::vector<std::string> figures;  ///< --figures ids, in order.
    bool ladder = false;               ///< The ABR ladder sweep instead.
    std::string outDir = "vepro-lab-out";
    core::RunScale scale;
};

/** vepro-lab's flag table: --figures or --ladder, --out, then every
 *  RunScale row; --videos needs an id whose clips follow it (t2, 3-7). */
core::FlagTable labFlags(LabCli &out);

} // namespace vepro::lab

#endif // VEPRO_LAB_FIGURES_HPP
