#ifndef VEPRO_LAB_FIGURES_HPP
#define VEPRO_LAB_FIGURES_HPP

/**
 * @file
 * Declarative registry of the paper figures the lab can regenerate:
 * each figure declares the JobSpecs it needs and renders its tables
 * from the orchestrator's results. Running several figures together
 * dedupes their overlapping sweep points (figs 4-7 share one CRF
 * sweep), and every point comes from — or lands in — the persistent
 * store, so re-rendering any figure is pure cache hits.
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

/** A fully rendered figure. */
struct FigureResult {
    int id = 0;                 ///< Paper figure number.
    std::string slug;           ///< "fig04", "fig11", ...
    std::vector<NamedTable> tables;
    std::string expectedShape;  ///< The paper's qualitative claim.
};

/** The figure ids runFigures() understands (ascending). */
const std::vector<int> &supportedFigures();

/**
 * The clips a CRF sweep covers: explicit --videos= > full suite
 * (--full) > the 5-clip entropy-spanning quick subset.
 */
std::vector<video::SuiteEntry> sweepClips(const core::RunScale &scale);

/**
 * Regenerate figures: request every point of every listed figure on
 * @p orch (deduped across figures), resolve them in one run, and
 * render. Ids render in the order given; duplicates collapse.
 * @throws std::invalid_argument for an unsupported id.
 */
std::vector<FigureResult> runFigures(const std::vector<int> &ids,
                                     const core::RunScale &scale,
                                     Orchestrator &orch);

/** Everything vepro-lab's main() needs from argv. */
struct LabCli {
    std::vector<int> figures;  ///< --figures ids, in the order given.
    bool ladder = false;       ///< The ABR ladder sweep instead.
    std::string outDir = "vepro-lab-out";
    core::RunScale scale;
};

/** vepro-lab's flag table: --figures or --ladder, --out, then every
 *  RunScale row; --videos needs a figure that sweeps sweepClips(). */
core::FlagTable labFlags(LabCli &out);

} // namespace vepro::lab

#endif // VEPRO_LAB_FIGURES_HPP
