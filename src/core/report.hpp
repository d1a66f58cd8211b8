#ifndef VEPRO_CORE_REPORT_HPP
#define VEPRO_CORE_REPORT_HPP

/**
 * @file
 * Small table/series formatters shared by the bench binaries: every bench
 * prints the rows/series of its paper artifact through these, so output
 * is uniform and machine-greppable.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace vepro::core
{

/** A printable table: header plus rows of preformatted cells. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append a row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Render as github-style markdown. */
    std::string toMarkdown() const;

    /**
     * Render as a JSON array of row objects keyed by the header, with
     * the preformatted cell text as string values. Deterministic: the
     * same table always serialises to the same bytes (the vepro-lab
     * artifact contract).
     */
    std::string toJson() const;

    /** Print the markdown form to stdout with a caption line. */
    void print(const std::string &caption) const;

    size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format with @p decimals fraction digits. */
std::string fmt(double value, int decimals = 2);

/** Format an integer count with thousands separators ("12,345,678"). */
std::string fmtCount(uint64_t value);

/** Format in engineering notation like the paper's Table 2 ("1.7E+11"). */
std::string fmtSci(double value);

} // namespace vepro::core

#endif // VEPRO_CORE_REPORT_HPP
