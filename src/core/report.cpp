#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace vepro::core
{

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
    if (header_.empty()) {
        throw std::invalid_argument("Table: empty header");
    }
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size()) {
        throw std::invalid_argument("Table: row width mismatch");
    }
    rows_.push_back(std::move(row));
}

std::string
Table::toMarkdown() const
{
    // Column widths for aligned output.
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c) {
        width[c] = header_[c].size();
    }
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            width[c] = std::max(width[c], row[c].size());
        }
    }
    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &cells) {
        out << "|";
        for (size_t c = 0; c < cells.size(); ++c) {
            out << " " << cells[c]
                << std::string(width[c] - cells[c].size(), ' ') << " |";
        }
        out << "\n";
    };
    emit(header_);
    out << "|";
    for (size_t c = 0; c < header_.size(); ++c) {
        out << std::string(width[c] + 2, '-') << "|";
    }
    out << "\n";
    for (const auto &row : rows_) {
        emit(row);
    }
    return out.str();
}

namespace
{

/** Minimal JSON string escape for table cells and header names. */
std::string
jsonCell(const std::string &cell)
{
    std::string out;
    out.reserve(cell.size() + 2);
    out.push_back('"');
    for (char c : cell) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

} // namespace

std::string
Table::toJson() const
{
    std::ostringstream out;
    out << "[";
    for (size_t r = 0; r < rows_.size(); ++r) {
        out << (r ? ",\n  " : "\n  ") << "{";
        for (size_t c = 0; c < header_.size(); ++c) {
            if (c) {
                out << ", ";
            }
            out << jsonCell(header_[c]) << ": " << jsonCell(rows_[r][c]);
        }
        out << "}";
    }
    out << (rows_.empty() ? "]" : "\n]");
    return out.str();
}

void
Table::print(const std::string &caption) const
{
    std::printf("\n== %s ==\n%s", caption.c_str(), toMarkdown().c_str());
    std::fflush(stdout);
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

std::string
fmtCount(uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0) {
            out.push_back(',');
        }
        out.push_back(*it);
        ++count;
    }
    return {out.rbegin(), out.rend()};
}

std::string
fmtSci(double value)
{
    if (value == 0.0) {
        return "0";
    }
    int exp = static_cast<int>(std::floor(std::log10(std::fabs(value))));
    double mant = value / std::pow(10.0, exp);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fE+%02d", mant, exp);
    return buf;
}

} // namespace vepro::core
