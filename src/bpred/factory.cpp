#include "bpred/predictor.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>

#include "bpred/bimodal.hpp"
#include "bpred/gshare.hpp"
#include "bpred/perceptron.hpp"
#include "bpred/tage.hpp"
#include "bpred/tage_sc_l.hpp"
#include "bpred/tournament.hpp"

namespace vepro::bpred
{

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &spec)
{
    auto dash = spec.rfind('-');
    if (dash == std::string::npos) {
        throw std::invalid_argument("makePredictor: expected '<kind>-<N>KB'");
    }
    std::string kind = spec.substr(0, dash);
    std::string size = spec.substr(dash + 1);
    if (size.size() < 3 || size.substr(size.size() - 2) != "KB") {
        throw std::invalid_argument("makePredictor: budget must end in KB");
    }
    // The whole token before "KB" must be decimal digits, and the byte
    // count must fit in size_t.
    const char *first = size.data();
    const char *last = first + size.size() - 2;
    size_t kb = 0;
    const auto [end, err] = std::from_chars(first, last, kb);
    if (err != std::errc() || end != last ||
        kb > std::numeric_limits<size_t>::max() / 1024) {
        throw std::invalid_argument("makePredictor: bad budget in '" + spec +
                                    "'");
    }
    size_t bytes = kb * 1024;

    if (kind == "gshare") {
        return std::make_unique<GsharePredictor>(bytes);
    }
    if (kind == "tage") {
        return std::make_unique<TagePredictor>(bytes);
    }
    if (kind == "tage-sc-l") {
        return std::make_unique<TageScLPredictor>(bytes);
    }
    if (kind == "bimodal") {
        return std::make_unique<BimodalPredictor>(bytes);
    }
    if (kind == "perceptron") {
        return std::make_unique<PerceptronPredictor>(bytes);
    }
    if (kind == "tournament") {
        return std::make_unique<TournamentPredictor>(bytes);
    }
    throw std::invalid_argument("makePredictor: unknown kind '" + kind + "'");
}

} // namespace vepro::bpred
