#include "video/suite.hpp"

#include <stdexcept>

#include "core/fnv.hpp"
#include "video/generator.hpp"

namespace vepro::video
{

const std::vector<SuiteEntry> &
vbenchMini()
{
    // Mirrors the paper's Table 1 (with the duplicate "bike" row replaced
    // by "house", which Table 2 references). Entropy values are vbench's.
    static const std::vector<SuiteEntry> entries = {
        {"desktop",      1280,  720, 30, 0.2},
        {"presentation", 1920, 1080, 25, 0.2},
        {"bike",         1280,  720, 29, 0.92},
        {"funny",        1920, 1080, 30, 2.5},
        {"house",        1280,  720, 29, 3.4},
        {"cricket",      1280,  720, 30, 3.4},
        {"game1",        1920, 1080, 60, 4.6},
        {"game2",        1280,  720, 30, 4.9},
        {"game3",        1280,  720, 59, 6.1},
        {"girl",         1280,  720, 30, 5.9},
        {"chicken",      3840, 2160, 30, 5.9},
        {"cat",           854,  480, 29, 6.8},
        {"holi",          854,  480, 30, 7.0},
        {"landscape",    1920, 1080, 29, 7.2},
        {"hall",         1920, 1080, 29, 7.7},
    };
    return entries;
}

const SuiteEntry &
suiteEntry(const std::string &name)
{
    for (const SuiteEntry &e : vbenchMini()) {
        if (e.name == name) {
            return e;
        }
    }
    throw std::out_of_range("suiteEntry: unknown clip '" + name + "'");
}

std::pair<int, int>
scaledSize(const SuiteEntry &entry, const SuiteScale &scale)
{
    if (scale.divisor <= 0) {
        throw std::invalid_argument("scaledSize: divisor must be positive");
    }
    auto round16 = [](int v) {
        int r = ((v + 8) / 16) * 16;
        return r < 32 ? 32 : r;
    };
    return {round16(entry.nominalWidth / scale.divisor),
            round16(entry.nominalHeight / scale.divisor)};
}

std::string
resolutionClass(const SuiteEntry &entry)
{
    return std::to_string(entry.nominalHeight) + "p";
}

Video
loadSuiteVideo(const SuiteEntry &entry, const SuiteScale &scale)
{
    auto [w, h] = scaledSize(entry, scale);
    GeneratorParams params;
    params.width = w;
    params.height = h;
    params.frames = scale.frames;
    params.fps = entry.fps;
    params.entropy = entry.paperEntropy;
    // Stable per-clip seed so every experiment sees identical content.
    params.seed = core::fnv1a64(entry.name);
    return generate(entry.name, params);
}

Video
loadSuiteVideo(const std::string &name, const SuiteScale &scale)
{
    return loadSuiteVideo(suiteEntry(name), scale);
}

} // namespace vepro::video
