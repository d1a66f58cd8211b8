#ifndef VEPRO_ENCODERS_REGISTRY_HPP
#define VEPRO_ENCODERS_REGISTRY_HPP

/**
 * @file
 * The five encoder models, one EncoderSpec row each (registry.cpp), and
 * their lookup by paper name.
 */

#include <memory>
#include <string>
#include <vector>

#include "encoders/encoder_model.hpp"

namespace vepro::encoders
{

/** All five models in the paper's comparison order. */
std::vector<std::shared_ptr<const EncoderModel>> allEncoders();

/**
 * Look up a model by its paper name ("SVT-AV1", "x264", "x265",
 * "Libaom", "Libvpx-vp9"); case sensitive.
 * @throws std::out_of_range for unknown names.
 */
std::shared_ptr<const EncoderModel> encoderByName(const std::string &name);

} // namespace vepro::encoders

#endif // VEPRO_ENCODERS_REGISTRY_HPP
