// Test names for the value-parameterized sweeps. Without a name generator
// a sweep case is named after the printed bytes of its parameter struct,
// which hold heap pointers, so the names differ between builds; these
// names come from the case's shape and seed and stay the same. Each param
// struct's PrintTo prints this name, so failure messages name the case
// too, and ::testing::PrintToStringParamName() turns it into the test name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/mesh.hpp"

namespace lamb {

// "mesh_8x8_seed3", "torus_5x5x5_seed11".
inline std::string sweep_name(const std::vector<Coord>& widths, bool torus,
                              std::uint64_t seed) {
  std::string out = torus ? "torus_" : "mesh_";
  for (std::size_t j = 0; j < widths.size(); ++j) {
    if (j > 0) out += 'x';
    out += std::to_string(widths[j]);
  }
  return out + "_seed" + std::to_string(seed);
}

}  // namespace lamb
