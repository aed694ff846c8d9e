// Where a measurement came from: the physical position of one GPU.
//
// Lives in common (not cluster) because it is pure data shared by every
// layer that labels results — telemetry rows, flattened run records and
// exports all carry a location, and none of them may depend on the
// cluster-construction layer above them.
#pragma once

#include <string>

namespace gpuvar {

struct GpuLocation {
  int node = 0;      ///< global node index
  int gpu = 0;       ///< index within the node
  int cabinet = 0;   ///< cabinet index (cabinet-style layouts)
  int row = -1;      ///< row index (row layouts; 0 = 'a')
  int column = -1;   ///< column index within the row
  int node_in_group = 0;  ///< node index within its cabinet / column
  std::string name;  ///< human-readable: "c002-010-gpu2", "rowh-col36-n10-3"

  bool operator==(const GpuLocation&) const = default;
};

}  // namespace gpuvar
