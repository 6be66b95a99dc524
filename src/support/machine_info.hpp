// Machine / build identification block stamped into every bench, storm
// and loadgen document by support::BenchDoc (support/json.hpp; the
// envelope is specified in docs/OBSERVABILITY.md "Bench documents"). The
// bench trajectory is tracked across PRs and across machines; without the
// hostname / core count / build type stamped into the document, a
// regression on a 1-core CI runner is indistinguishable from one on a
// 64-core dev box.
#pragma once

#include <string>

namespace lamb::support {

// Version of the shared bench/storm JSON envelope (schema_version +
// machine block + gates array). Bump when the envelope shape changes.
inline constexpr int kBenchSchemaVersion = 2;

struct MachineInfo {
  std::string hostname;          // gethostname(), "unknown" on failure
  unsigned hardware_concurrency = 0;
  std::string build_type;        // "Release" (NDEBUG) or "Debug"
  int pointer_bits = 0;
};

MachineInfo machine_info();

}  // namespace lamb::support
