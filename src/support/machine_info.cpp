#include "support/machine_info.hpp"

#include <unistd.h>

#include <thread>

namespace lamb::support {

MachineInfo machine_info() {
  MachineInfo info;
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    info.hostname = host;
  } else {
    info.hostname = "unknown";
  }
  info.hardware_concurrency = std::thread::hardware_concurrency();
#ifdef NDEBUG
  info.build_type = "Release";
#else
  info.build_type = "Debug";
#endif
  info.pointer_bits = static_cast<int>(8 * sizeof(void*));
  return info;
}

}  // namespace lamb::support
