// Saves an environment variable and restores it at scope exit, so tests
// that pin or clear LAMBMESH_ENGINE compose with the CI lane that runs
// the whole suite under LAMBMESH_ENGINE=cycle|event.
#pragma once

#include <cstdlib>
#include <string>

namespace lamb {

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

}  // namespace lamb
