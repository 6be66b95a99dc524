// The one command-line convention of every lambmesh binary: a constexpr
// flag table per binary and one strict parser over it.
//
//   prog [command] [--flag value | --flag=value | --bool-flag]... [POS]...
//
// The table gives each flag its name, its value label (empty for a
// boolean flag), the commands that accept it, and its help line; the
// parser derives the known-flag check, the missing-value message and the
// usage text from the same rows. The process flags (kProcessFlags) are
// implied in every table and applied by one call, apply_process_flags.
#pragma once

#include <climits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lamb::io {

class ArgError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Bitmask over CliSpec::commands (bit i = command i).
inline constexpr unsigned kAllCommands = ~0u;

// One row of a flag table. An empty `arg` makes a boolean flag: it
// consumes no token and rejects `--name=value`. An empty `name` declares
// a positional argument labelled `arg`; "[FILE]" is optional, "FILE"
// required.
struct Flag {
  const char* name;
  const char* arg;
  unsigned commands;
  const char* help;
};

struct Command {
  const char* name;
  const char* help;
};

struct CliSpec {
  std::span<const Command> commands = {};  // empty: the binary takes none
  std::span<const Flag> flags = {};        // kProcessFlags are implied
  const char* notes = nullptr;             // printed under the usage line
};

// Every binary takes these; apply_process_flags applies them. Each
// overrides its environment variable (LAMBMESH_THREADS, LAMBMESH_SERVE,
// LAMBMESH_METRICS).
inline constexpr Flag kProcessFlags[] = {
    {"threads", "N", kAllCommands,
     "solver thread pool; 0 = LAMBMESH_THREADS / hardware default"},
    {"serve", "SPEC", kAllCommands,
     "serve /metrics, /healthz, /slo, /recorder over HTTP\n"
     "                        (:9464, 127.0.0.1:9464; :0 = ephemeral port)"},
    {"metrics", "DEST", kAllCommands,
     "metrics dump at exit: stderr, json:PATH or csv:PATH"},
};
// Process flags a binary declares in its own table only when it honours
// them; apply_process_flags applies them when given.
inline constexpr Flag kTelemetryFlag{
    "telemetry", "DEST", kAllCommands,
    "wormhole telemetry dump: csv:PATH\n"
    "                        (over LAMBMESH_TELEMETRY)"};
inline constexpr Flag kFlightFlag{
    "flight", "PATH", kAllCommands,
    "back the flight recorder with a mmap'd ring at PATH,\n"
    "                        auto-dumps at PATH.dump (over LAMBMESH_FLIGHT)"};
inline constexpr Flag kJsonFlag{"json", "PATH", kAllCommands,
                                "write the results as a JSON document"};

class CliArgs {
 public:
  // Parses `tokens` (argv without the program name) against `spec`;
  // throws ArgError naming the first problem: a missing or unknown
  // command, an unknown flag (or one outside the command's scope), a
  // valued flag without a value, a boolean flag given `=value`, an
  // undeclared positional, or a missing required positional. The last
  // of duplicate flags wins.
  static CliArgs parse(const std::vector<std::string>& tokens,
                       const CliSpec& spec, std::string program = "prog");

  const std::string& program() const { return program_; }
  const std::string& command() const { return command_; }
  bool has(const std::string& key) const { return options_.count(key) > 0; }
  std::string get(const std::string& key,
                  const std::string& fallback = "") const;
  // Integer getters are strict: the whole value must parse ("10x" is an
  // error, not 10) and must lie in [min, max of the type] ("999999999999"
  // for an int option is an out-of-range error, never a silent wrap).
  // Both throw ArgError with the offending value in the message.
  long get_long(const std::string& key, long fallback,
                long min = LONG_MIN) const;
  int get_int(const std::string& key, int fallback, int min = INT_MIN) const;
  double get_double(const std::string& key, double fallback) const;
  // Positional arguments in order; at most as many as the table declares.
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::string program_;
  std::string command_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

// The usage text of `spec`: synopsis, notes, commands, and one line per
// flag (own rows, then the process flags).
std::string usage_text(const std::string& program, const CliSpec& spec);

// Applies the process flags: --threads sizes the par:: pool, --metrics
// sets the exit dump, --serve starts the exposition server, and
// --telemetry / --flight (when declared) configure those tiers. Flags
// override the LAMBMESH_* variables. Throws ArgError on a malformed
// --threads or a --metrics / --telemetry DEST outside the dump grammar
// (obs::parse_dump_dest); returns false after an error line when --serve
// (or LAMBMESH_SERVE) cannot start.
bool apply_process_flags(const CliArgs& args);

// parse + apply_process_flags for main(): a usage error prints
// "error: <what>" (and, when argv holds no arguments at all, the usage
// text) and exits 2; so does a server that fails to start.
CliArgs parse_cli(int argc, const char* const* argv, const CliSpec& spec);

}  // namespace lamb::io
