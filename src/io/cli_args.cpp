#include "io/cli_args.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"

namespace lamb::io {

namespace {

bool is_positional(const Flag& row) { return row.name[0] == '\0'; }

bool in_scope(const Flag& row, unsigned command_bit) {
  return (row.commands & command_bit) != 0;
}

// The named row for `name` (own rows first, then the process flags), or
// null.
const Flag* find_flag(const CliSpec& spec, const std::string& name) {
  for (const std::span<const Flag> rows :
       {spec.flags, std::span<const Flag>(kProcessFlags)}) {
    for (const Flag& row : rows) {
      if (!is_positional(row) && name == row.name) return &row;
    }
  }
  return nullptr;
}

// Strict integer parse for option values. Distinguishes "not an
// integer" (malformed, trailing garbage) from "an integer that does not
// fit" so the user sees which mistake they made.
long long parse_option_integer(const std::string& key,
                               const std::string& value, long long lo,
                               long long hi) {
  const char* first = value.data();
  const char* last = value.data() + value.size();
  long long parsed = 0;
  const std::from_chars_result result = std::from_chars(first, last, parsed);
  if (result.ec == std::errc::result_out_of_range ||
      (result.ec == std::errc() && result.ptr == last &&
       (parsed < lo || parsed > hi))) {
    throw ArgError("--" + key + " value '" + value + "' is out of range [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  if (result.ec != std::errc() || result.ptr != last) {
    throw ArgError("--" + key + " expects an integer, got '" + value + "'");
  }
  return parsed;
}

// The destination of dump flag --<name>, parsed in the one dump grammar.
std::optional<obs::DumpDest> dump_flag(const CliArgs& args, const char* name,
                                       unsigned formats) {
  if (!args.has(name)) return std::nullopt;
  std::string error;
  std::optional<obs::DumpDest> dest =
      obs::parse_dump_dest(args.get(name), formats, &error);
  if (!dest) throw ArgError(std::string("--") + name + ": " + error);
  return dest;
}

}  // namespace

CliArgs CliArgs::parse(const std::vector<std::string>& tokens,
                       const CliSpec& spec, std::string program) {
  CliArgs args;
  args.program_ = std::move(program);
  std::size_t i = 0;
  unsigned command_bit = 1;
  if (!spec.commands.empty()) {
    if (tokens.empty()) throw ArgError("missing command");
    if (tokens[0].rfind("--", 0) == 0) {
      throw ArgError("expected a command before options");
    }
    args.command_ = tokens[0];
    unsigned index = 0;
    while (index < spec.commands.size() &&
           args.command_ != spec.commands[index].name) {
      ++index;
    }
    if (index == spec.commands.size()) {
      throw ArgError("unknown command " + args.command_);
    }
    command_bit = 1u << index;
    i = 1;
  }
  std::vector<const Flag*> positional_rows;
  for (const Flag& row : spec.flags) {
    if (is_positional(row) && in_scope(row, command_bit)) {
      positional_rows.push_back(&row);
    }
  }
  for (; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      if (args.positionals_.size() == positional_rows.size()) {
        throw ArgError("unexpected argument '" + token + "'");
      }
      args.positionals_.push_back(token);
      continue;
    }
    if (token.size() == 2) throw ArgError("bare '--' is not an option");
    const std::size_t eq = token.find('=');
    const std::string name = token.substr(2, eq - 2);
    const Flag* row = find_flag(spec, name);
    if (row == nullptr) throw ArgError("unknown option --" + name);
    if (!in_scope(*row, command_bit)) {
      throw ArgError("unknown option --" + name + " for " + args.command_);
    }
    if (row->arg[0] == '\0') {
      if (eq != std::string::npos) {
        throw ArgError("--" + name + " takes no value");
      }
      args.options_[name] = "1";
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = token.substr(eq + 1);
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      value = tokens[++i];
    }
    if (value.empty()) {
      throw ArgError("--" + name + " needs a " + row->arg);
    }
    args.options_[name] = std::move(value);
  }
  for (std::size_t p = args.positionals_.size(); p < positional_rows.size();
       ++p) {
    if (positional_rows[p]->arg[0] != '[') {
      throw ArgError(std::string("missing ") + positional_rows[p]->arg);
    }
  }
  return args;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

long CliArgs::get_long(const std::string& key, long fallback,
                       long min) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return static_cast<long>(parse_option_integer(
      key, it->second, min, std::numeric_limits<long>::max()));
}

int CliArgs::get_int(const std::string& key, int fallback, int min) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return static_cast<int>(parse_option_integer(
      key, it->second, min, std::numeric_limits<int>::max()));
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("");
    return value;
  } catch (const std::exception&) {
    throw ArgError("--" + key + " expects a number, got '" + it->second + "'");
  }
}

std::string usage_text(const std::string& program, const CliSpec& spec) {
  std::string text = "usage: " + program;
  if (!spec.commands.empty()) {
    text += ' ';
    for (std::size_t c = 0; c < spec.commands.size(); ++c) {
      if (c > 0) text += '|';
      text += spec.commands[c].name;
    }
  }
  text += " [options]";
  for (const Flag& row : spec.flags) {
    if (is_positional(row)) text += std::string(" ") + row.arg;
  }
  text += '\n';
  if (spec.notes != nullptr) text += std::string("\n") + spec.notes + '\n';
  if (!spec.commands.empty()) text += '\n';
  for (const Command& command : spec.commands) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-8s %s\n", command.name,
                  command.help);
    text += line;
  }
  text += "\noptions:\n";
  const unsigned every_command = (1u << spec.commands.size()) - 1;
  for (const std::span<const Flag> rows :
       {spec.flags, std::span<const Flag>(kProcessFlags)}) {
    for (const Flag& row : rows) {
      std::string head = row.arg;
      if (!is_positional(row)) {
        head = "--" + std::string(row.name) + (head.empty() ? "" : " ") + head;
      }
      std::string scope;
      if (spec.commands.size() > 1 &&
          (row.commands & every_command) != every_command) {
        for (std::size_t c = 0; c < spec.commands.size(); ++c) {
          if ((row.commands & (1u << c)) == 0) continue;
          scope += (scope.empty() ? " [" : ", ");
          scope += spec.commands[c].name;
        }
        scope += ']';
      }
      char line[512];
      std::snprintf(line, sizeof(line), "  %-21s %s%s\n", head.c_str(),
                    row.help, scope.c_str());
      text += line;
    }
  }
  return text;
}

bool apply_process_flags(const CliArgs& args) {
  const std::optional<obs::DumpDest> metrics =
      dump_flag(args, "metrics", obs::kMetricsDumps);
  const std::optional<obs::DumpDest> telemetry =
      dump_flag(args, "telemetry", obs::kTelemetryDumps);
  if (args.has("threads")) par::set_threads(args.get_int("threads", 0, 0));
  obs::init(metrics);
  if (telemetry) obs::telemetry_init(args.get("telemetry"));
  if (args.has("flight")) {
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    const std::string path = args.get("flight");
    std::string err;
    if (recorder.open_file(path, &err)) {
      recorder.set_dump_path(path + ".dump");
      obs::FlightRecorder::install_crash_handler();
    } else {
      std::fprintf(stderr, "warning: --flight: %s (recording in memory)\n",
                   err.c_str());
    }
  }
  const std::string spec =
      args.get("serve", env_string("LAMBMESH_SERVE", ""));
  if (spec.empty()) return true;
  // A scrape target without metric collection is an empty page; serving
  // implies collecting.
  obs::MetricsRegistry::global().set_enabled(true);
  std::string err;
  const obs::ExposeServer* server = obs::serve_global(spec, &err);
  if (!server->running()) {
    std::fprintf(stderr, "%s: --serve failed: %s\n", args.program().c_str(),
                 err.c_str());
    return false;
  }
  std::fprintf(stderr, "%s: serving metrics on port %d\n",
               args.program().c_str(), server->port());
  return true;
}

CliArgs parse_cli(int argc, const char* const* argv, const CliSpec& spec) {
  std::string program = argc > 0 ? argv[0] : "lambmesh";
  program = program.substr(program.rfind('/') + 1);
  try {
    const std::vector<std::string> tokens(argv + (argc > 0 ? 1 : 0),
                                          argv + argc);
    CliArgs args = CliArgs::parse(tokens, spec, program);
    if (!apply_process_flags(args)) std::exit(2);
    return args;
  } catch (const ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (argc <= 1) {
      std::fprintf(stderr, "\n%s", usage_text(program, spec).c_str());
    }
    std::exit(2);
  }
}

}  // namespace lamb::io
