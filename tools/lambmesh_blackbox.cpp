// lambmesh_blackbox — decode flight-recorder artifacts after a crash
// (docs/OBSERVABILITY.md "Live exposition & flight recorder").
//
//   lambmesh_blackbox <file> [--tail N] [--json]
//
// Accepts both flight formats and sniffs the magic:
//   *.lfr        live mmap ring ("LAMBRING"), left behind by any process
//                run with LAMBMESH_FLIGHT=<path> — even one that died to
//                SIGKILL, which no handler can observe
//   *.lfr.dump   sealed dump ("LAMBFREC") written by the watchdog /
//                give-up / fatal-signal triggers or on demand
//
// Prints the event timeline oldest-first with decoded type names, and a
// one-line verdict naming the in-flight epoch at the moment of death.
// Exit status: 0 decoded, 1 decode failure, 2 usage.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "io/cli_args.hpp"
#include "io/recorder_codec.hpp"
#include "obs/recorder.hpp"
#include "support/json.hpp"

namespace {

using lamb::io::FlightDump;
using lamb::io::LoadError;
using lamb::obs::DumpReason;
using lamb::obs::FlightEvent;
using lamb::obs::FlightEventType;

constexpr lamb::io::Flag kFlags[] = {
    {"", "FILE", lamb::io::kAllCommands, "flight ring or sealed dump"},
    {"tail", "N", lamb::io::kAllCommands, "show only the last N events"},
    {"json", "", lamb::io::kAllCommands, "print the events as JSON"},
};

void print_event_text(const FlightEvent& ev) {
  std::printf("  seq %8" PRIu64 "  t+%12.6fs  epoch %4u  %-18s code %u"
              "  a=%" PRId64 "  b=%" PRId64 "\n",
              ev.seq, static_cast<double>(ev.t_ns) / 1e9, ev.epoch,
              lamb::obs::flight_event_type_name(
                  static_cast<FlightEventType>(ev.type)),
              ev.code, ev.a, ev.b);
}

}  // namespace

int main(int argc, char** argv) {
  // The process flags arm this process's own flight recorder, which
  // re-homes onto LAMBMESH_FLIGHT and truncates it: never the file being
  // inspected.
  unsetenv("LAMBMESH_FLIGHT");
  const lamb::io::CliArgs args = lamb::io::parse_cli(argc, argv, {{}, kFlags});
  const std::string& path = args.positionals()[0];
  const bool json = args.has("json");
  std::size_t tail = 0;  // 0 = everything
  try {
    tail = static_cast<std::size_t>(args.get_long("tail", 0, 1));
  } catch (const lamb::io::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  FlightDump dump;
  const LoadError err = lamb::io::load_flight_file(path, &dump);
  if (!err.ok()) {
    std::fprintf(stderr, "lambmesh_blackbox: %s: %s\n", path.c_str(),
                 err.to_string().c_str());
    return 1;
  }

  std::size_t first = 0;
  if (tail > 0 && dump.events.size() > tail) {
    first = dump.events.size() - tail;
  }

  // The verdict: what was in flight when the recording stopped.
  const FlightEvent* last = dump.events.empty() ? nullptr
                                                : &dump.events.back();
  if (json) {
    lamb::support::JsonWriter w;
    w.begin_object().fields({{"file", path}, {"kind", dump.kind}});
    if (dump.kind == "dump") {
      w.field("reason", lamb::obs::dump_reason_name(dump.reason));
    } else {
      w.fields({{"ring_capacity", dump.ring_capacity},
                {"torn_slots", dump.torn_slots}});
    }
    w.fields({{"events_total", dump.events.size()},
              {"last_epoch", last != nullptr ? last->epoch : 0}})
        .array("events");
    for (std::size_t i = first; i < dump.events.size(); ++i) {
      lamb::obs::write_json(w, dump.events[i]);
    }
    std::fputs(w.end().end().str().c_str(), stdout);
    return 0;
  }

  std::printf("flight file: %s\n", path.c_str());
  if (dump.kind == "dump") {
    std::printf("kind: sealed dump, reason %s\n",
                lamb::obs::dump_reason_name(dump.reason));
  } else {
    std::printf("kind: live ring (capacity %zu, torn slots %zu)\n",
                dump.ring_capacity, dump.torn_slots);
  }
  std::printf("events: %zu%s\n", dump.events.size(),
              first > 0 ? " (tail shown)" : "");
  for (std::size_t i = first; i < dump.events.size(); ++i) {
    print_event_text(dump.events[i]);
  }
  if (last != nullptr) {
    std::printf("last recorded state: epoch %u, %s (seq %" PRIu64 ")\n",
                last->epoch,
                lamb::obs::flight_event_type_name(
                    static_cast<FlightEventType>(last->type)),
                last->seq);
  } else {
    std::printf("last recorded state: no valid events\n");
  }
  return 0;
}
