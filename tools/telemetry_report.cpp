// telemetry_report — digests a lambmesh telemetry CSV dump (produced by
// LAMBMESH_TELEMETRY=csv:<path> / --telemetry) into human-readable
// summaries.
//
// Subcommands:
//   summary   run overview: geometry, windows, flit totals, latency
//             decomposition, lifecycle event counts, stall/deadlock report
//   hot       top-N hottest (link, vc) channels by whole-run flit count
//   heatmap   2D mesh heat map of per-node outgoing channel traffic
//             (ASCII to stdout; --csv PATH for the raw matrix)
//
// Examples:
//   telemetry_report summary --input telemetry.csv
//   telemetry_report hot --input telemetry.csv --top 20
//   telemetry_report heatmap --input telemetry.csv --csv heat.csv
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/cli_args.hpp"
#include "support/quantiles.hpp"

namespace {

namespace io = lamb::io;
namespace support = lamb::support;

constexpr io::Command kCommands[] = {
    {"summary", "run overview (windows, flits, latency, stalls)"},
    {"hot", "hottest channels by flit count"},
    {"heatmap", "2D per-node traffic heat map"},
};

constexpr unsigned kHot = 2, kHeatmap = 4;

constexpr io::Flag kFlags[] = {
    {"input", "FILE", io::kAllCommands, "telemetry CSV dump (required)"},
    {"top", "N", kHot, "channels listed (10)"},
    {"csv", "FILE", kHeatmap, "also write the raw heat matrix as CSV"},
};

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  return fields;
}

struct ChannelTotal {
  long long link = 0;
  long long node = 0;
  int dim = 0;
  int dir = 0;
  int vc = 0;
  long long flits = 0;
};

struct LatencyRow {
  long long queue = 0;
  long long transit = 0;
  long long stall = 0;
  long long total() const { return queue + transit + stall; }
};

// The parsed dump. Windowed samples are folded into per-window totals on
// the fly; raw rows we never need again are not retained.
struct Dump {
  std::map<std::string, std::string> meta;
  std::vector<int> dims;
  std::vector<ChannelTotal> totals;
  std::map<long long, long long> window_flits;   // window -> flits
  std::map<long long, long long> node_out;       // node -> outgoing flits
  std::vector<LatencyRow> latencies;
  std::map<std::string, long long> event_counts;
  std::vector<std::string> stall_edges;  // raw fields, re-rendered
  long long channel_rows = 0;
};

long long to_ll(const std::string& s) { return std::stoll(s); }

Dump read_dump(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  Dump dump;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      first = false;
      if (line.rfind("# lambmesh telemetry", 0) != 0) {
        std::fprintf(stderr, "error: '%s' is not a telemetry CSV dump\n",
                     path.c_str());
        std::exit(1);
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = split(line);
    const std::string& kind = f[0];
    try {
      if (kind == "meta" && f.size() >= 3) {
        dump.meta[f[1]] = f[2];
        if (f[1] == "dims") {
          std::istringstream is(f[2]);
          std::string w;
          while (std::getline(is, w, 'x')) {
            dump.dims.push_back(static_cast<int>(to_ll(w)));
          }
        }
      } else if (kind == "channel_total" && f.size() >= 7) {
        ChannelTotal t;
        t.link = to_ll(f[1]);
        t.node = to_ll(f[2]);
        t.dim = static_cast<int>(to_ll(f[3]));
        t.dir = static_cast<int>(to_ll(f[4]));
        t.vc = static_cast<int>(to_ll(f[5]));
        t.flits = to_ll(f[6]);
        dump.totals.push_back(t);
        dump.node_out[t.node] += t.flits;
      } else if (kind == "channel" && f.size() >= 9) {
        ++dump.channel_rows;
        dump.window_flits[to_ll(f[6])] += to_ll(f[7]);
      } else if (kind == "latency" && f.size() >= 8) {
        dump.latencies.push_back({to_ll(f[5]), to_ll(f[6]), to_ll(f[7])});
      } else if (kind == "event" && f.size() >= 4) {
        ++dump.event_counts[f[3]];
      } else if (kind == "stall_edge" && f.size() >= 8) {
        dump.stall_edges.push_back(line);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: malformed row: %s\n", line.c_str());
      std::exit(1);
    }
  }
  return dump;
}

std::string meta_or(const Dump& dump, const std::string& key,
                    const std::string& fallback) {
  const auto it = dump.meta.find(key);
  return it == dump.meta.end() ? fallback : it->second;
}

int cmd_summary(const Dump& dump) {
  std::printf("shape        %s  (vcs %s, sample window %s cycles)\n",
              meta_or(dump, "shape", "?").c_str(),
              meta_or(dump, "vcs", "?").c_str(),
              meta_or(dump, "sample_every", "?").c_str());
  std::printf("run          %s cycles, %s windows recorded\n",
              meta_or(dump, "cycles", "?").c_str(),
              meta_or(dump, "windows", "?").c_str());
  long long total = 0;
  for (const ChannelTotal& t : dump.totals) total += t.flits;
  std::printf("traffic      %lld flits over %zu active channels\n", total,
              dump.totals.size());
  if (!dump.window_flits.empty()) {
    auto busiest = dump.window_flits.begin();
    for (auto it = dump.window_flits.begin(); it != dump.window_flits.end();
         ++it) {
      if (it->second > busiest->second) busiest = it;
    }
    std::printf("windows      busiest window %lld (%lld flits sampled)\n",
                busiest->first, busiest->second);
  }
  if (!dump.latencies.empty()) {
    std::vector<double> totals;
    long long queue = 0, transit = 0, stall = 0;
    for (const LatencyRow& r : dump.latencies) {
      totals.push_back(static_cast<double>(r.total()));
      queue += r.queue;
      transit += r.transit;
      stall += r.stall;
    }
    std::sort(totals.begin(), totals.end());
    // Shared nearest-rank quantile (support/quantiles.hpp); cycle counts
    // are integers, so the cast back is exact.
    const auto q = [&](double p) {
      return static_cast<long long>(support::quantile_sorted(totals, p));
    };
    const double n = static_cast<double>(dump.latencies.size());
    std::printf("latency      %zu delivered; p50 %lld p95 %lld p99 %lld\n",
                dump.latencies.size(), q(0.50), q(0.95), q(0.99));
    std::printf(
        "decompose    queue %.1f + transit %.1f + stall %.1f cycles (mean)\n",
        static_cast<double>(queue) / n, static_cast<double>(transit) / n,
        static_cast<double>(stall) / n);
  }
  if (!dump.event_counts.empty()) {
    std::printf("events      ");
    for (const auto& [kind, count] : dump.event_counts) {
      std::printf(" %s=%lld", kind.c_str(), count);
    }
    std::printf("\n");
  }
  if (meta_or(dump, "deadlock", "0") == "1") {
    std::printf("stall        DEADLOCK: wait-for cycle at cycle %s\n",
                meta_or(dump, "stall_cycle", "?").c_str());
  } else if (!dump.stall_edges.empty()) {
    std::printf("stall        watchdog fired at cycle %s (no cycle found)\n",
                meta_or(dump, "stall_cycle", "?").c_str());
  }
  for (const std::string& line : dump.stall_edges) {
    const std::vector<std::string> f = split(line);
    std::printf("  msg %s waits on link %s vc %s at node %s (%s)%s\n",
                f[1].c_str(), f[3].c_str(), f[4].c_str(), f[5].c_str(),
                f[6].c_str(), f[7] == "1" ? "  [CYCLE]" : "");
  }
  return 0;
}

int cmd_hot(const Dump& dump, long top) {
  std::vector<ChannelTotal> sorted = dump.totals;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ChannelTotal& a, const ChannelTotal& b) {
                     return a.flits > b.flits;
                   });
  if (top < static_cast<long>(sorted.size())) {
    sorted.resize(static_cast<std::size_t>(top));
  }
  std::printf("%6s %8s %4s %4s %3s %10s\n", "link", "node", "dim", "dir",
              "vc", "flits");
  for (const ChannelTotal& t : sorted) {
    std::printf("%6lld %8lld %4d %+4d %3d %10lld\n", t.link, t.node, t.dim,
                t.dir, t.vc, t.flits);
  }
  return 0;
}

int cmd_heatmap(const Dump& dump, const std::string& csv_path) {
  if (dump.dims.size() < 2) {
    std::fprintf(stderr, "error: heatmap needs a >= 2-dimensional mesh\n");
    return 1;
  }
  const int w = dump.dims[0];
  const int h = dump.dims[1];
  // Project outgoing flits per node onto the first two dimensions
  // (summing over the rest for 3D+ meshes).
  std::vector<long long> cell(static_cast<std::size_t>(w) *
                              static_cast<std::size_t>(h));
  long long peak = 0;
  for (const auto& [node, flits] : dump.node_out) {
    const int x = static_cast<int>(node % w);
    const int y = static_cast<int>((node / w) % h);
    long long& c = cell[static_cast<std::size_t>(y * w + x)];
    c += flits;
    peak = std::max(peak, c);
  }
  static const char kShades[] = " .:-=+*#%@";
  std::printf("outgoing flits per node, dims 0 x 1 (peak %lld)\n", peak);
  for (int y = h - 1; y >= 0; --y) {
    for (int x = 0; x < w; ++x) {
      const long long v = cell[static_cast<std::size_t>(y * w + x)];
      const int shade =
          peak > 0 ? static_cast<int>((v * 9 + peak - 1) / peak) : 0;
      std::printf("%c", kShades[std::min(shade, 9)]);
    }
    std::printf("\n");
  }
  if (!csv_path.empty()) {
    std::FILE* out = std::fopen(csv_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        std::fprintf(out, "%s%lld", x > 0 ? "," : "",
                     cell[static_cast<std::size_t>(y * w + x)]);
      }
      std::fprintf(out, "\n");
    }
    std::fclose(out);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const io::CliArgs args = io::parse_cli(argc, argv, {kCommands, kFlags});
  try {
    const std::string input = args.get("input");
    if (input.empty()) throw io::ArgError("--input is required");
    if (args.command() == "summary") return cmd_summary(read_dump(input));
    if (args.command() == "hot") {
      return cmd_hot(read_dump(input), args.get_long("top", 10));
    }
    return cmd_heatmap(read_dump(input), args.get("csv"));
  } catch (const io::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
