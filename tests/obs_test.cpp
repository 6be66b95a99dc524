// Tests for the observability layer (src/obs): counter / gauge /
// histogram semantics, exact concurrent sums through the sharded
// counters, zero recording in disabled mode, exporter output,
// Chrome-trace JSON with correctly nested spans, Prometheus text
// exposition (incl. scrape-during-mutation), the embedded HTTP server,
// and SLO burn tracking.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/cli_args.hpp"
#include "obs/obs.hpp"

namespace lamb::obs {
namespace {

TEST(Counter, AddAndValue) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(c.name(), "test.counter");
  // Same name resolves to the same metric.
  reg.counter("test.counter").add();
  EXPECT_EQ(c.value(), 43);
}

TEST(Counter, DisabledRecordsNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  Counter& c = reg.counter("test.disabled");
  c.add();
  c.add(100);
  EXPECT_EQ(c.value(), 0);
  // Flipping the switch makes the same handle live.
  reg.set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7);
  reg.set_enabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 7);
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg(/*enabled=*/true);
  Gauge& g = reg.gauge("test.gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_EQ(g.value(), 5.0);
  reg.set_enabled(false);
  g.set(99.0);
  EXPECT_EQ(g.value(), 5.0);
}

TEST(Histogram, BucketSemantics) {
  MetricsRegistry reg(/*enabled=*/true);
  Histogram& h = reg.histogram("test.hist", {1.0, 2.0, 4.0});
  for (double x : {0.5, 1.5, 3.0, 10.0}) h.observe(x);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
  const std::vector<std::int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  // An observation equal to a bound lands in that bound's bucket
  // (inclusive upper bounds).
  h.observe(2.0);
  EXPECT_EQ(h.bucket_counts()[1], 2);
}

TEST(Histogram, QuantilesAreMonotoneAndBounded) {
  MetricsRegistry reg(/*enabled=*/true);
  Histogram& h =
      reg.histogram("test.quant", Histogram::exponential_bounds(1, 2, 10));
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i % 100));
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    EXPECT_LE(v, h.max());
    prev = v;
  }
  EXPECT_EQ(h.quantile(0.0), h.min() >= 0 ? h.quantile(0.0) : 0.0);
}

TEST(Histogram, DisabledRecordsNothing) {
  MetricsRegistry reg(/*enabled=*/false);
  Histogram& h = reg.histogram("test.hist.off", {1.0});
  h.observe(0.5);
  h.observe(5.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, ConcurrentObservationsCountExactly) {
  MetricsRegistry reg(/*enabled=*/true);
  Histogram& h = reg.histogram("test.hist.mt", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(t % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const std::int64_t total = static_cast<std::int64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), total);
  const std::vector<std::int64_t> counts = h.bucket_counts();
  EXPECT_EQ(counts[0], total / 2);
  EXPECT_EQ(counts[1], total / 2);
}

TEST(Histogram, ExponentialBounds) {
  const std::vector<double> b = Histogram::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

// Captures print_table output via open_memstream (POSIX).
std::string render_table(const MetricsRegistry& reg) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* mem = open_memstream(&buffer, &size);
  print_table(reg, mem);
  std::fclose(mem);
  std::string out(buffer, size);
  std::free(buffer);
  return out;
}

TEST(Export, TableContainsMetricsAndDerivedHitRate) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("cache.hit").add(3);
  reg.counter("cache.miss").add(1);
  reg.gauge("machine.survivors").set(996.0);
  reg.histogram("phase.seconds", {0.1, 1.0}).observe(0.05);
  const std::string table = render_table(reg);
  EXPECT_NE(table.find("cache.hit"), std::string::npos);
  EXPECT_NE(table.find("cache.hit_rate"), std::string::npos);
  EXPECT_NE(table.find("0.7500"), std::string::npos);
  EXPECT_NE(table.find("machine.survivors"), std::string::npos);
  EXPECT_NE(table.find("phase.seconds"), std::string::npos);
}

std::string read_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  EXPECT_NE(in, nullptr);
  std::string out;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    out.append(chunk, n);
  }
  std::fclose(in);
  return out;
}

TEST(Export, JsonAndCsvSnapshots) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("a.count").add(5);
  reg.gauge("b.gauge").set(2.5);
  reg.histogram("c.hist", {1.0}).observe(0.5);
  const std::string json_path = ::testing::TempDir() + "obs_test_metrics.json";
  const std::string csv_path = ::testing::TempDir() + "obs_test_metrics.csv";
  ASSERT_TRUE(write_json(reg, json_path));
  ASSERT_TRUE(write_csv(reg, csv_path));

  const std::string json = read_file(json_path);
  EXPECT_NE(json.find("\"a.count\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  // Balanced braces/brackets (single-byte sanity parse).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  const std::string csv = read_file(csv_path);
  EXPECT_NE(csv.find("kind,name,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.count,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.hist"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

// /dev/full opens for writing and fails every flush: a dump writer that
// ignores ferror/fclose reports success there.
bool have_dev_full() { return ::access("/dev/full", W_OK) == 0; }

TEST(Export, JsonSnapshotReportsAFullDevice) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("a.count").add(5);
  EXPECT_FALSE(write_json(reg, "/dev/full"));
}

TEST(Export, CsvSnapshotReportsAFullDevice) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("a.count").add(5);
  EXPECT_FALSE(write_csv(reg, "/dev/full"));
}

TEST(Trace, ChromeJsonReportsAFullDevice) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(TraceSink::global().write_chrome_json("/dev/full"));
}

TEST(ExportDeathTest, UnwritableExitDumpPrintsAnError) {
  if (!have_dev_full()) GTEST_SKIP() << "no /dev/full";
  EXPECT_EXIT(
      {
        init(DumpDest{kDumpCsv, "/dev/full"});
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "error: cannot write /dev/full\n");
}

TEST(DumpDest, OneGrammarForEveryDump) {
  const auto parsed = [](const char* spec, unsigned formats) {
    const std::optional<DumpDest> dest = parse_dump_dest(spec, formats);
    return dest ? std::to_string(dest->format) + ":" + dest->path
                : std::string("(none)");
  };
  EXPECT_EQ(parsed("stderr", kMetricsDumps), "1:");
  EXPECT_EQ(parsed("json:m.json", kMetricsDumps), "2:m.json");
  EXPECT_EQ(parsed("csv:dir/m.csv", kMetricsDumps), "4:dir/m.csv");
  EXPECT_EQ(parsed("csv:t.csv", kTelemetryDumps), "4:t.csv");
  for (const char* bad : {"", "jsn:/tmp/m", "json:", "csv:", "m.json",
                          "stderr:", "STDERR"}) {
    EXPECT_EQ(parsed(bad, kMetricsDumps), "(none)") << bad;
  }
  for (const char* bad : {"stderr", "json:t.json", "t.csv"}) {
    EXPECT_EQ(parsed(bad, kTelemetryDumps), "(none)") << bad;
  }
  std::string error;
  EXPECT_FALSE(parse_dump_dest("jsn:x", kMetricsDumps, &error));
  EXPECT_EQ(error,
            "bad destination 'jsn:x' (expected stderr | json:PATH | csv:PATH)");
  EXPECT_FALSE(parse_dump_dest("json:x", kTelemetryDumps, &error));
  EXPECT_EQ(error, "bad destination 'json:x' (expected csv:PATH)");
}

TEST(DumpDest, BadEnvironmentValuePrintsOneErrorAndLeavesTheDumpOff) {
  const auto env_error = [](const char* var, const char* value,
                            unsigned formats) {
    ::setenv(var, value, 1);
    ::testing::internal::CaptureStderr();
    const std::optional<DumpDest> dest = env_dump_dest(var, formats);
    const std::string err = ::testing::internal::GetCapturedStderr();
    ::unsetenv(var);
    EXPECT_FALSE(dest.has_value()) << var << "=" << value;
    return err;
  };
  EXPECT_EQ(env_error("LAMBMESH_METRICS", "jsn:/tmp/m", kMetricsDumps),
            "error: LAMBMESH_METRICS: bad destination 'jsn:/tmp/m' "
            "(expected stderr | json:PATH | csv:PATH)\n");
  EXPECT_EQ(env_error("LAMBMESH_TELEMETRY", "out.csv", kTelemetryDumps),
            "error: LAMBMESH_TELEMETRY: bad destination 'out.csv' "
            "(expected csv:PATH)\n");
  // Unset or empty is no dump and no error.
  EXPECT_EQ(env_error("LAMBMESH_METRICS", "", kMetricsDumps), "");
  ::setenv("LAMBMESH_METRICS", "csv:m.csv", 1);
  const std::optional<DumpDest> good =
      env_dump_dest("LAMBMESH_METRICS", kMetricsDumps);
  ::unsetenv("LAMBMESH_METRICS");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->format, kDumpCsv);
  EXPECT_EQ(good->path, "m.csv");
}

TEST(Trace, DisabledSpansRecordNothing) {
  MetricsRegistry::global().set_enabled(false);
  TraceSink::global().set_enabled(false);
  TraceSink::global().clear();
  {
    Span span("test.noop");
    span.arg("x", 1.0);
  }
  EXPECT_TRUE(TraceSink::global().events().empty());
}

TEST(Trace, SpansNestAndFeedHistograms) {
  MetricsRegistry::global().set_enabled(true);
  TraceSink::global().set_enabled(true);
  TraceSink::global().clear();
  {
    Span outer("test.outer");
    {
      Span inner("test.inner");
      inner.arg("depth", 2.0);
    }
  }
  MetricsRegistry::global().set_enabled(false);
  TraceSink::global().set_enabled(false);

  const std::vector<TraceEvent> events = TraceSink::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(outer.name, "test.outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-3);
  ASSERT_EQ(inner.args.size(), 1u);
  EXPECT_EQ(inner.args[0].first, "depth");

  // Both spans observed their duration into "<name>.seconds".
  EXPECT_GE(
      MetricsRegistry::global().histogram("test.outer.seconds").count(), 1);
  EXPECT_GE(
      MetricsRegistry::global().histogram("test.inner.seconds").count(), 1);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  MetricsRegistry::global().set_enabled(false);
  TraceSink::global().set_enabled(true);
  TraceSink::global().clear();
  {
    Span outer("json.outer", "testcat");
    outer.arg("epoch", 3.0);
    Span inner("json.inner");
  }
  TraceSink::global().set_enabled(false);

  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(TraceSink::global().write_chrome_json(path));
  const std::string json = read_file(path);
  EXPECT_EQ(json.rfind("{\n  \"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"name\": \"json.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"json.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"testcat\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"epoch\": 3}"), std::string::npos);
  int braces = 0, brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

TEST(Prometheus, NameAndEscape) {
  EXPECT_EQ(prometheus_name("reconfigure.ms"), "lambmesh_reconfigure_ms");
  EXPECT_EQ(prometheus_name("cache.hit-rate"), "lambmesh_cache_hit_rate");
  EXPECT_EQ(prometheus_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Prometheus, RenderConformance) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("scrape.events").add(42);
  reg.gauge("scrape.level").set(2.5);
  Histogram& h = reg.histogram("scrape.lat", {1.0, 2.0});
  for (double x : {0.5, 1.5, 9.0}) h.observe(x);

  const std::string text = render_prometheus(reg);
  // Counters: TYPE before the sample, name carries _total.
  const auto type_pos =
      text.find("# TYPE lambmesh_scrape_events_total counter");
  const auto sample_pos = text.find("lambmesh_scrape_events_total 42");
  ASSERT_NE(type_pos, std::string::npos) << text;
  ASSERT_NE(sample_pos, std::string::npos) << text;
  EXPECT_LT(type_pos, sample_pos);
  EXPECT_NE(text.find("# TYPE lambmesh_scrape_level gauge"),
            std::string::npos);
  // Histogram: cumulative le buckets, +Inf bucket == _count.
  EXPECT_NE(text.find("# TYPE lambmesh_scrape_lat histogram"),
            std::string::npos);
  EXPECT_NE(text.find("lambmesh_scrape_lat_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lambmesh_scrape_lat_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lambmesh_scrape_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lambmesh_scrape_lat_count 3"), std::string::npos);
  EXPECT_NE(text.find("lambmesh_scrape_lat_sum 11"), std::string::npos);
  // Exposition ends in a newline (required by the text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Prometheus, ScrapeDuringMutationStaysParseableAndMonotone) {
  MetricsRegistry reg(/*enabled=*/true);
  Counter& c = reg.counter("scrape.mut");
  Histogram& h = reg.histogram("scrape.mut.lat", {1.0, 4.0});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c.add();
      h.observe(static_cast<double>(i++ % 8));
    }
  });
  std::int64_t prev = -1;
  for (int scrape = 0; scrape < 200; ++scrape) {
    const std::string text = render_prometheus(reg);
    // Leading \n anchors the sample line (the HELP line also contains
    // the metric name, but never at line start).
    const std::string needle = "\nlambmesh_scrape_mut_total ";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    const std::int64_t value =
        std::stoll(text.substr(pos + needle.size()));
    EXPECT_GE(value, prev) << "counter went backwards mid-scrape";
    prev = value;
    // The histogram's +Inf bucket must equal its _count even while a
    // writer races the scrape (the render snapshots buckets once).
    const std::string inf_needle =
        "lambmesh_scrape_mut_lat_bucket{le=\"+Inf\"} ";
    const std::string count_needle = "lambmesh_scrape_mut_lat_count ";
    const auto inf_pos = text.find(inf_needle);
    const auto count_pos = text.find(count_needle);
    ASSERT_NE(inf_pos, std::string::npos);
    ASSERT_NE(count_pos, std::string::npos);
    EXPECT_EQ(std::stoll(text.substr(inf_pos + inf_needle.size())),
              std::stoll(text.substr(count_pos + count_needle.size())));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(Expose, ParseServeSpec) {
  std::string host;
  int port = -1;
  EXPECT_TRUE(parse_serve_spec(":9464", &host, &port));
  EXPECT_EQ(host, "");
  EXPECT_EQ(port, 9464);
  EXPECT_TRUE(parse_serve_spec("9464", &host, &port));
  EXPECT_EQ(port, 9464);
  EXPECT_TRUE(parse_serve_spec("127.0.0.1:8080", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(parse_serve_spec(":0", &host, &port));
  EXPECT_EQ(port, 0);
  EXPECT_FALSE(parse_serve_spec("", &host, &port));
  EXPECT_FALSE(parse_serve_spec("host:", &host, &port));
  EXPECT_FALSE(parse_serve_spec("not-a-port", &host, &port));
  EXPECT_FALSE(parse_serve_spec(":99999", &host, &port));
}

TEST(Expose, HandleRoutesWithoutSockets) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("route.test").add(5);
  SloTracker slo(&reg);
  slo.declare({"probe", "test objective", 0.9, 0.0, 8});
  slo.find("probe")->record(true);
  FlightRecorder rec(/*capacity=*/8);
  rec.record(FlightEventType::kRunBegin, 0, 1, 2);
  rec.record(FlightEventType::kRunEnd, 0, 3, 4);
  const ExposeServer server(&reg, &slo, &rec);

  const auto metrics = server.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("lambmesh_route_test_total 5"),
            std::string::npos);

  const auto healthz = server.handle("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  const auto slo_resp = server.handle("/slo");
  EXPECT_EQ(slo_resp.status, 200);
  EXPECT_NE(slo_resp.body.find("\"probe\""), std::string::npos);
  EXPECT_NE(slo_resp.body.find("\"burn\""), std::string::npos);

  const auto recorder_resp = server.handle("/recorder?n=1");
  EXPECT_EQ(recorder_resp.status, 200);
  EXPECT_NE(recorder_resp.body.find("\"events\""), std::string::npos);
  // n=1 keeps only the newest event (seq 1).
  EXPECT_EQ(recorder_resp.body.find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(recorder_resp.body.find("\"seq\": 1"), std::string::npos);

  EXPECT_EQ(server.handle("/nope").status, 404);
}

// Issues one real HTTP GET against a started server; gives up after 5 s
// without data so a stalled server fails the test instead of hanging it.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(Expose, ServerEndToEndOnEphemeralPort) {
  MetricsRegistry reg(/*enabled=*/true);
  reg.counter("e2e.hits").add(7);
  SloTracker slo(&reg);
  FlightRecorder rec(/*capacity=*/8);
  ExposeServer server(&reg, &slo, &rec);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("lambmesh_e2e_hits_total 7"), std::string::npos);
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos);
  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(Expose, IdlePeerDoesNotStallScrapes) {
  MetricsRegistry reg(/*enabled=*/true);
  ExposeServer server(&reg, nullptr, nullptr);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  // A peer that connects and never sends a byte.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const auto start = std::chrono::steady_clock::now();
  const std::string health = http_get(server.port(), "/healthz");
  const auto answered = std::chrono::steady_clock::now() - start;
  EXPECT_NE(health.find("ok\n"), std::string::npos);
  EXPECT_LT(answered, std::chrono::seconds(2));

  // A second idle peer, then stop(): the server thread must not sit in
  // its recv.
  const int idle2 = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(
      ::connect(idle2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stop_start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(1));
  ::close(idle);
  ::close(idle2);
}

// Hostile peers. Each case must leave the server answering the next
// /healthz, and stop() must still return promptly.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string read_until_close(int fd) {
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

// Sends `bytes` (then half-closes when `close_write`) and returns all the
// server answers.
std::string raw_exchange(int port, const std::string& bytes,
                         bool close_write = false) {
  const int fd = connect_loopback(port);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(sent, bytes.size());
  if (close_write) ::shutdown(fd, SHUT_WR);
  const std::string response = read_until_close(fd);
  ::close(fd);
  return response;
}

void expect_healthy_then_stop(ExposeServer& server) {
  EXPECT_EQ(http_get(server.port(), "/healthz").rfind("HTTP/1.1 200 OK", 0),
            0u);
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
}

TEST(Expose, SlowlorisIsDroppedAtTheDeadline) {
  MetricsRegistry reg(/*enabled=*/true);
  ExposeServer server(&reg, nullptr, nullptr);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  const int fd = connect_loopback(server.port());
  const std::string head = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  // One byte every 200 ms: the whole head would take ~8 s.
  const auto start = std::chrono::steady_clock::now();
  for (const char c : head) {
    if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) break;
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(2)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  // Dropped without an answer once the 1 s deadline passed.
  EXPECT_EQ(read_until_close(fd), "");
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(3));
  ::close(fd);
  expect_healthy_then_stop(server);
}

TEST(Expose, OversizedHeadGets431) {
  MetricsRegistry reg(/*enabled=*/true);
  ExposeServer server(&reg, nullptr, nullptr);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  // Exactly 16 KiB with no blank line: the server reads all of it, so
  // its close carries no unread bytes that would reset the answer.
  std::string head = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  head.resize(16 * 1024, 'a');
  EXPECT_EQ(raw_exchange(server.port(), head)
                .rfind("HTTP/1.1 431 Request Header Fields Too Large\r\n", 0),
            0u);
  expect_healthy_then_stop(server);
}

TEST(Expose, GarbageAndTruncatedHeadsGet400) {
  MetricsRegistry reg(/*enabled=*/true);
  ExposeServer server(&reg, nullptr, nullptr);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  const std::string bad_request = "HTTP/1.1 400 Bad Request\r\n";
  // A TLS ClientHello-like prefix, a request line without a version, and
  // a lower-case method.
  for (const std::string& head :
       {std::string("\x16\x03\x01\x02\x01 garbage\r\n\r\n"),
        std::string("GET /healthz\r\n\r\n"),
        std::string("get /healthz HTTP/1.1\r\n\r\n")}) {
    EXPECT_EQ(raw_exchange(server.port(), head).rfind(bad_request, 0), 0u)
        << head;
  }
  // The peer closes before the blank line.
  EXPECT_EQ(raw_exchange(server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n",
                         /*close_write=*/true)
                .rfind(bad_request, 0),
            0u);
  // A well-formed head with another method is still 405.
  EXPECT_EQ(raw_exchange(server.port(), "POST /metrics HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0),
            0u);
  EXPECT_EQ(raw_exchange(server.port(), "GET /nope HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);
  expect_healthy_then_stop(server);
}

TEST(Expose, PeerClosingMidResponseIsSurvived) {
  MetricsRegistry reg(/*enabled=*/true);
  // A /metrics body far larger than the socket buffers.
  for (int i = 0; i < 4000; ++i) {
    reg.counter("hostile.padding_counter_" + std::to_string(i)).add(i);
  }
  ExposeServer server(&reg, nullptr, nullptr);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  const int fd = connect_loopback(server.port());
  const int small = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  char chunk[64];
  EXPECT_GT(::recv(fd, chunk, sizeof(chunk), 0), 0);
  // Abort: the unread remainder turns the close into a reset.
  const linger abort_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close, sizeof(abort_close));
  ::close(fd);
  expect_healthy_then_stop(server);
}

TEST(Slo, BurnMathAndMetricsExport) {
  MetricsRegistry reg(/*enabled=*/true);
  SloTracker tracker(&reg);
  // 0.875 keeps the error budget (1 - objective = 0.125) exact in
  // binary, so burn-at-budget is exactly 1.0.
  Slo* slo = tracker.declare({"math", "burn math", 0.875, 0.0, 8});
  for (int i = 0; i < 7; ++i) slo->record(true);
  slo->record(false);
  SloSnapshot snap = slo->snapshot();
  EXPECT_EQ(snap.good, 7u);
  EXPECT_EQ(snap.bad, 1u);
  EXPECT_DOUBLE_EQ(snap.bad_fraction, 0.125);
  EXPECT_DOUBLE_EQ(snap.burn, 1.0);
  EXPECT_TRUE(snap.met);
  slo->record(false);  // window slides: 6 good, 2 bad
  snap = slo->snapshot();
  EXPECT_DOUBLE_EQ(snap.burn, 2.0);
  EXPECT_FALSE(snap.met);
  // The registry sees the same story.
  EXPECT_EQ(reg.counter("slo.math.good").value(), 7);
  EXPECT_EQ(reg.counter("slo.math.bad").value(), 2);
  EXPECT_DOUBLE_EQ(reg.gauge("slo.math.burn").value(), 2.0);
}

TEST(Slo, WindowSlidesOldFailuresOut) {
  MetricsRegistry reg(/*enabled=*/true);
  SloTracker tracker(&reg);
  Slo* slo = tracker.declare({"slide", "window", 0.5, 0.0, 4});
  for (int i = 0; i < 4; ++i) slo->record(false);
  EXPECT_FALSE(slo->snapshot().met);
  for (int i = 0; i < 4; ++i) slo->record(true);
  const SloSnapshot snap = slo->snapshot();
  EXPECT_EQ(snap.bad, 0u);
  EXPECT_DOUBLE_EQ(snap.burn, 0.0);
  EXPECT_TRUE(snap.met);
  EXPECT_EQ(snap.total_bad, 4u);  // lifetime totals never slide
  EXPECT_EQ(snap.total_good, 4u);
}

TEST(Slo, LatencyThresholdClassifies) {
  MetricsRegistry reg(/*enabled=*/true);
  SloTracker tracker(&reg);
  Slo* slo = tracker.declare({"lat", "latency", 0.5, 0.25, 8});
  slo->observe_latency(0.1);   // good
  slo->observe_latency(0.25);  // good (inclusive)
  slo->observe_latency(0.9);   // bad
  const SloSnapshot snap = slo->snapshot();
  EXPECT_EQ(snap.good, 2u);
  EXPECT_EQ(snap.bad, 1u);
}

TEST(Slo, TrackerJsonAndGlobalObjectives) {
  MetricsRegistry reg(/*enabled=*/true);
  SloTracker tracker(&reg);
  tracker.declare({"j1", "first", 0.99, 0.0, 8});
  tracker.declare({"j2", "second", 0.9, 0.5, 8});
  tracker.find("j1")->record(true);
  const std::string json = tracker.render_json();
  EXPECT_NE(json.find("\"j1\""), std::string::npos);
  EXPECT_NE(json.find("\"j2\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\": 0.99"), std::string::npos);
  EXPECT_NE(json.find("\"met\": true"), std::string::npos);
  // declare() is find-or-create: re-declaring returns the same Slo.
  EXPECT_EQ(tracker.declare({"j1", "first", 0.99, 0.0, 8}),
            tracker.find("j1"));
  // The global tracker pre-declares the standard objectives.
  EXPECT_NE(SloTracker::global().find(kSloReconfigureLatency), nullptr);
  EXPECT_NE(SloTracker::global().find(kSloRouteVendLatency), nullptr);
  EXPECT_NE(SloTracker::global().find(kSloEpochCompletion), nullptr);
  EXPECT_NE(SloTracker::global().find(kSloReplayLoss), nullptr);
}

TEST(Init, MetricsFlagEnablesCollection) {
  // --metrics=json:<path> through the one process-flag call must switch
  // the global registry on.
  constexpr io::CliSpec kNoFlags{};
  const io::CliArgs args = io::CliArgs::parse(
      {"--metrics=json:" + ::testing::TempDir() + "obs_test_exit.json"},
      kNoFlags);
  EXPECT_TRUE(io::apply_process_flags(args));
  EXPECT_TRUE(MetricsRegistry::global().enabled());
  // Leave the registry recording; the atexit dump writes to TempDir.
}

}  // namespace
}  // namespace lamb::obs
