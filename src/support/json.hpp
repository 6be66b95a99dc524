// The repo's one JSON writer: one string escaper, one number rule, one
// checked file write, and the BenchDoc envelope (docs/OBSERVABILITY.md
// "Bench documents") that tools/check_bench_gates.py gates on.
#pragma once

#include <concepts>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lamb::support {

// `s` quoted, with `"` and `\` escaped and control characters as \n, \t
// or \u00XX.
std::string json_string(std::string_view s);
// Shortest round-trip form (0.99 -> 0.99, 3.0 -> 3); null when
// non-finite, so the document still parses.
std::string json_number(double v);
// False when `path` cannot be opened, written or closed.
bool write_file(const std::string& path, std::string_view text);
// Closes a file opened for writing; false when a write to it or the
// close failed.
bool close_written(std::FILE* out);

// A scalar rendered on construction; integers print as integers.
class JsonScalar {
 public:
  JsonScalar(std::string_view s) : text_(json_string(s)) {}
  JsonScalar(const char* s) : text_(json_string(s)) {}
  JsonScalar(const std::string& s) : text_(json_string(s)) {}
  JsonScalar(bool b) : text_(b ? "true" : "false") {}
  JsonScalar(double v) : text_(json_number(v)) {}
  template <std::integral T>
  JsonScalar(T v) : text_(std::to_string(v)) {}

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

using JsonMembers =
    std::initializer_list<std::pair<std::string_view, JsonScalar>>;

// Builds a document in the repo's layout: a block container puts each
// member on its own line at two spaces per level; an inline container and
// everything in it stays on one line. The document ends with a newline.
class JsonWriter {
 public:
  enum Layout { kBlock, kInline };

  JsonWriter& begin_object(Layout layout = kBlock) { return open('{', layout); }
  JsonWriter& begin_array(Layout layout = kBlock) { return open('[', layout); }
  JsonWriter& end();
  JsonWriter& key(std::string_view name);  // of the next member
  JsonWriter& value(const JsonScalar& v);

  JsonWriter& field(std::string_view name, const JsonScalar& v) {
    return key(name).value(v);
  }
  JsonWriter& fields(JsonMembers members);
  // An inline object holding `members`, as the next value.
  JsonWriter& record(JsonMembers members) {
    return begin_object(kInline).fields(members).end();
  }
  JsonWriter& object(std::string_view name) { return key(name).begin_object(); }
  JsonWriter& array(std::string_view name, Layout layout = kBlock) {
    return key(name).begin_array(layout);
  }

  const std::string& str() const { return out_; }

 private:
  struct Frame {
    char close;
    bool inline_;
    bool empty = true;
  };
  void separate();
  JsonWriter& open(char bracket, Layout layout);

  std::string out_;
  std::vector<Frame> stack_;
  bool keyed_ = false;  // key() written, value pending
};

// The envelope of every bench, storm and loadgen document:
//   {"bench"|"tool": name, "schema_version": 2, "machine": {...},
//    <the producer's members>, "gates": [{"metric": m, "max": x}, ...]}
// Construction leaves the top-level object open for the members.
class BenchDoc : public JsonWriter {
 public:
  BenchDoc(std::string_view name_key, std::string_view name);

  BenchDoc& gate_max(std::string_view metric, double bound) {
    return gate(metric, "max", bound);
  }
  BenchDoc& gate_min(std::string_view metric, double bound) {
    return gate(metric, "min", bound);
  }
  BenchDoc& gate_equals(std::string_view metric, double value) {
    return gate(metric, "equals", value);
  }

  // Appends the gates, closes the document and writes it, printing
  // "wrote <path>"; a failed write is an error line and exit 2.
  void write(const std::string& path);

 private:
  struct Gate {
    std::string metric;
    const char* op;
    double bound;
  };
  BenchDoc& gate(std::string_view metric, const char* op, double bound) {
    gates_.push_back({std::string(metric), op, bound});
    return *this;
  }

  std::vector<Gate> gates_;
};

}  // namespace lamb::support
