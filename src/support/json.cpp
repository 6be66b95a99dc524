#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/machine_info.hpp"

namespace lamb::support {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), out);
  return close_written(out);
}

bool close_written(std::FILE* out) {
  const bool written = std::ferror(out) == 0;
  return std::fclose(out) == 0 && written;
}

// Places the next value: after its key, or as the next element of the
// open container.
void JsonWriter::separate() {
  if (keyed_) {
    keyed_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (!frame.empty) out_ += frame.inline_ ? ", " : ",";
  if (!frame.inline_) out_.append("\n").append(2 * stack_.size(), ' ');
  frame.empty = false;
}

JsonWriter& JsonWriter::open(char bracket, Layout layout) {
  separate();
  out_ += bracket;
  const bool in_inline = !stack_.empty() && stack_.back().inline_;
  stack_.push_back(
      {bracket == '{' ? '}' : ']', layout == kInline || in_inline});
  return *this;
}

JsonWriter& JsonWriter::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (!frame.inline_ && !frame.empty) {
    out_.append("\n").append(2 * stack_.size(), ' ');
  }
  out_ += frame.close;
  if (stack_.empty()) out_ += '\n';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += json_string(name) + ": ";
  keyed_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const JsonScalar& v) {
  separate();
  out_ += v.text();
  return *this;
}

JsonWriter& JsonWriter::fields(JsonMembers members) {
  for (const auto& [name, v] : members) field(name, v);
  return *this;
}

BenchDoc::BenchDoc(std::string_view name_key, std::string_view name) {
  const MachineInfo info = machine_info();
  begin_object()
      .fields({{name_key, name}, {"schema_version", kBenchSchemaVersion}})
      .key("machine")
      .record({{"hostname", info.hostname},
               {"hardware_concurrency", info.hardware_concurrency},
               {"build_type", info.build_type},
               {"pointer_bits", info.pointer_bits}});
}

void BenchDoc::write(const std::string& path) {
  if (!gates_.empty()) {
    array("gates");
    for (const Gate& g : gates_) {
      record({{"metric", g.metric}, {g.op, g.bound}});
    }
    end();
  }
  end();
  if (!write_file(path, str())) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace lamb::support
