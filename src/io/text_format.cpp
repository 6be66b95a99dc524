#include "io/text_format.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/json.hpp"

namespace lamb::io {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;  // comment to end of line
    tokens.push_back(token);
  }
  return tokens;
}

// Strict decimal parse: the whole token must be an integer in [lo, hi].
// std::stol would silently accept trailing garbage ("10x" -> 10) and
// values that wrap when narrowed to Coord; documents arrive from the
// outside world, so both are hard errors.
bool parse_int_token(const std::string& token, long long lo, long long hi,
                     long long* out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  long long value = 0;
  const std::from_chars_result result = std::from_chars(first, last, value);
  if (result.ec != std::errc() || result.ptr != last || value < lo ||
      value > hi) {
    return false;
  }
  *out = value;
  return true;
}

// Rejects extra tokens after a fully-parsed directive; silently ignoring
// them would mask typos like "node 1 2 3" on a 2-d mesh.
void expect_line_end(const std::vector<std::string>& tokens,
                     std::size_t used, int line) {
  if (tokens.size() > used) {
    throw ParseError(line, "unexpected trailing token '" + tokens[used] +
                               "'");
  }
}

Point parse_point(const std::vector<std::string>& tokens, std::size_t first,
                  const MeshShape& shape, int line) {
  if (tokens.size() < first + static_cast<std::size_t>(shape.dim())) {
    throw ParseError(line, "expected " + std::to_string(shape.dim()) +
                               " coordinates");
  }
  Point p;
  for (int j = 0; j < shape.dim(); ++j) {
    const std::string& tok = tokens[first + static_cast<std::size_t>(j)];
    long long value = 0;
    if (!parse_int_token(tok, std::numeric_limits<Coord>::min(),
                         std::numeric_limits<Coord>::max(), &value)) {
      throw ParseError(line, "bad coordinate '" + tok + "'");
    }
    p[j] = static_cast<Coord>(value);
  }
  if (!shape.in_bounds(p)) throw ParseError(line, "coordinate out of bounds");
  return p;
}

Dir parse_dir(const std::string& token, int line) {
  if (token == "+") return Dir::Pos;
  if (token == "-") return Dir::Neg;
  throw ParseError(line, "direction must be '+' or '-'");
}

int parse_dim(const std::string& token, const MeshShape& shape, int line) {
  long long dim = -1;
  if (!parse_int_token(token, 0, shape.dim() - 1, &dim)) {
    throw ParseError(line, "bad dimension '" + token + "'");
  }
  return static_cast<int>(dim);
}

}  // namespace

Document parse(std::istream& in) {
  Document doc;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& verb = tokens[0];
    if (verb == "mesh" || verb == "torus") {
      if (doc.shape) throw ParseError(line_no, "duplicate mesh declaration");
      std::vector<Coord> widths;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        long long width = 0;
        if (!parse_int_token(tokens[i], 1,
                             std::numeric_limits<Coord>::max(), &width)) {
          throw ParseError(line_no, "bad width '" + tokens[i] + "'");
        }
        widths.push_back(static_cast<Coord>(width));
      }
      if (widths.empty()) throw ParseError(line_no, "mesh needs widths");
      try {
        doc.shape = std::make_unique<MeshShape>(
            verb == "mesh" ? MeshShape::mesh(widths)
                           : MeshShape::torus(widths));
      } catch (const std::invalid_argument& e) {
        throw ParseError(line_no, e.what());
      }
      doc.faults = std::make_unique<FaultSet>(*doc.shape);
      continue;
    }
    if (!doc.shape) {
      throw ParseError(line_no, "mesh/torus declaration must come first");
    }
    const std::size_t d = static_cast<std::size_t>(doc.shape->dim());
    if (verb == "node") {
      expect_line_end(tokens, 1 + d, line_no);
      doc.faults->add_node(parse_point(tokens, 1, *doc.shape, line_no));
    } else if (verb == "link" || verb == "unilink") {
      if (tokens.size() < 1 + d + 2) {
        throw ParseError(line_no, "link needs coords, dim, dir");
      }
      expect_line_end(tokens, 1 + d + 2, line_no);
      const Point p = parse_point(tokens, 1, *doc.shape, line_no);
      const int dim = parse_dim(tokens[1 + d], *doc.shape, line_no);
      const Dir dir = parse_dir(tokens[2 + d], line_no);
      try {
        if (verb == "link") {
          doc.faults->add_link(p, dim, dir);
        } else {
          doc.faults->add_directed_link(p, dim, dir);
        }
      } catch (const std::invalid_argument& e) {
        throw ParseError(line_no, e.what());
      }
    } else if (verb == "lamb") {
      expect_line_end(tokens, 1 + d, line_no);
      const Point p = parse_point(tokens, 1, *doc.shape, line_no);
      doc.lambs.push_back(doc.shape->index(p));
    } else {
      throw ParseError(line_no, "unknown directive '" + verb + "'");
    }
  }
  if (!doc.shape) throw ParseError(line_no, "missing mesh/torus declaration");
  std::sort(doc.lambs.begin(), doc.lambs.end());
  doc.lambs.erase(std::unique(doc.lambs.begin(), doc.lambs.end()),
                  doc.lambs.end());
  return doc;
}

Document parse_string(const std::string& text) {
  std::istringstream stream(text);
  return parse(stream);
}

Document parse_file(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw std::runtime_error("cannot open " + path);
  return parse(stream);
}

void write(std::ostream& out, const MeshShape& shape, const FaultSet& faults,
           const std::vector<NodeId>* lambs) {
  out << (shape.wraps() ? "torus" : "mesh");
  for (int j = 0; j < shape.dim(); ++j) out << " " << shape.width(j);
  out << "\n";
  for (NodeId id : faults.node_faults()) {
    const Point p = shape.point(id);
    out << "node";
    for (int j = 0; j < shape.dim(); ++j) out << " " << p[j];
    out << "\n";
  }
  for (const LinkFault& lf : faults.link_faults()) {
    out << (lf.bidirectional ? "link" : "unilink");
    for (int j = 0; j < shape.dim(); ++j) out << " " << lf.from[j];
    out << " " << lf.dim << " " << (lf.dir == Dir::Pos ? "+" : "-") << "\n";
  }
  if (lambs != nullptr) {
    for (NodeId id : *lambs) {
      const Point p = shape.point(id);
      out << "lamb";
      for (int j = 0; j < shape.dim(); ++j) out << " " << p[j];
      out << "\n";
    }
  }
}

std::string write_string(const MeshShape& shape, const FaultSet& faults,
                         const std::vector<NodeId>* lambs) {
  std::ostringstream out;
  write(out, shape, faults, lambs);
  return out.str();
}

void write_file(const std::string& path, const MeshShape& shape,
                const FaultSet& faults, const std::vector<NodeId>* lambs) {
  if (!support::write_file(path, write_string(shape, faults, lambs))) {
    throw std::runtime_error("cannot write " + path);
  }
}

MeshShape parse_geometry(const std::string& spec) {
  std::string body = spec;
  bool torus = false;
  if (!body.empty() && (body.back() == 't' || body.back() == 'T')) {
    torus = true;
    body.pop_back();
  }
  std::vector<Coord> widths;
  std::string token;
  std::istringstream stream(body);
  while (std::getline(stream, token, 'x')) {
    long long width = 0;
    if (!parse_int_token(token, 1, std::numeric_limits<Coord>::max(),
                         &width)) {
      throw std::invalid_argument("bad geometry '" + spec + "'");
    }
    widths.push_back(static_cast<Coord>(width));
  }
  // "8x8x" leaves a trailing empty token that getline swallows silently.
  if (widths.empty() || (!body.empty() && body.back() == 'x')) {
    throw std::invalid_argument("bad geometry '" + spec + "'");
  }
  return torus ? MeshShape::torus(widths) : MeshShape::mesh(widths);
}

}  // namespace lamb::io
