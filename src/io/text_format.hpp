// Plain-text serialization of mesh shapes, fault sets, and lamb sets —
// the interchange format used by the lambmesh CLI and by a machine's
// reconfiguration pipeline (diagnostics write fault reports; the solver
// writes the lamb set the job scheduler must avoid).
//
// Format (line oriented, '#' comments, whitespace separated):
//
//   mesh 32 32 32            # or: torus 8 8
//   node 3 4 5               # node fault at (3,4,5)
//   link 3 4 5 0 +           # bidirectional link fault along dim 0
//   unilink 3 4 5 0 -        # one-direction link fault
//   lamb 7 8 9               # lamb node (lamb-set files)
//
// Parsers report errors with 1-based line numbers.
#pragma once

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"

namespace lamb::io {

class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

// A parsed fault file: the shape plus its faults (and, for lamb-set
// files, the lamb nodes). The shape is heap-allocated so the FaultSet's
// internal reference stays valid when the document moves.
struct Document {
  std::unique_ptr<MeshShape> shape;
  std::unique_ptr<FaultSet> faults;
  std::vector<NodeId> lambs;  // sorted
};

// Parses a document from a stream/string. Throws ParseError.
Document parse(std::istream& in);
Document parse_string(const std::string& text);
Document parse_file(const std::string& path);  // throws std::runtime_error

// Serializes shape + faults (+ optional lambs) in the format above.
void write(std::ostream& out, const MeshShape& shape, const FaultSet& faults,
           const std::vector<NodeId>* lambs = nullptr);
std::string write_string(const MeshShape& shape, const FaultSet& faults,
                         const std::vector<NodeId>* lambs = nullptr);
// Throws std::runtime_error when `path` cannot be written.
void write_file(const std::string& path, const MeshShape& shape,
                const FaultSet& faults,
                const std::vector<NodeId>* lambs = nullptr);

// Parses a mesh geometry like "32x32x32" (mesh) or "8x8t" (torus).
MeshShape parse_geometry(const std::string& spec);

}  // namespace lamb::io
