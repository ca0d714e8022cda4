#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"

namespace star::graph {

namespace {

// Type/relation names may not contain whitespace in the file format;
// encode spaces as underscores and empty names as a single underscore.
std::string EncodeName(std::string_view name) {
  if (name.empty()) return "_";
  std::string out(name);
  for (char& c : out) {
    if (c == ' ' || c == '\t') c = '_';
  }
  return out;
}

std::string DecodeName(const std::string& encoded) {
  if (encoded == "_") return "";
  std::string out = encoded;
  for (char& c : out) {
    if (c == '_') c = ' ';
  }
  return out;
}

}  // namespace

Status SaveGraph(const KnowledgeGraph& g, std::ostream& out) {
  out << "star-kg v1\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "N\t" << v << '\t' << EncodeName(g.TypeName(g.NodeType(v))) << '\t'
        << g.NodeLabel(v) << '\n';
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    out << "E\t" << g.EdgeSrc(e) << '\t' << g.EdgeDst(e) << '\t'
        << EncodeName(g.RelationName(g.EdgeRelation(e))) << '\n';
  }
  if (!out) return Status::IoError("stream write failed");
  return Status::Ok();
}

Status SaveGraphToFile(const KnowledgeGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return SaveGraph(g, out);
}

Result<KnowledgeGraph> LoadGraph(std::istream& in) {
  // Slurp once; the buffer is the only size-dependent allocation the parse
  // itself makes (lines are viewed, records counted, builder pre-sized).
  const std::string buf{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
  std::vector<std::string_view> lines;
  lines.reserve(std::count(buf.begin(), buf.end(), '\n') + 1);
  for (size_t pos = 0; pos < buf.size();) {
    size_t eol = buf.find('\n', pos);
    if (eol == std::string::npos) eol = buf.size();
    lines.emplace_back(buf.data() + pos, eol - pos);
    pos = eol + 1;
  }
  if (lines.empty() || Trim(lines[0]) != "star-kg v1") {
    return Status::CorruptData("missing 'star-kg v1' header");
  }
  size_t node_lines = 0, edge_lines = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view t = Trim(lines[i]);
    if (t.size() >= 2 && t[1] == '\t') {
      node_lines += t[0] == 'N';
      edge_lines += t[0] == 'E';
    }
  }
  KnowledgeGraph::Builder builder;
  builder.Reserve(node_lines, edge_lines);
  size_t line_no = 1;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto fields = SplitFields(line, '\t');
    const auto fail = [&](const std::string& why) {
      return Status::CorruptData("line " + std::to_string(line_no) + ": " + why);
    };
    if (fields[0] == "N") {
      if (fields.size() < 4) return fail("node line needs 4 fields");
      if (!IsNumeric(fields[1])) return fail("bad node id");
      const uint64_t id = std::stoull(fields[1]);
      if (id != builder.node_count()) return fail("non-dense node id");
      // Re-join label fields in case the label itself contained tabs.
      std::string label = fields[3];
      for (size_t i = 4; i < fields.size(); ++i) label += " " + fields[i];
      builder.AddNode(std::move(label), DecodeName(fields[2]));
    } else if (fields[0] == "E") {
      if (fields.size() < 4) return fail("edge line needs 4 fields");
      if (!IsNumeric(fields[1]) || !IsNumeric(fields[2])) {
        return fail("bad edge endpoint");
      }
      const uint64_t s = std::stoull(fields[1]);
      const uint64_t d = std::stoull(fields[2]);
      if (s >= builder.node_count() || d >= builder.node_count()) {
        return fail("edge endpoint out of range");
      }
      builder.AddEdge(static_cast<NodeId>(s), static_cast<NodeId>(d),
                      DecodeName(fields[3]));
    } else {
      return fail("unknown record type '" + fields[0] + "'");
    }
  }
  return std::move(builder).Build();
}

Result<KnowledgeGraph> LoadGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return LoadGraph(in);
}

}  // namespace star::graph
