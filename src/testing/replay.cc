#include "testing/replay.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"

namespace star::testing {
namespace {

/// Doubles are serialized as raw bit patterns: a replay must reproduce the
/// exact FP behaviour of the original run, and "%.17g" round-trips are one
/// locale bug away from not doing that.
std::string BitsOf(double d) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "x%016" PRIx64, std::bit_cast<uint64_t>(d));
  return buf;
}

bool ParseBits(const std::string& tok, double* out) {
  if (tok.size() != 17 || tok[0] != 'x') return false;
  char* end = nullptr;
  const uint64_t bits = std::strtoull(tok.c_str() + 1, &end, 16);
  if (end == nullptr || *end != '\0') return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

bool ParseU64(const std::string& tok, uint64_t* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(tok.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseI64(const std::string& tok, int64_t* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(tok.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

/// Names (types, relations, profile) may not contain whitespace on a
/// replay line: spaces become '_', empty becomes a lone '_' (same
/// convention as graph_io).
std::string EncodeName(const std::string& name) {
  if (name.empty()) return "_";
  std::string out = name;
  for (char& c : out) {
    if (c == ' ' || c == '\t') c = '_';
  }
  return out;
}

std::string DecodeName(const std::string& enc) {
  if (enc == "_") return "";
  std::string out = enc;
  for (char& c : out) {
    if (c == '_') c = ' ';
  }
  return out;
}

/// Splits on single spaces into at most `max_fields` tokens; the last
/// token swallows the rest of the line (labels/relations keep spaces).
std::vector<std::string> SplitLine(const std::string& line,
                                   size_t max_fields) {
  std::vector<std::string> fields;
  size_t pos = 0;
  while (pos < line.size() && fields.size() + 1 < max_fields) {
    const size_t space = line.find(' ', pos);
    if (space == std::string::npos) break;
    fields.push_back(line.substr(pos, space - pos));
    pos = space + 1;
  }
  if (pos <= line.size()) fields.push_back(line.substr(pos));
  return fields;
}

BugInjection InjectionByName(const std::string& name) {
  if (name == BugInjectionName(BugInjection::kWarmTopListScores)) {
    return BugInjection::kWarmTopListScores;
  }
  if (name == BugInjectionName(BugInjection::kWarmCandidateScores)) {
    return BugInjection::kWarmCandidateScores;
  }
  return BugInjection::kNone;
}

}  // namespace

std::string SerializeReplay(const FuzzCase& c) {
  std::ostringstream out;
  out << "star-replay v1\n";
  out << "seed " << c.seed << "\n";
  out << "profile " << EncodeName(c.profile) << "\n";
  out << "inject " << BugInjectionName(c.inject) << "\n";
  out << "k " << c.k << "\n";
  out << "with_index " << (c.with_index ? 1 : 0) << "\n";
  out << "alpha " << BitsOf(c.alpha) << "\n";
  out << "tight_deadline_ms " << BitsOf(c.tight_deadline_ms) << "\n";
  // Written only when pinned so pre-degrade replay files stay loadable by
  // this parser and new files stay loadable by strict older parsers
  // whenever the field is at its default.
  if (c.degrade != 0) out << "degrade " << c.degrade << "\n";
  // Likewise written only when set: replays without the line read as "no
  // context", as every replay did before the field existed.
  if (c.context) out << "context 1\n";
  const auto& dc = c.decomposition;
  out << "decomp " << static_cast<int>(dc.strategy) << " "
      << BitsOf(dc.lambda_tradeoff) << " " << dc.sample_size << " "
      << BitsOf(dc.connectivity_p) << " " << dc.seed << " "
      << dc.max_enumeration_nodes << "\n";
  const auto& cfg = c.config;
  out << "config " << BitsOf(cfg.node_threshold) << " "
      << BitsOf(cfg.edge_threshold) << " " << BitsOf(cfg.lambda) << " "
      << cfg.d << " " << cfg.max_candidates << " " << cfg.max_retrieval << " "
      << BitsOf(cfg.wildcard_node_score) << " "
      << (cfg.enforce_injective ? 1 : 0) << "\n";
  for (int u = 0; u < c.query.node_count(); ++u) {
    const auto& qn = c.query.node(u);
    out << "qn " << (qn.wildcard ? 1 : 0) << " " << EncodeName(qn.type_name)
        << " " << qn.label << "\n";
  }
  for (int e = 0; e < c.query.edge_count(); ++e) {
    const auto& qe = c.query.edge(e);
    out << "qe " << qe.u << " " << qe.v << " "
        << (qe.wildcard_relation ? "_" : qe.relation) << "\n";
  }
  out << "graph\n";
  graph::SaveGraph(c.graph, out);
  out << "endgraph\n";
  return out.str();
}

bool ParseReplay(const std::string& text, FuzzCase* out, std::string* error) {
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };

  ++line_no;
  if (!std::getline(in, line) || line != "star-replay v1") {
    return fail("missing 'star-replay v1' header");
  }
  FuzzCase c;
  bool have_graph = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto key_end = line.find(' ');
    const std::string key = line.substr(0, key_end);
    const std::string rest =
        key_end == std::string::npos ? "" : line.substr(key_end + 1);
    if (key == "seed") {
      if (!ParseU64(rest, &c.seed)) return fail("bad seed");
    } else if (key == "profile") {
      c.profile = DecodeName(rest);
    } else if (key == "inject") {
      c.inject = InjectionByName(rest);
    } else if (key == "k") {
      uint64_t k = 0;
      if (!ParseU64(rest, &k) || k == 0) return fail("bad k");
      c.k = static_cast<size_t>(k);
    } else if (key == "with_index") {
      c.with_index = rest == "1";
    } else if (key == "context") {
      if (rest != "0" && rest != "1") return fail("bad context");
      c.context = rest == "1";
    } else if (key == "alpha") {
      if (!ParseBits(rest, &c.alpha)) return fail("bad alpha bits");
    } else if (key == "tight_deadline_ms") {
      if (!ParseBits(rest, &c.tight_deadline_ms)) {
        return fail("bad deadline bits");
      }
    } else if (key == "degrade") {
      int64_t l = 0;
      if (!ParseI64(rest, &l) || l < 0 || l > 3) return fail("bad degrade");
      c.degrade = static_cast<int>(l);
    } else if (key == "decomp") {
      const auto f = SplitLine(rest, 6);
      int64_t strategy = 0, max_enum = 0;
      uint64_t sample = 0, dseed = 0;
      if (f.size() != 6 || !ParseI64(f[0], &strategy) ||
          !ParseBits(f[1], &c.decomposition.lambda_tradeoff) ||
          !ParseU64(f[2], &sample) ||
          !ParseBits(f[3], &c.decomposition.connectivity_p) ||
          !ParseU64(f[4], &dseed) || !ParseI64(f[5], &max_enum)) {
        return fail("bad decomp line");
      }
      c.decomposition.strategy =
          static_cast<core::DecompositionStrategy>(strategy);
      c.decomposition.sample_size = static_cast<size_t>(sample);
      c.decomposition.seed = dseed;
      c.decomposition.max_enumeration_nodes = static_cast<int>(max_enum);
    } else if (key == "config") {
      const auto f = SplitLine(rest, 8);
      int64_t d = 0;
      uint64_t max_cand = 0, max_retr = 0;
      if (f.size() != 8 || !ParseBits(f[0], &c.config.node_threshold) ||
          !ParseBits(f[1], &c.config.edge_threshold) ||
          !ParseBits(f[2], &c.config.lambda) || !ParseI64(f[3], &d) ||
          !ParseU64(f[4], &max_cand) || !ParseU64(f[5], &max_retr) ||
          !ParseBits(f[6], &c.config.wildcard_node_score)) {
        return fail("bad config line");
      }
      c.config.d = static_cast<int>(d);
      c.config.max_candidates = static_cast<size_t>(max_cand);
      c.config.max_retrieval = static_cast<size_t>(max_retr);
      c.config.enforce_injective = f[7] == "1";
    } else if (key == "qn") {
      const auto f = SplitLine(rest, 3);
      if (f.size() != 3) return fail("bad qn line");
      if (f[0] == "1") {
        c.query.AddWildcardNode(DecodeName(f[1]));
      } else {
        c.query.AddNode(f[2], DecodeName(f[1]));
      }
    } else if (key == "qe") {
      const auto f = SplitLine(rest, 3);
      int64_t u = 0, v = 0;
      if (f.size() != 3 || !ParseI64(f[0], &u) || !ParseI64(f[1], &v)) {
        return fail("bad qe line");
      }
      if (u < 0 || v < 0 || u >= c.query.node_count() ||
          v >= c.query.node_count() || u == v) {
        return fail("qe endpoints out of range");
      }
      c.query.AddEdge(static_cast<int>(u), static_cast<int>(v),
                      f[2] == "_" ? "" : f[2]);
    } else if (key == "graph") {
      std::ostringstream section;
      bool closed = false;
      while (std::getline(in, line)) {
        ++line_no;
        if (line == "endgraph") {
          closed = true;
          break;
        }
        section << line << "\n";
      }
      if (!closed) return fail("graph section missing 'endgraph'");
      std::istringstream gs(section.str());
      auto loaded = graph::LoadGraph(gs);
      if (!loaded.ok()) return fail("graph: " + loaded.status().message());
      c.graph = std::move(loaded).value();
      have_graph = true;
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!have_graph) return fail("no graph section");
  if (c.query.node_count() == 0) return fail("no query nodes");
  *out = std::move(c);
  return true;
}

bool WriteReplayFile(const std::string& path, const FuzzCase& c) {
  std::ofstream out(path);
  if (!out) return false;
  out << SerializeReplay(c);
  return static_cast<bool>(out);
}

bool LoadReplayFile(const std::string& path, FuzzCase* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open: " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseReplay(text.str(), out, error);
}

}  // namespace star::testing
