#include "query/query_parser.h"

#include <cctype>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace star::query {

namespace {

/// Cursor over the input with one-token-ish lookahead helpers.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<QueryGraph> Run() {
    SkipSpace();
    while (!AtEnd()) {
      if (auto status = ParseClause(); !status.ok()) return status;
      SkipSpace();
      if (AtEnd()) break;
      if (!Consume(';')) {
        return Error("expected ';' between clauses");
      }
      SkipSpace();
      if (AtEnd()) break;  // trailing ';' tolerated
    }
    if (graph_.node_count() == 0) {
      return Status::CorruptData("empty query");
    }
    if (Status valid = graph_.Validate(); !valid.ok()) return valid;
    return std::move(graph_);
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& why) const {
    return Status::CorruptData(why + " at position " + std::to_string(pos_));
  }

  /// clause := node (edge node)*
  Status ParseClause() {
    int prev = -1;
    if (auto first = ParseNode(); first < 0) {
      return Error("expected '(' to start a node");
    } else {
      prev = first;
    }
    SkipSpace();
    while (!AtEnd() && Peek() == '-') {
      std::string relation;
      if (auto status = ParseEdge(relation); !status.ok()) return status;
      SkipSpace();
      const int next = ParseNode();
      if (next < 0) return Error("expected a node after an edge");
      if (next == prev) return Error("self-loop edges are not allowed");
      const uint64_t key = prev < next
                               ? (static_cast<uint64_t>(prev) << 32) | next
                               : (static_cast<uint64_t>(next) << 32) | prev;
      if (!edge_pairs_.insert(key).second) {
        return Error("duplicate edge between the same nodes");
      }
      graph_.AddEdge(prev, next, relation);
      prev = next;
      SkipSpace();
    }
    return Status::Ok();
  }

  /// edge := '--' | '-[relation]-'
  Status ParseEdge(std::string& relation) {
    if (!Consume('-')) return Error("expected '-'");
    if (Consume('-')) {
      relation.clear();
      return Status::Ok();
    }
    if (!Consume('[')) return Error("expected '-' or '[' in edge");
    const size_t start = pos_;
    while (!AtEnd() && Peek() != ']') ++pos_;
    if (AtEnd()) return Error("unterminated '[relation'");
    relation = std::string(Trim(text_.substr(start, pos_ - start)));
    ++pos_;  // ']'
    if (!Consume('-')) return Error("expected '-' after ']'");
    return Status::Ok();
  }

  /// node := '(' spec ')'; returns the node index or -1 on error.
  int ParseNode() {
    SkipSpace();
    if (!Consume('(')) return -1;
    const size_t start = pos_;
    int depth = 1;
    while (!AtEnd()) {
      if (Peek() == '(') ++depth;
      if (Peek() == ')' && --depth == 0) break;
      ++pos_;
    }
    if (AtEnd()) return -1;  // unterminated
    std::string spec(Trim(text_.substr(start, pos_ - start)));
    ++pos_;  // ')'

    // Optional '/Type' suffix (the last slash, so labels may contain '/'
    // only if a type is not intended — documented limitation).
    std::string type_name;
    const size_t slash = spec.rfind('/');
    if (slash != std::string::npos) {
      type_name = std::string(Trim(std::string_view(spec).substr(slash + 1)));
      spec = std::string(Trim(std::string_view(spec).substr(0, slash)));
    }

    if (!spec.empty() && spec[0] == '?') {
      const std::string name(Trim(std::string_view(spec).substr(1)));
      if (name.empty()) {
        return graph_.AddWildcardNode(type_name);  // anonymous: fresh node
      }
      // Named wildcards are identified by the name alone; a type given at
      // any occurrence attaches to the shared node.
      return ResolveNamed("?" + ToLower(name), type_name, /*wildcard=*/true,
                          spec);
    }
    if (spec.empty()) return -1;  // "()" is malformed
    return ResolveNamed(ToLower(spec), type_name, /*wildcard=*/false, spec);
  }

  /// Finds or creates the node for `key`, merging type constraints: the
  /// first non-empty type wins; a conflicting second type is an error
  /// (reported as -1; the caller produces the message position).
  int ResolveNamed(const std::string& key, const std::string& type_name,
                   bool wildcard, const std::string& label) {
    const auto it = named_.find(key);
    if (it != named_.end()) {
      const int id = it->second;
      if (!type_name.empty()) {
        const std::string& existing = graph_.node(id).type_name;
        if (existing.empty()) {
          graph_.SetNodeType(id, type_name);
        } else if (ToLower(existing) != ToLower(type_name)) {
          return -1;  // conflicting type constraints
        }
      }
      return id;
    }
    const int id = wildcard ? graph_.AddWildcardNode(type_name)
                            : graph_.AddNode(label, type_name);
    named_.emplace(key, id);
    return id;
  }

  std::string_view text_;
  size_t pos_ = 0;
  QueryGraph graph_;
  std::unordered_map<std::string, int> named_;
  std::unordered_set<uint64_t> edge_pairs_;
};

}  // namespace

Result<QueryGraph> ParseQuery(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace star::query
