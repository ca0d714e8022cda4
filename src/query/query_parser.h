#ifndef STAR_QUERY_QUERY_PARSER_H_
#define STAR_QUERY_QUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "query/query_graph.h"

namespace star::query {

/// Parses a compact textual query language into a QueryGraph. The paper
/// positions graph queries as the common target that keyword / natural
/// language / exemplar queries compile into; this parser is the textual
/// front end for the examples and the CLI.
///
/// Grammar (whitespace-insensitive):
///
///   query    :=  clause (';' clause)*
///   clause   :=  node (edge node)*            // a path of one or more hops
///   node     :=  '(' spec ')'
///   spec     :=  '?'            — anonymous wildcard (fresh node each time)
///             |  '?name'        — named wildcard (same node when repeated)
///             |  'label text'   — concrete node (same node when repeated)
///             |  spec '/' Type  — optional type constraint suffix
///   edge     :=  '--'           — wildcard relation
///             |  '-[relation]-' — relation-labeled edge
///
/// Examples:
///
///   (Brad) -- (?m/Film); (?m) -[won]- (Academy Award)
///   (?director/Director) -[directed]- (Boyhood)
///
/// Matching is undirected, so no arrowheads; duplicate edges between the
/// same node pair are rejected. Returns CorruptData with a position
/// message on malformed input, and QueryGraph::Validate()'s
/// InvalidArgument for a well-formed query the engine does not answer
/// (e.g. the disconnected "(A); (B)").
Result<QueryGraph> ParseQuery(std::string_view text);

}  // namespace star::query

#endif  // STAR_QUERY_QUERY_PARSER_H_
