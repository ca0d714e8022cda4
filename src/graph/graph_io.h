#ifndef STAR_GRAPH_GRAPH_IO_H_
#define STAR_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/knowledge_graph.h"

namespace star::graph {

// Plain-text serialization of knowledge graphs.
//
// The format is a line-oriented TSV with a header magic line:
//
//   star-kg v1
//   N <node-id> <type-name> <label...>
//   E <src-id> <dst-id> <relation-name>
//
// Node ids must be dense and appear in order (0, 1, 2, ...); the type name
// and relation name use "_" for "none" and have inner spaces encoded as
// "_". Labels may contain spaces (everything after the third column).
// Lines starting with '#' are comments.

/// Writes g to the stream. Returns IoError on stream failure.
Status SaveGraph(const KnowledgeGraph& g, std::ostream& out);

/// Writes g to a file path.
Status SaveGraphToFile(const KnowledgeGraph& g, const std::string& path);

/// Parses a graph from the stream. Returns CorruptData with a line number
/// on malformed input. The loader slurps the stream once, counts records,
/// and pre-sizes the builder (Builder::Reserve), so arrays never reallocate
/// during the build regardless of file size.
Result<KnowledgeGraph> LoadGraph(std::istream& in);

/// Reads a graph from a file path.
Result<KnowledgeGraph> LoadGraphFromFile(const std::string& path);

}  // namespace star::graph

#endif  // STAR_GRAPH_GRAPH_IO_H_
