#ifndef STAR_GRAPH_KNOWLEDGE_GRAPH_H_
#define STAR_GRAPH_KNOWLEDGE_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace star::graph {

/// String-keyed dictionary with heterogeneous lookup (string_view probes
/// never allocate).
template <typename V>
using NameMap =
    std::unordered_map<std::string, V, TransparentStringHash, std::equal_to<>>;

/// Dense node identifier; assigned contiguously from 0 by the builder.
using NodeId = uint32_t;
/// Dense directed-edge identifier.
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One adjacency entry of the undirected view of the graph: the neighbor,
/// the relation label id of the connecting edge, and whether the underlying
/// directed edge points away from the owning node.
///
/// Packed to a fixed 8-byte POD (relation ids are capped at 2^31 - 1, far
/// beyond any KG's relation vocabulary) so the flat CSR stores 8 bytes per
/// entry and the whole struct round-trips through the delta-varint codec.
struct Neighbor {
  NodeId node = kInvalidNode;
  uint32_t relation : 31 = 0;
  uint32_t forward : 1 = 1;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};
static_assert(sizeof(Neighbor) == 8, "Neighbor must stay a packed 8-byte POD");

/// Storage layout of the read-only data plane, chosen at Build() time.
/// Results are bitwise identical across layouts for every engine; the
/// choice trades decode cost for resident bytes (see DESIGN.md "Data
/// plane layout").
enum class GraphLayout {
  /// One flat Neighbor array (8 B/entry), zero decode cost.
  kFlat,
  /// Delta-varint adjacency arena (~2-4 B/entry) decoded per list into a
  /// pooled scratch buffer on access.
  kCompressed,
};

/// The result of Neighbors(v): a contiguous, canonically ordered neighbor
/// list. On the flat layout it borrows the CSR array; on the compressed
/// layout it owns a pooled scratch buffer holding the decoded list, which
/// returns to a thread-local free list on destruction (allocation-free
/// after warmup). Views therefore stay valid across further Neighbors()
/// calls and arbitrary nesting, but must not outlive the graph or cross
/// threads.
class NeighborView {
 public:
  NeighborView(const Neighbor* data, size_t size)
      : data_(data), size_(size), owned_(nullptr) {}
  NeighborView(std::vector<Neighbor>* owned, size_t size)
      : data_(owned->data()), size_(size), owned_(owned) {}
  NeighborView(NeighborView&& o) noexcept
      : data_(o.data_), size_(o.size_), owned_(o.owned_) {
    o.owned_ = nullptr;
  }
  NeighborView& operator=(NeighborView&& o) noexcept;
  NeighborView(const NeighborView&) = delete;
  NeighborView& operator=(const NeighborView&) = delete;
  ~NeighborView();

  const Neighbor* begin() const { return data_; }
  const Neighbor* end() const { return data_ + size_; }
  const Neighbor* data() const { return data_; }
  const Neighbor& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const Neighbor* data_;
  size_t size_;
  std::vector<Neighbor>* owned_;
};

/// Resident-byte report of one graph instance (graph_stats.cc renders it;
/// bench_data_layout.cc compares layouts). `capacity_slack` is the sum of
/// unused heap bytes (capacity - size) across all owned arrays — a tight
/// Build() keeps it 0, which tests assert.
struct GraphFootprint {
  size_t csr_bytes = 0;    ///< offsets + adjacency (flat array or codec arena)
  size_t label_bytes = 0;  ///< interned string pool + per-node refs + type ids
  size_t edge_bytes = 0;   ///< directed edge arrays (src/dst/rel)
  size_t dict_bytes = 0;   ///< type/relation dictionaries + lookup maps
  size_t capacity_slack = 0;

  size_t total() const {
    return csr_bytes + label_bytes + edge_bytes + dict_bytes;
  }
};

/// An in-memory labeled knowledge graph G = (V, E, L) (§II).
///
/// Storage is CSR over the *undirected* view (each directed edge appears in
/// both endpoints' adjacency lists with a direction flag), because the
/// paper's matching semantics connect query neighbors regardless of edge
/// orientation and all traversals are neighborhood expansions. Adjacency
/// lists are sorted into canonical (node, relation, forward) order at
/// Build() time; node labels and type names are interned into one string
/// pool (duplicate labels share bytes).
///
/// Instances are immutable after Build(); all queries are const and
/// thread-compatible.
class KnowledgeGraph {
 public:
  /// Mutable construction interface. Typical use:
  ///
  ///   KnowledgeGraph::Builder b;
  ///   NodeId brad = b.AddNode("Brad Pitt", "Actor");
  ///   NodeId troy = b.AddNode("Troy", "Film");
  ///   b.AddEdge(brad, troy, "actedIn");
  ///   KnowledgeGraph g = std::move(b).Build();
  class Builder {
   public:
    Builder() = default;

    /// Pre-sizes the builder arrays for a known graph size (loaders that
    /// can count records first avoid re-allocation churn on large files).
    void Reserve(size_t nodes, size_t edges);

    /// Adds a node with a free-text label and a type name (may be empty).
    NodeId AddNode(std::string label, std::string type_name = "");

    /// Adds a directed edge with a relation name (may be empty).
    /// Endpoints must be previously returned by AddNode.
    EdgeId AddEdge(NodeId src, NodeId dst, std::string relation = "");

    size_t node_count() const { return labels_.size(); }
    size_t edge_count() const { return srcs_.size(); }

    /// Finalizes into an immutable graph; the builder is consumed.
    /// Final arrays are reserved from builder sizes, dictionaries are
    /// moved (never copied), and everything is shrunk to fit — the
    /// resulting footprint reports zero capacity slack.
    KnowledgeGraph Build(GraphLayout layout = GraphLayout::kFlat) &&;

   private:
    friend class KnowledgeGraph;

    /// Interns `relation` into the relation dictionary; returns its id.
    uint32_t InternRelation(std::string relation);

    std::vector<std::string> labels_;
    std::vector<int32_t> types_;
    std::vector<NodeId> srcs_, dsts_;
    std::vector<uint32_t> relations_;
    std::vector<std::string> type_names_;
    std::vector<std::string> relation_names_;
    NameMap<int32_t> type_index_;
    NameMap<uint32_t> relation_index_;
  };

  KnowledgeGraph() = default;
  KnowledgeGraph(const KnowledgeGraph&) = delete;
  KnowledgeGraph& operator=(const KnowledgeGraph&) = delete;
  KnowledgeGraph(KnowledgeGraph&&) = default;
  KnowledgeGraph& operator=(KnowledgeGraph&&) = default;

  size_t node_count() const { return label_refs_.size(); }
  /// Number of directed edges (each counted once).
  size_t edge_count() const { return edge_src_.size(); }

  GraphLayout layout() const { return layout_; }

  std::string_view NodeLabel(NodeId v) const { return View(label_refs_[v]); }
  /// Type id of a node, or -1 for untyped nodes.
  int32_t NodeType(NodeId v) const { return types_[v]; }
  /// Name of a type id ("" for -1).
  std::string_view TypeName(int32_t type) const;
  int32_t FindTypeId(std::string_view name) const;
  size_t type_count() const { return type_refs_.size(); }

  const std::string& RelationName(uint32_t relation) const {
    return relation_names_[relation];
  }
  int64_t FindRelationId(std::string_view name) const;
  size_t relation_count() const { return relation_names_.size(); }

  /// Undirected adjacency of v (both edge orientations), in canonical
  /// (node, relation, forward) order. See NeighborView for lifetime.
  NeighborView Neighbors(NodeId v) const {
    if (layout_ == GraphLayout::kFlat) {
      return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
    }
    return DecodeNeighbors(v);
  }

  /// Undirected degree of v.
  size_t Degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Maximum undirected degree over all nodes (the paper's m).
  size_t MaxDegree() const { return max_degree_; }

  /// Source / destination / relation of directed edge e.
  NodeId EdgeSrc(EdgeId e) const { return edge_src_[e]; }
  NodeId EdgeDst(EdgeId e) const { return edge_dst_[e]; }
  uint32_t EdgeRelation(EdgeId e) const { return edge_rel_[e]; }

  /// True if u and v are connected by an edge in either direction.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Resident bytes per structure (and unused capacity across them).
  GraphFootprint Footprint() const;

 private:
  friend class Builder;

  /// Offset + length view into the interned string pool.
  struct StrRef {
    uint32_t offset = 0;
    uint32_t length = 0;
  };

  std::string_view View(StrRef r) const {
    return {pool_.data() + r.offset, r.length};
  }

  NeighborView DecodeNeighbors(NodeId v) const;

  GraphLayout layout_ = GraphLayout::kFlat;

  // Interned string pool: node labels (deduplicated) and type names.
  std::string pool_;
  std::vector<StrRef> label_refs_;  // per node
  std::vector<StrRef> type_refs_;   // per type id
  std::vector<int32_t> types_;
  std::vector<std::string> relation_names_;
  NameMap<int32_t> type_index_;
  NameMap<uint32_t> relation_index_;

  // Directed edge arrays (by EdgeId).
  std::vector<NodeId> edge_src_, edge_dst_;
  std::vector<uint32_t> edge_rel_;

  // CSR over the undirected view. offsets_ are entry counts in both
  // layouts (Degree stays O(1)); the compressed layout additionally keeps
  // per-node byte offsets into the codec arena. Both are 32-bit; Build()
  // asserts that 2*|E| entries (and the smaller codec arena) fit uint32.
  std::vector<uint32_t> offsets_;
  std::vector<Neighbor> adjacency_;       // kFlat only
  std::vector<uint8_t> adjacency_bytes_;  // kCompressed only
  std::vector<uint32_t> byte_offsets_;    // kCompressed only
  size_t max_degree_ = 0;
};

/// Structural copy of g rebuilt under the given layout (KnowledgeGraph is
/// move-only). Node ids, edge ids, and all names are preserved, so results
/// over the copy are bitwise identical to the original.
KnowledgeGraph CloneWithLayout(const KnowledgeGraph& g, GraphLayout layout);

}  // namespace star::graph

#endif  // STAR_GRAPH_KNOWLEDGE_GRAPH_H_
