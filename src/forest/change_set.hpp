// ChangeSet: a batch of modifications ((V-, E-), (V+, E+)) as in the
// paper's ModifyContraction (§2.5): delete vertices V- and edges E-, then
// add vertices V+ and edges E+.
//
// Preconditions (paper §2.5): V- ⊆ V, V+ ∩ V = ∅, E- ⊆ E, E+ new edges
// (an edge of E- may reappear in E+: deletions apply first, so within one
// batch delete-then-reinsert of the same edge is legal), and the edited
// graph is again a bounded-degree forest. Every edge incident to a vertex
// of V- must appear in E-. New ids extend the universe densely: every V+
// id is below capacity + |V+| (and so never kNoVertex).
#pragma once

#include <algorithm>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "forest/forest.hpp"
#include "forest/types.hpp"

namespace parct::forest {

struct ChangeSet {
  std::vector<VertexId> remove_vertices;  // V-
  std::vector<Edge> remove_edges;         // E-
  std::vector<VertexId> add_vertices;     // V+
  std::vector<Edge> add_edges;            // E+

  std::size_t size() const {
    return remove_vertices.size() + remove_edges.size() +
           add_vertices.size() + add_edges.size();
  }
  bool empty() const { return size() == 0; }

  /// Fluent builders, handy in tests and examples.
  ChangeSet& del_edge(VertexId child, VertexId parent) {
    remove_edges.push_back({child, parent});
    return *this;
  }
  ChangeSet& ins_edge(VertexId child, VertexId parent) {
    add_edges.push_back({child, parent});
    return *this;
  }
  ChangeSet& del_vertex(VertexId v) {
    remove_vertices.push_back(v);
    return *this;
  }
  ChangeSet& ins_vertex(VertexId v) {
    add_vertices.push_back(v);
    return *this;
  }
};

/// Checks all ChangeSet preconditions against `f`, including that applying
/// the batch yields an acyclic bounded-degree forest. Returns an error
/// description, or nullopt if valid. The reference checker: O(n), since it
/// copies `f` and walks all of it for cycles. Serving validates in
/// O(m log n) instead (contract::DynamicUpdater::apply_checked).
std::optional<std::string> check_change_set(const Forest& f,
                                            const ChangeSet& m);

/// Sorted copies of a batch's four sets, for binary-search membership in
/// check_local. Reuse one across calls: once its vectors have grown to the
/// batch size, a check allocates nothing.
struct ChangeSetIndex {
  std::vector<VertexId> vminus, vplus, eplus_children;
  std::vector<Edge> eminus, eplus;  // ordered by (parent, child)

  void assign(const ChangeSet& m);

  bool in_vminus(VertexId v) const {
    return std::binary_search(vminus.begin(), vminus.end(), v);
  }
  bool in_vplus(VertexId v) const {
    return std::binary_search(vplus.begin(), vplus.end(), v);
  }
  bool in_eminus(const Edge& e) const {
    return std::binary_search(eminus.begin(), eminus.end(), e, by_parent);
  }
  /// Number of E- edges whose parent is p.
  std::size_t eminus_children_of(VertexId p) const;

  static bool by_parent(const Edge& a, const Edge& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.child < b.child;
  }
};

/// The local preconditions of paper §2.5 — all but acyclicity — checked
/// in O(m log m) against a read-only forest view. `View` provides
/// capacity(), degree_bound(), and for ids below capacity present(v),
/// parent(v) (== v for roots) and children(v). Two views exist: Forest
/// (check_change_set) and the contraction structure's round-0 records
/// (contract::DynamicUpdater::apply_checked).
template <typename View>
std::optional<std::string> check_local(const View& f, const ChangeSet& m,
                                       ChangeSetIndex& idx) {
  idx.assign(m);
  auto has_duplicate = [](const auto& sorted) {
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
  };
  if (has_duplicate(idx.vminus)) return "duplicate vertex in V-";
  if (has_duplicate(idx.vplus)) return "duplicate vertex in V+";
  if (has_duplicate(idx.eminus)) return "duplicate edge in E-";
  if (has_duplicate(idx.eplus)) return "duplicate edge in E+";

  const std::size_t cap = f.capacity();
  auto present = [&](VertexId v) { return v < cap && f.present(v); };
  auto has_edge = [&](VertexId child, VertexId parent) {
    return child != parent && present(child) && f.parent(child) == parent;
  };
  for (VertexId v : idx.vminus) {
    if (!present(v)) return "V- vertex not in forest";
    if (idx.in_vplus(v)) return "vertex in both V- and V+";
    // Every incident edge must be explicitly deleted.
    if (f.parent(v) != v && !idx.in_eminus({v, f.parent(v)})) {
      return "V- vertex keeps its parent edge (must be in E-)";
    }
    for (VertexId u : f.children(v)) {
      if (u != kNoVertex && !idx.in_eminus({u, v})) {
        return "V- vertex keeps a child edge (must be in E-)";
      }
    }
  }
  for (VertexId v : idx.vplus) {
    if (v == kNoVertex || v >= cap + idx.vplus.size()) {
      return "V+ vertex id out of range (ids must extend the universe "
             "densely)";
    }
    if (present(v)) return "V+ vertex already present";
  }
  for (const Edge& e : idx.eminus) {
    if (!has_edge(e.child, e.parent)) return "E- edge not in forest";
  }
  auto exists_after = [&](VertexId v) {
    return idx.in_vplus(v) || (present(v) && !idx.in_vminus(v));
  };
  if (has_duplicate(idx.eplus_children)) {
    return "E+ gives a vertex two parents";
  }
  for (const Edge& e : idx.eplus) {
    if (e.child == e.parent) return "E+ self-loop";
    // An edge may be deleted and re-inserted within one batch (E- ∩ E+):
    // the deletion happens first, so the insertion sees it absent.
    if (has_edge(e.child, e.parent) && !idx.in_eminus(e)) {
      return "E+ edge already in forest";
    }
    if (!exists_after(e.child) || !exists_after(e.parent)) {
      return "E+ edge endpoint absent after edit";
    }
    // The child must be parentless once E- is applied.
    if (present(e.child) && f.parent(e.child) != e.child &&
        !idx.in_eminus({e.child, f.parent(e.child)})) {
      return "E+ child already has a parent not deleted by E-";
    }
  }
  // Degree bound: the children a parent keeps after E- plus its E+
  // children (eplus is grouped by parent).
  for (std::size_t k = 0; k < idx.eplus.size();) {
    const VertexId p = idx.eplus[k].parent;
    std::size_t end = k;
    while (end < idx.eplus.size() && idx.eplus[end].parent == p) ++end;
    const std::size_t kept =
        present(p) ? child_count(f.children(p)) - idx.eminus_children_of(p)
                   : 0;
    if (kept + (end - k) > static_cast<std::size_t>(f.degree_bound())) {
      return "E+ exceeds the degree bound";
    }
    k = end;
  }
  return std::nullopt;
}

/// Applies `m` to a copy of `f` and returns the edited forest. Asserts the
/// preconditions in debug builds (use check_change_set for full checking).
Forest apply_change_set(const Forest& f, const ChangeSet& m);

/// Binary encoding of a ChangeSet (little-endian hosts): four u64 element
/// counts (V-, E-, V+, E+) followed by the element payloads. This is the
/// record body of the durability write-ahead log (docs/DURABILITY.md).
/// Throws std::runtime_error if the stream reports a write failure.
void save_change_set(const ChangeSet& m, std::ostream& out);

/// Inverse of save_change_set. Element storage grows only as elements
/// actually arrive from the stream, so corrupt counts cannot drive a huge
/// up-front allocation. Throws std::runtime_error on truncation or on
/// counts beyond a sane bound.
ChangeSet load_change_set(std::istream& in);

}  // namespace parct::forest
