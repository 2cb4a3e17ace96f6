// Shared helpers for the test suite: named forest shapes for parameterized
// sweeps, sanitizer-aware scaling, a contraction-structure differ for
// equivalence-failure messages, and a catalogue of invalid (and tricky
// valid) ChangeSets for the update validators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "contraction/contraction_forest.hpp"
#include "forest/change_set.hpp"
#include "forest/forest.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "hashing/splitmix64.hpp"

namespace parct::test {

// True under TSAN/ASAN builds: long randomized tests scale their default
// step counts down (explicit env overrides like PARCT_SOAK_STEPS still
// win) so sanitizer CI stays within budget.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
inline constexpr bool kSanitizedBuild = true;
#else
inline constexpr bool kSanitizedBuild = false;
#endif
#else
inline constexpr bool kSanitizedBuild = false;
#endif

struct Shape {
  const char* name;
  // Builds a forest of ~n vertices with `extra` spare ids.
  forest::Forest (*build)(std::size_t n, std::uint64_t seed,
                          std::size_t extra);
};

inline forest::Forest shape_balanced(std::size_t n, std::uint64_t,
                                     std::size_t extra) {
  return forest::build_balanced(n, 4, extra);
}
inline forest::Forest shape_binary(std::size_t n, std::uint64_t,
                                   std::size_t extra) {
  // Round n down to 2^k - 1.
  std::size_t m = 1;
  while (2 * m + 1 <= n) m = 2 * m + 1;
  return forest::build_perfect_binary(m, extra + (n - m));
}
inline forest::Forest shape_chain(std::size_t n, std::uint64_t,
                                  std::size_t extra) {
  return forest::build_chain(n, extra);
}
inline forest::Forest shape_cf03(std::size_t n, std::uint64_t seed,
                                 std::size_t extra) {
  return forest::build_tree(n, 4, 0.3, seed, extra);
}
inline forest::Forest shape_cf06(std::size_t n, std::uint64_t seed,
                                 std::size_t extra) {
  return forest::build_tree(n, 4, 0.6, seed, extra);
}
inline forest::Forest shape_cf10(std::size_t n, std::uint64_t seed,
                                 std::size_t extra) {
  return forest::build_tree(n, 4, 1.0, seed, extra);
}
inline forest::Forest shape_forest5(std::size_t n, std::uint64_t seed,
                                    std::size_t extra) {
  const std::size_t trees = std::max<std::size_t>(1, std::min<std::size_t>(5, n / 2));
  forest::Forest f = forest::random_forest(n, trees, 4, 0.5, seed);
  (void)extra;
  return f;
}

inline constexpr Shape kShapes[] = {
    {"balanced", shape_balanced}, {"binary", shape_binary},
    {"chain", shape_chain},       {"cf03", shape_cf03},
    {"cf06", shape_cf06},         {"cf10", shape_cf10},
    {"forest5", shape_forest5},
};

/// Human-readable diff of two contraction structures (durations and
/// per-round records, first `max_lines` mismatches) — for the failure
/// message of from-scratch-equivalence assertions.
inline std::string contraction_diff(const contract::ContractionForest& a,
                                    const contract::ContractionForest& b,
                                    int max_lines = 20) {
  std::ostringstream out;
  const std::size_t cap = std::max(a.capacity(), b.capacity());
  int shown = 0;
  for (VertexId v = 0; v < cap && shown < max_lines; ++v) {
    const std::uint32_t da = v < a.capacity() ? a.duration(v) : 0;
    const std::uint32_t db = v < b.capacity() ? b.duration(v) : 0;
    if (da != db) {
      out << "v" << v << ": duration " << da << " vs " << db << "\n";
      ++shown;
      continue;
    }
    for (std::uint32_t i = 0; i < da; ++i) {
      const auto& ra = a.record(i, v);
      const auto& rb = b.record(i, v);
      auto ca = ra.children, cb = rb.children;
      std::sort(ca.begin(), ca.end());
      std::sort(cb.begin(), cb.end());
      if (ra.parent != rb.parent || ca != cb) {
        out << "v" << v << " round " << i << ": p=" << ra.parent << " vs "
            << rb.parent << "; children:";
        for (VertexId u : ra.children) {
          if (u != kNoVertex) out << " " << u;
        }
        out << " VS";
        for (VertexId u : rb.children) {
          if (u != kNoVertex) out << " " << u;
        }
        out << "\n";
        ++shown;
      }
    }
  }
  return out.str();
}

struct NamedBatch {
  std::string kind;
  forest::ChangeSet batch;
  bool valid = false;
};

/// Every invalid kind edge_case_batches emits for a forest that can
/// express it (a forest with roots and non-roots of depth >= 2, an inner
/// vertex, and a vertex with a free child slot expresses all of them).
inline const std::vector<std::string>& edge_case_invalid_kinds() {
  static const std::vector<std::string> kinds = {
      "V+ id beyond capacity + |V+|",
      "V+ id kNoVertex - 1",
      "V+ id kNoVertex",
      "V- beyond capacity",
      "E- beyond capacity",
      "E+ endpoint beyond capacity",
      "duplicate V+",
      "V- absent",
      "E+ endpoint absent",
      "duplicate V-",
      "vertex in V- and V+",
      "V+ already present",
      "E+ self-loop",
      "E+ two parents",
      "duplicate E-",
      "duplicate E+",
      "V- keeps its parent edge",
      "E+ edge already present",
      "E- not an edge",
      "E+ child keeps its parent",
      "V- keeps a child edge",
      "E+ exceeds the degree bound",
      "E+ cycle",
      "E+ cycle after E- cut",
  };
  return kinds;
}

/// Batches built against `f` from seeded picks: one per precondition
/// forest::check_change_set enforces (duplicates, absent or present ids,
/// ids at or beyond the capacity, V+ ids outside the dense range, missing
/// or existing edges, two parents, a degree overflow), the cycle shapes (a
/// pure-E+ cycle, and a mixed batch whose cycle exists only after its own
/// cut) and one valid mixed batch that is acyclic only after its cut. An
/// absent id is picked below the capacity when `f` has one, else it is
/// the capacity itself. Kinds `f` cannot express (say, no edge to
/// duplicate) are left out.
inline std::vector<NamedBatch> edge_case_batches(const forest::Forest& f,
                                                 std::uint64_t seed) {
  using forest::ChangeSet;
  hashing::SplitMix64 rng(seed);
  const VertexId cap = static_cast<VertexId>(f.capacity());
  std::vector<VertexId> present, absent, nonroots, roots, inner;
  for (VertexId v = 0; v < cap; ++v) {
    if (!f.present(v)) {
      absent.push_back(v);
      continue;
    }
    present.push_back(v);
    (f.is_root(v) ? roots : nonroots).push_back(v);
    if (!f.is_leaf(v)) inner.push_back(v);
  }
  auto pick = [&](const std::vector<VertexId>& from) {
    return from[rng.next_below(from.size())];
  };
  // A present vertex other than the given ones (kNoVertex if none).
  auto other = [&](VertexId a, VertexId b) {
    for (int tries = 0; tries < 64 && !present.empty(); ++tries) {
      const VertexId q = pick(present);
      if (q != a && q != b) return q;
    }
    return kNoVertex;
  };
  std::vector<NamedBatch> out;
  auto add = [&](const char* kind, const ChangeSet& m, bool valid = false) {
    out.push_back({kind, m, valid});
  };

  add("V+ id beyond capacity + |V+|", ChangeSet{}.ins_vertex(cap + 1));
  add("V+ id kNoVertex - 1", ChangeSet{}.ins_vertex(kNoVertex - 1));
  add("V+ id kNoVertex", ChangeSet{}.ins_vertex(kNoVertex));
  add("V- beyond capacity", ChangeSet{}.del_vertex(cap + 5));
  if (!present.empty()) {
    const VertexId v = pick(present);
    add("duplicate V-", ChangeSet{}.del_vertex(v).del_vertex(v));
    add("vertex in V- and V+", ChangeSet{}.del_vertex(v).ins_vertex(v));
    add("V+ already present", ChangeSet{}.ins_vertex(v));
    add("E+ self-loop", ChangeSet{}.ins_edge(v, v));
    const VertexId r = pick(roots);
    const VertexId a = other(r, r);
    const VertexId b = other(r, a);
    if (b != kNoVertex) {
      add("E+ two parents", ChangeSet{}.ins_edge(r, a).ins_edge(r, b));
    }
  }
  {
    const VertexId a = absent.empty() ? cap : pick(absent);
    add("duplicate V+", ChangeSet{}.ins_vertex(a).ins_vertex(a));
    add("V- absent", ChangeSet{}.del_vertex(a));
    if (!roots.empty()) {
      const VertexId r = pick(roots);
      add("E+ endpoint absent", ChangeSet{}.ins_edge(r, a));
      add("E+ endpoint beyond capacity", ChangeSet{}.ins_edge(cap + 5, r));
      add("E- beyond capacity", ChangeSet{}.del_edge(cap + 5, r));
    }
  }
  if (!nonroots.empty()) {
    const VertexId c = pick(nonroots);
    const VertexId p = f.parent(c);
    add("duplicate E-", ChangeSet{}.del_edge(c, p).del_edge(c, p));
    add("duplicate E+",
        ChangeSet{}.del_edge(c, p).ins_edge(c, p).ins_edge(c, p));
    add("V- keeps its parent edge", ChangeSet{}.del_vertex(c));
    add("E+ edge already present", ChangeSet{}.ins_edge(c, p));
    const VertexId q = other(c, p);
    if (q != kNoVertex) {
      add("E- not an edge", ChangeSet{}.del_edge(c, q));
      add("E+ child keeps its parent", ChangeSet{}.ins_edge(c, q));
    }
  }
  if (!inner.empty()) {
    const VertexId v = pick(inner);
    ChangeSet m;
    m.del_vertex(v);
    if (!f.is_root(v)) m.del_edge(v, f.parent(v));
    add("V- keeps a child edge", m);
  }
  if (!present.empty()) {
    // Degree overflow: one more E+ child than p has free slots, each
    // child cut from its old parent first.
    const VertexId p = pick(present);
    const std::size_t want =
        static_cast<std::size_t>(f.degree_bound() - f.degree(p)) + 1;
    ChangeSet m;
    for (VertexId x : nonroots) {
      if (m.add_edges.size() == want) break;
      if (x == p || f.parent(x) == p) continue;
      m.del_edge(x, f.parent(x)).ins_edge(x, p);
    }
    if (m.add_edges.size() == want) add("E+ exceeds the degree bound", m);
  }
  // Cycles: y has a free slot and depth >= 1. Linking y's root under y
  // is a pure-E+ cycle; cutting a proper non-root ancestor c of y and
  // linking c under y is a cycle that exists only after the cut, while
  // linking the old root under y after the same cut is valid.
  bool pure = false, mixed = false;
  for (int tries = 0; tries < 256 && !(pure && mixed) && !present.empty();
       ++tries) {
    const VertexId y = pick(present);
    if (f.is_root(y) || f.degree(y) >= f.degree_bound()) continue;
    std::vector<VertexId> ancestors;  // parent(y) .. root
    for (VertexId a = f.parent(y);; a = f.parent(a)) {
      ancestors.push_back(a);
      if (f.is_root(a)) break;
    }
    const VertexId root = ancestors.back();
    if (!pure) {
      add("E+ cycle", ChangeSet{}.ins_edge(root, y));
      pure = true;
    }
    if (!mixed && ancestors.size() >= 2) {
      const VertexId c = ancestors[rng.next_below(ancestors.size() - 1)];
      add("E+ cycle after E- cut",
          ChangeSet{}.del_edge(c, f.parent(c)).ins_edge(c, y));
      add("E+ acyclic only after E- cut",
          ChangeSet{}.del_edge(c, f.parent(c)).ins_edge(root, y),
          /*valid=*/true);
      mixed = true;
    }
  }
  return out;
}

}  // namespace parct::test
