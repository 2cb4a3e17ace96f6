// Randomized cross-module soak: drives a single contraction structure
// through long random sequences of mixed batches (edge churn, vertex
// churn, weight-carrying re-insertions) while mirroring the forest in
// plain form and in both sequential baselines, and cross-checks
// *everything* every few steps: from-scratch structural equivalence, the
// independent simulator, RC queries, component weights, path aggregates,
// LCT and ETT answers.
//
// Seeds and length are modest by default; export PARCT_SOAK_STEPS to
// stress harder.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "baseline/euler_tour_tree.hpp"
#include "baseline/link_cut_tree.hpp"
#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/validate.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "rc/path_aggregate.hpp"
#include "rc/rc_forest.hpp"
#include "rc/subtree_aggregate.hpp"
#include "rc/tree_aggregate.hpp"
#include "test_util.hpp"

namespace parct {
namespace {

using contract::ContractionForest;
using contract::DynamicUpdater;
using forest::ChangeSet;
using forest::Forest;

int soak_steps() {
  if (const char* s = std::getenv("PARCT_SOAK_STEPS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  // Quick mode under TSAN/ASAN: the sanitizers multiply runtime ~5-15x, so
  // the default soak shrinks; PARCT_SOAK_STEPS above still overrides.
  return test::kSanitizedBuild ? 8 : 24;
}

class FuzzSoak : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { par::scheduler::initialize(1); }
};

TEST_P(FuzzSoak, EverythingAgrees) {
  const std::uint64_t seed = GetParam();
  hashing::SplitMix64 rng(seed);
  par::scheduler::initialize(1 + rng.next_below(4));

  const std::size_t n = 400;
  Forest cur = forest::build_tree(n, 4, 0.4 + 0.2 * rng.next_double(),
                                  rng.next(), /*extra_capacity=*/40);
  ContractionForest c(cur.capacity(), 4, rng.next());
  rc::PathAggregate<long, rc::PathPlus> path(c, 0);
  rc::SubtreeAggregate<long, rc::PathPlus> subtree(c, 0);
  contract::MultiHooks hooks{&path, &subtree};
  std::map<VertexId, long> edge_w;
  std::vector<long> vertex_w(cur.capacity(), 0);
  for (VertexId v = 0; v < cur.capacity(); ++v) {
    if (!cur.present(v)) continue;
    vertex_w[v] = static_cast<long>(rng.next_below(7));
    subtree.stage_vertex_weight(v, vertex_w[v]);
  }
  for (VertexId v = 0; v < cur.capacity(); ++v) {
    if (!cur.present(v) || cur.is_root(v)) continue;
    edge_w[v] = static_cast<long>(rng.next_below(9));
    path.stage_edge_weight(v, edge_w[v]);
  }
  contract::construct(c, cur, &hooks);
  DynamicUpdater updater(c);

  baseline::LinkCutTree lct(cur.capacity());
  baseline::EulerTourTree ett(cur.capacity(), rng.next());
  for (const Edge& e : cur.edges()) {
    lct.link(e.child, e.parent);
    ett.link(e.child, e.parent);
  }

  auto apply_to_baselines = [&](const ChangeSet& m) {
    for (const Edge& e : m.remove_edges) {
      lct.cut(e.child);
      ett.cut(e.child);
      edge_w.erase(e.child);
    }
    for (const Edge& e : m.add_edges) {
      lct.link(e.child, e.parent);
      ett.link(e.child, e.parent);
    }
    cur = forest::apply_change_set(cur, m);
  };

  const int steps = soak_steps();
  for (int step = 0; step < steps; ++step) {
    ChangeSet m;
    switch (rng.next_below(4)) {
      case 0:  // pure deletions
        if (cur.num_edges() >= 10) {
          m = forest::make_delete_batch(cur, 1 + rng.next_below(10),
                                        rng.next());
        }
        break;
      case 1: {  // deletions + re-insertions elsewhere (move subtrees)
        if (cur.num_edges() < 5) break;
        m = forest::make_delete_batch(cur, 1 + rng.next_below(5),
                                      rng.next());
        std::vector<int> extra(cur.capacity(), 0);
        for (const Edge& e : m.remove_edges) {
          for (int tries = 0; tries < 200; ++tries) {
            const VertexId p =
                static_cast<VertexId>(rng.next_below(cur.capacity()));
            if (!cur.present(p) || p == e.child) continue;
            if (cur.degree(p) + extra[p] >= cur.degree_bound()) continue;
            VertexId w = p;  // avoid re-rooting into the cut subtree
            while (!cur.is_root(w) && w != e.child) w = cur.parent(w);
            if (w == e.child) continue;
            ++extra[p];
            m.ins_edge(e.child, p);
            break;
          }
        }
        break;
      }
      case 2: {  // attach fresh leaf vertices
        ChangeSet vm;
        VertexId next_id = 0;
        for (VertexId v = 0; v < cur.capacity(); ++v) {
          if (cur.present(v)) next_id = v + 1;
        }
        const std::size_t k = 1 + rng.next_below(3);
        std::vector<int> extra(cur.capacity(), 0);
        for (std::size_t i = 0;
             i < k && next_id + i < cur.capacity(); ++i) {
          for (int tries = 0; tries < 200; ++tries) {
            const VertexId p =
                static_cast<VertexId>(rng.next_below(next_id));
            if (!cur.present(p)) continue;
            if (cur.degree(p) + extra[p] >= cur.degree_bound()) continue;
            ++extra[p];
            vm.ins_vertex(static_cast<VertexId>(next_id + i))
                .ins_edge(static_cast<VertexId>(next_id + i), p);
            break;
          }
        }
        m = vm;
        break;
      }
      default: {  // remove random leaf vertices
        std::vector<VertexId> leaves;
        for (VertexId v = 0; v < cur.capacity(); ++v) {
          if (cur.present(v) && cur.is_leaf(v) && !cur.is_root(v)) {
            leaves.push_back(v);
          }
        }
        const std::size_t k =
            std::min<std::size_t>(leaves.size(), 1 + rng.next_below(3));
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t j = i + rng.next_below(leaves.size() - i);
          std::swap(leaves[i], leaves[j]);
          m.del_vertex(leaves[i]).del_edge(leaves[i],
                                           cur.parent(leaves[i]));
        }
        break;
      }
    }
    if (m.empty()) continue;
    if (forest::check_change_set(cur, m).has_value()) continue;

    // Stage weights for new edges, mirror into the baselines. LCT/ETT see
    // vertex ops implicitly (ids exist up front). The mirror erases
    // weights of removed edges, so record re-inserted ones afterwards (an
    // edge can be removed and re-added for the same child in one batch).
    std::map<VertexId, long> staged;
    for (const Edge& e : m.add_edges) {
      staged[e.child] = static_cast<long>(rng.next_below(9));
      path.stage_edge_weight(e.child, staged[e.child]);
    }
    for (VertexId v : m.add_vertices) {
      if (vertex_w.size() <= v) vertex_w.resize(v + 1, 0);
      vertex_w[v] = static_cast<long>(rng.next_below(7));
      subtree.stage_vertex_weight(v, vertex_w[v]);
    }
    updater.apply(m, &hooks);
    apply_to_baselines(m);
    for (const auto& [v, val] : staged) edge_w[v] = val;

    // --- cross-checks -------------------------------------------------
    if (step % 4 == 3) {
      ContractionForest oracle(cur.capacity(), 4, c.seed());
      contract::construct(oracle, cur);
      ASSERT_TRUE(contract::structurally_equal(c, oracle))
          << "seed " << seed << " step " << step;
      auto verr = contract::check_valid(c, cur);
      ASSERT_FALSE(verr.has_value()) << *verr;
    }
    rc::RCForest rcf(c);
    rc::TreeAggregate<long> sizes(rcf,
                                  std::vector<long>(cur.capacity(), 1));
    std::vector<long> size_by_root(cur.capacity(), 0);
    for (VertexId v = 0; v < cur.capacity(); ++v) {
      if (cur.present(v)) ++size_by_root[forest::root_of(cur, v)];
    }
    for (int q = 0; q < 40; ++q) {
      const VertexId a =
          static_cast<VertexId>(rng.next_below(cur.capacity()));
      const VertexId b =
          static_cast<VertexId>(rng.next_below(cur.capacity()));
      if (!cur.present(a) || !cur.present(b)) continue;
      const VertexId root = forest::root_of(cur, a);
      ASSERT_EQ(rcf.root(a), root);
      ASSERT_EQ(rcf.root(a), lct.find_root(a));
      ASSERT_EQ(rcf.connected(a, b), ett.connected(a, b));
      ASSERT_EQ(sizes.tree_weight(a), size_by_root[root]);
      long brute = 0;
      for (VertexId x = a; !cur.is_root(x); x = cur.parent(x)) {
        brute += edge_w.at(x);
      }
      ASSERT_EQ(path.path_to_root(a), brute)
          << "seed " << seed << " step " << step << " vertex " << a;
      // Subtree sum vs recursive brute force.
      struct Rec {
        static long sum(const Forest& f, const std::vector<long>& w,
                        VertexId v) {
          long acc = w[v];
          for (VertexId u : f.children(v)) {
            if (u != kNoVertex) acc += sum(f, w, u);
          }
          return acc;
        }
      };
      ASSERT_EQ(subtree.subtree_sum(a), Rec::sum(cur, vertex_w, a))
          << "seed " << seed << " step " << step << " vertex " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoak,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parct
