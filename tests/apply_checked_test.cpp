// Differential fuzz of DynamicUpdater::apply_checked — the O(m log n)
// validator that reads the contraction structure — against the O(n)
// reference forest::check_change_set. Harness-generated batches, random
// mutations of them, and the edge-case catalogue of test_util.hpp (every
// error kind, a pure-E+ cycle, a mixed cut-then-cycle batch, a degree
// overflow, a batch acyclic only after its own cut) are judged by both:
// they must agree on accept/reject, a rejected batch must leave the
// structure structurally equal to before (covering the rolled-back mixed
// batches), and an accepted one must leave it equal to a from-scratch
// construction on the edited forest.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/change_set.hpp"
#include "harness/workload.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "test_util.hpp"

namespace parct {
namespace {

using contract::ContractionForest;
using forest::ChangeSet;
using forest::Forest;

std::string describe(const ChangeSet& m) {
  std::ostringstream out;
  out << "V-:";
  for (VertexId v : m.remove_vertices) out << " " << v;
  out << " E-:";
  for (const Edge& e : m.remove_edges) {
    out << " " << e.child << "->" << e.parent;
  }
  out << " V+:";
  for (VertexId v : m.add_vertices) out << " " << v;
  out << " E+:";
  for (const Edge& e : m.add_edges) {
    out << " " << e.child << "->" << e.parent;
  }
  return out.str();
}

/// A random perturbation of a (usually valid) batch: drop or duplicate an
/// entry, reverse an E+ edge, or add an E+ edge between random ids.
ChangeSet mutate(ChangeSet m, const Forest& f, hashing::SplitMix64& rng) {
  auto any_id = [&] {
    return static_cast<VertexId>(rng.next_below(f.capacity() + 2));
  };
  switch (rng.next_below(5)) {
    case 0:
      if (!m.remove_edges.empty()) {
        m.remove_edges.erase(m.remove_edges.begin() +
                             rng.next_below(m.remove_edges.size()));
      }
      break;
    case 1:
      if (!m.add_edges.empty()) {
        Edge& e = m.add_edges[rng.next_below(m.add_edges.size())];
        std::swap(e.child, e.parent);
      }
      break;
    case 2:
      if (!m.add_edges.empty()) {
        m.add_edges.push_back(
            m.add_edges[rng.next_below(m.add_edges.size())]);
      } else if (!m.remove_vertices.empty()) {
        m.remove_vertices.push_back(m.remove_vertices.front());
      }
      break;
    case 3:
      if (!m.remove_vertices.empty()) {
        m.remove_vertices.erase(m.remove_vertices.begin() +
                                rng.next_below(m.remove_vertices.size()));
      }
      break;
    default:
      m.ins_edge(any_id(), any_id());
      break;
  }
  return m;
}

struct Tally {
  std::map<std::string, int> rejected;  // edge-case kind -> rejections
  int accepted_tricky = 0;  // valid batches acyclic only after their cut
  int rolled_back = 0;  // mixed batches rejected for a post-cut cycle
};

/// Judges `m` with both validators; on agreement-accept, advances `cur`.
void judge(const std::string& kind, const ChangeSet& m, Forest& cur,
           ContractionForest& c, contract::DynamicUpdater& updater,
           std::uint64_t coin_seed, Tally& tally) {
  const std::optional<std::string> want = forest::check_change_set(cur, m);
  const ContractionForest before = c;
  contract::UpdateStats stats;
  const std::optional<std::string> got = updater.apply_checked(m, stats);
  ASSERT_EQ(want.has_value(), got.has_value())
      << kind << ": reference says " << (want ? *want : "valid")
      << ", structure says " << (got ? *got : "valid") << "\n"
      << describe(m);
  if (got) {
    const auto diff = contract::structural_diff(c, before);
    ASSERT_FALSE(diff.has_value())
        << kind << ": rejected batch changed the structure: " << *diff
        << "\n" << describe(m);
    const bool cuts = !m.remove_vertices.empty() || !m.remove_edges.empty();
    if (cuts && want->find("cycle") != std::string::npos) {
      ++tally.rolled_back;
    }
    ++tally.rejected[kind];
    return;
  }
  cur = forest::apply_change_set(cur, m);
  ContractionForest fresh(cur.capacity(), cur.degree_bound(), coin_seed);
  contract::construct(fresh, cur);
  const auto diff = contract::structural_diff(c, fresh);
  ASSERT_FALSE(diff.has_value())
      << kind << ": accepted batch diverged from a from-scratch build: "
      << *diff << "\n" << describe(m);
}

TEST(ApplyChecked, AgreesWithReferenceChecker) {
  par::scheduler::initialize(1);
  Tally tally;
  const int seeds = test::kSanitizedBuild ? 6 : 16;
  for (int s = 0; s < seeds; ++s) {
    harness::WorkloadConfig config;
    config.seed = 9100 + static_cast<std::uint64_t>(s);
    config.n = 120;
    config.extra_capacity = 30;
    config.target_ops = 240;
    config.max_batch = 16;
    config.num_workers = 1;
    const harness::Trace t = harness::generate_trace(config);

    Forest cur = t.initial;
    ContractionForest c(cur.capacity(), cur.degree_bound(),
                        t.contraction_seed);
    contract::construct(c, cur);
    contract::DynamicUpdater updater(c);
    hashing::SplitMix64 rng(config.seed);
    for (std::size_t k = 0; k < t.steps.size(); ++k) {
      const ChangeSet& step = t.steps[k].batch;
      for (int j = 0; j < 3; ++j) {
        judge("mutated", mutate(step, cur, rng), cur, c, updater,
              t.contraction_seed, tally);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (k % 4 == 0) {
        for (const test::NamedBatch& nb :
             test::edge_case_batches(cur, rng.next())) {
          const int rejections = tally.rejected[nb.kind];
          judge(nb.kind, nb.batch, cur, c, updater, t.contraction_seed,
                tally);
          if (::testing::Test::HasFatalFailure()) return;
          if (nb.valid) {
            ASSERT_EQ(tally.rejected[nb.kind], rejections)
                << nb.kind << " must be accepted\n" << describe(nb.batch);
            ++tally.accepted_tricky;
          }
        }
      }
      judge("harness", step, cur, c, updater, t.contraction_seed, tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Every invalid edge-case kind was built and rejected by both checkers.
  for (const std::string& kind : test::edge_case_invalid_kinds()) {
    EXPECT_GT(tally.rejected[kind], 0) << kind;
  }
  EXPECT_GT(tally.accepted_tricky, 0);
  EXPECT_GT(tally.rolled_back, 0);
}

}  // namespace
}  // namespace parct
