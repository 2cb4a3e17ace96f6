// Serving-layer unit tests: snapshot isolation, epoch semantics, version
// monotonicity, sentinel handling for untrusted ids, update validation
// (every invalid kind rejected without publishing or logging), buffer
// recycling, delta publish against a full copy, stats current when a
// future resolves, and the engine-thread round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "contraction/construct.hpp"
#include "durability/manager.hpp"
#include "fault/fault_injection.hpp"
#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "rc/batch_queries.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"
#include "service/batch_server.hpp"
#include "test_util.hpp"

namespace parct::service {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1500;

  void SetUp() override {
    par::scheduler::initialize(4);
    f_ = forest::random_forest(kN, 6, 4, 0.4, 31);
    c_ = std::make_unique<contract::ContractionForest>(kN, 4, 3);
    contract::construct(*c_, f_);
  }
  void TearDown() override { par::scheduler::initialize(1); }

  QueryBatch sample_queries(std::uint64_t seed, std::size_t k) const {
    hashing::SplitMix64 rng(seed);
    QueryBatch q;
    for (std::size_t i = 0; i < k; ++i) {
      q.roots.push_back(static_cast<VertexId>(rng.next_below(kN)));
      q.connected.push_back({static_cast<VertexId>(rng.next_below(kN)),
                             static_cast<VertexId>(rng.next_below(kN))});
      q.tree_weights.push_back(static_cast<VertexId>(rng.next_below(kN)));
    }
    return q;
  }

  void expect_matches(const QueryBatch& q, const QueryResult& r,
                      const forest::Forest& oracle,
                      const std::vector<Weight>& w) const {
    std::vector<Weight> component(oracle.capacity(), 0);
    for (VertexId v = 0; v < oracle.capacity(); ++v) {
      if (oracle.present(v)) component[forest::root_of(oracle, v)] += w[v];
    }
    for (std::size_t i = 0; i < q.roots.size(); ++i) {
      ASSERT_EQ(r.roots[i], forest::root_of(oracle, q.roots[i])) << i;
    }
    for (std::size_t i = 0; i < q.connected.size(); ++i) {
      ASSERT_EQ(r.connected[i] != 0,
                forest::root_of(oracle, q.connected[i].first) ==
                    forest::root_of(oracle, q.connected[i].second))
          << i;
    }
    for (std::size_t i = 0; i < q.tree_weights.size(); ++i) {
      ASSERT_EQ(r.tree_weights[i],
                component[forest::root_of(oracle, q.tree_weights[i])])
          << i;
    }
  }

  forest::Forest f_{0};
  std::unique_ptr<contract::ContractionForest> c_;
};

TEST_F(ServiceTest, StepAnswersAgainstVersion0) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  QueryBatch q = sample_queries(1, 300);
  auto fut = server.submit_queries(q);
  ASSERT_TRUE(server.step());
  QueryResult r = fut.get();
  EXPECT_EQ(r.version, 0u);
  expect_matches(q, r, f_, std::vector<Weight>(kN, 1));
  EXPECT_FALSE(server.step()) << "empty step must report no work";
}

TEST_F(ServiceTest, UpdateEpochPinsQueriesToPriorVersion) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  const SnapshotHandle pinned0 = server.snapshot();

  QueryBatch q = sample_queries(2, 200);
  auto qfut = server.submit_queries(q);
  UpdateRequest u;
  u.batch = forest::make_delete_batch(f_, 10, 55);
  auto ufut = server.submit_update(std::move(u));
  ASSERT_TRUE(server.step());

  // Queries coalesced into the same epoch as the update are answered at
  // the pinned pre-update version.
  QueryResult r = qfut.get();
  EXPECT_EQ(r.version, 0u);
  expect_matches(q, r, f_, std::vector<Weight>(kN, 1));

  UpdateResult ur = ufut.get();
  EXPECT_EQ(ur.version, 1u);
  EXPECT_EQ(server.version(), 1u);

  // Post-update queries see the edited forest...
  forest::Forest f1 =
      forest::apply_change_set(f_, forest::make_delete_batch(f_, 10, 55));
  QueryBatch q1 = sample_queries(3, 200);
  auto qfut1 = server.submit_queries(q1);
  ASSERT_TRUE(server.step());
  QueryResult r1 = qfut1.get();
  EXPECT_EQ(r1.version, 1u);
  expect_matches(q1, r1, f1, std::vector<Weight>(kN, 1));

  // ...while the handle pinned before the update still answers version 0.
  EXPECT_EQ(pinned0.version(), 0u);
  for (std::size_t i = 0; i < q.roots.size(); ++i) {
    ASSERT_EQ(pinned0->root(q.roots[i]), forest::root_of(f_, q.roots[i]));
  }
}

TEST_F(ServiceTest, UntrustedIdsGetSentinels) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  QueryBatch q;
  q.roots = {static_cast<VertexId>(kN + 1000), 0};
  q.connected = {{static_cast<VertexId>(kN + 7), 0}};
  q.tree_weights = {static_cast<VertexId>(kN + 99)};
  auto fut = server.submit_queries(std::move(q));
  ASSERT_TRUE(server.step());
  QueryResult r = fut.get();
  EXPECT_EQ(r.roots[0], kNoVertex);
  EXPECT_EQ(r.roots[1], forest::root_of(f_, 0));
  EXPECT_EQ(r.connected[0], 0);
  EXPECT_EQ(r.tree_weights[0], 0);
}

TEST_F(ServiceTest, InvalidUpdateBatchIsRejected) {
  // Every invalid kind of the edge-case catalogue — among them a V- id
  // beyond the capacity, a V+ id of kNoVertex - 1, a degree overflow, and
  // a mixed batch whose cycle exists only after its own cut (rolled back)
  // — against a running engine with a WAL attached, overlap off and on.
  // Each rejection must publish nothing and log nothing; the valid delete
  // + re-insert after it must land and answer like the oracle. Then valid
  // mixed batches (one acyclic only after its own cut) must land through
  // the two-phase path and answer like the oracle too.
  std::vector<test::NamedBatch> cases;
  std::vector<test::NamedBatch> mixed;
  for (test::NamedBatch& nb : test::edge_case_batches(f_, 17)) {
    (nb.valid ? mixed : cases).push_back(std::move(nb));
  }
  for (const std::string& kind : test::edge_case_invalid_kinds()) {
    ASSERT_TRUE(std::any_of(cases.begin(), cases.end(),
                            [&](const auto& nb) { return nb.kind == kind; }))
        << kind;
  }
  ASSERT_FALSE(mixed.empty());

  // Valid mixed batches and their oracles, ending back at f_: the
  // catalogue's batch and its inverse (also mixed), then a random batch
  // that cuts 4 edges and re-links 4 others cut beforehand, spread over
  // the trees so neither phase's repair region covers the other's.
  auto inverse = [](const forest::ChangeSet& b) {
    forest::ChangeSet inv;
    inv.remove_vertices = b.add_vertices;
    inv.remove_edges = b.add_edges;
    inv.add_vertices = b.remove_vertices;
    inv.add_edges = b.remove_edges;
    return inv;
  };
  const forest::ChangeSet& m = mixed.front().batch;
  const forest::ChangeSet undo_m = inverse(m);
  const forest::Forest after_m = forest::apply_change_set(f_, m);
  const auto [initial, spread] = forest::make_mixed_batch(f_, 4, 4, 23);
  forest::ChangeSet cut_first, relink;
  cut_first.remove_edges = spread.add_edges;
  relink.add_edges = spread.add_edges;
  const forest::ChangeSet undo_spread = inverse(spread);
  const forest::Forest after_spread =
      forest::apply_change_set(initial, spread);
  using Step = std::pair<const forest::ChangeSet*, const forest::Forest*>;
  const std::vector<Step> mixed_steps = {
      {&m, &after_m},           {&undo_m, &f_},
      {&cut_first, &initial},   {&spread, &after_spread},
      {&undo_spread, &initial}, {&relink, &f_}};

  const std::vector<Weight> w(kN, 1);
  for (const bool overlap : {false, true}) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("parct_service_invalid_" + std::to_string(overlap));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    durability::Manager mgr(dir.string());
    ServiceConfig cfg;
    cfg.overlap_updates = overlap;
    cfg.durability = &mgr;
    BatchServer server(c, cfg, w);
    server.start();

    std::uint64_t version = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::string& kind = cases[i].kind;
      const std::uint64_t wal_before = server.stats().wal_records;
      // A query batch ahead of the update lets the engine overlap them.
      auto qfut = server.submit_queries(sample_queries(50 + i, 20));
      UpdateRequest bad;
      bad.batch = cases[i].batch;
      auto fut = server.submit_update(std::move(bad));
      EXPECT_THROW(fut.get(), std::invalid_argument) << kind;
      EXPECT_EQ(server.stats().updates_rejected, i + 1) << kind;
      qfut.get();
      EXPECT_EQ(server.version(), version) << kind;
      EXPECT_EQ(server.stats().wal_records, wal_before) << kind;

      // Delete then re-insert some edges: both land, the forest returns
      // to f_ (so every later case stays invalid), and queries after each
      // match the oracle at the version they report.
      auto land = [&](forest::ChangeSet batch, const forest::Forest& oracle) {
        UpdateRequest u;
        u.batch = std::move(batch);
        EXPECT_EQ(server.submit_update(std::move(u)).get().version,
                  ++version)
            << kind;
        const QueryBatch q = sample_queries(70 + i, 40);
        const QueryResult r = server.submit_queries(q).get();
        EXPECT_EQ(r.version, version) << kind;
        expect_matches(q, r, oracle, w);
      };
      const forest::ChangeSet del = forest::make_delete_batch(f_, 3, 900 + i);
      forest::ChangeSet ins;
      ins.add_edges = del.remove_edges;
      land(del, forest::apply_change_set(f_, del));
      land(ins, f_);
      const ServiceStats s = server.stats();
      EXPECT_EQ(s.updates_rejected, i + 1) << kind;
      EXPECT_EQ(s.wal_records, wal_before + 2) << kind;
    }

    // Valid mixed batches: the cut, then E+ checked against the post-cut
    // roots and applied; the derived layers are repaired once over both
    // phases' touched set.
    for (const auto& [batch, oracle] : mixed_steps) {
      const std::uint64_t wal_before = server.stats().wal_records;
      UpdateRequest u;
      u.batch = *batch;
      EXPECT_EQ(server.submit_update(std::move(u)).get().version, ++version);
      const QueryBatch q = sample_queries(version, 200);
      const QueryResult r = server.submit_queries(q).get();
      EXPECT_EQ(r.version, version);
      expect_matches(q, r, *oracle, w);
      EXPECT_EQ(server.stats().wal_records, wal_before + 1);
    }
    EXPECT_EQ(server.stats().updates_rejected, cases.size());
    server.stop();
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ServiceTest, VertexWeightsApplyWithTheirEpoch) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  hashing::SplitMix64 rng(9);
  const VertexId v = static_cast<VertexId>(rng.next_below(kN));

  UpdateRequest u;  // weight-only update: empty structural batch
  u.vertex_weights.push_back({v, 100});
  auto ufut = server.submit_update(std::move(u));
  ASSERT_TRUE(server.step());
  EXPECT_EQ(ufut.get().version, 1u);

  QueryBatch q;
  q.tree_weights = {v};
  auto qfut = server.submit_queries(std::move(q));
  ASSERT_TRUE(server.step());
  std::vector<Weight> w(kN, 1);
  w[v] = 100;
  Weight want = 0;
  for (VertexId x = 0; x < kN; ++x) {
    if (forest::root_of(f_, x) == forest::root_of(f_, v)) want += w[x];
  }
  EXPECT_EQ(qfut.get().tree_weights[0], want);
}

TEST_F(ServiceTest, SnapshotSatisfiesBatchQueryViewConcept) {
  // The same templated batch entry points that serve the live RCForest
  // accept a pinned Snapshot.
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  const SnapshotHandle snap = server.snapshot();
  std::vector<VertexId> qs;
  for (VertexId v = 0; v < kN; v += 11) qs.push_back(v);
  std::vector<VertexId> roots = rc::batch_roots(*snap, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(roots[i], forest::root_of(f_, qs[i]));
  }
}

TEST_F(ServiceTest, SteadyStateRecyclesSnapshotBuffers) {
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  forest::Forest cur = f_;
  for (int step = 0; step < 6; ++step) {
    UpdateRequest u;
    u.batch = forest::make_delete_batch(cur, 2, 200 + step);
    cur = forest::apply_change_set(cur, u.batch);
    auto fut = server.submit_update(std::move(u));
    ASSERT_TRUE(server.step());
    fut.get();
  }
  const ServiceStats s = server.stats();
  EXPECT_EQ(s.snapshots_published, 7u);  // initial + 6 updates
  EXPECT_LE(s.snapshot_buffers_allocated, 2u)
      << "steady state must recycle the double buffer, not allocate";
  EXPECT_GE(s.snapshot_buffers_reused, 5u);
  // The two fresh buffers are filled by full copies; every recycled one
  // is patched with the two epochs' dirty entries only.
  EXPECT_EQ(s.snapshot_full_publishes, 2u);
  EXPECT_EQ(s.snapshot_delta_publishes, 5u);
  EXPECT_LT(s.snapshot_entries_copied, 3 * kN);
}

// The published snapshot of a server bound to `c` must equal a full copy
// of derived state built from scratch over `c` with weights `w` — whether
// it was patched or copied. Call with the engine idle (every submitted
// future resolved).
void expect_snapshot_current(const BatchServer& server,
                             const contract::ContractionForest& c,
                             const std::vector<Weight>& w,
                             const std::string& step) {
  // A started engine owns the pool; build the reference inline.
  par::scheduler::SerialScope serial;
  const rc::RCForest rcf(c);
  const rc::TreeAggregate<Weight> agg(rcf, w);
  Snapshot want;
  want.assign_from(rcf, &agg, server.version());
  const SnapshotHandle got = server.snapshot();
  ASSERT_EQ(got->version, want.version) << step;
  ASSERT_EQ(got->events.size(), want.events.size()) << step;
  for (std::size_t v = 0; v < want.events.size(); ++v) {
    const rc::Event& a = got->events[v];
    const rc::Event& b = want.events[v];
    ASSERT_TRUE(a.kind == b.kind && a.round == b.round && a.into == b.into &&
                a.over == b.over)
        << step << ": event of vertex " << v;
  }
  ASSERT_EQ(got->weights, want.weights) << step;
  ASSERT_EQ(got->accumulators, want.accumulators) << step;
}

TEST_F(ServiceTest, DeltaPublishMatchesFullCopy) {
  // Every kind of epoch the server publishes — or refuses to — followed
  // by a check of the published snapshot against a from-scratch full
  // copy: deletes and re-inserts, weight changes, a V+ batch that grows
  // the capacity, a batch too large for a delta, a rejected batch, an
  // aborted and a retried epoch (fault-injection builds), and a reader
  // pinning a version across two publishes, with overlap off and on.
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap on" : "overlap off");
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    std::vector<Weight> w(kN, 1);
    ServiceConfig cfg;
    cfg.overlap_updates = overlap;
    cfg.retry_backoff = std::chrono::microseconds(20);
    BatchServer server(c, cfg, w);
    server.start();
    forest::Forest cur = f_;
    std::uint64_t step_no = 0;

    // Submits `u` with a query batch ahead of it (so the engine can
    // overlap them), waits for both, and checks the snapshot.
    auto run = [&](UpdateRequest u, const std::string& step) {
      ++step_no;
      auto qfut = server.submit_queries(sample_queries(step_no, 16));
      const forest::ChangeSet batch = u.batch;
      const auto weights = u.vertex_weights;
      auto fut = server.submit_update(std::move(u));
      bool landed = true;
      try {
        fut.get();
      } catch (const std::exception&) {
        landed = false;
      }
      qfut.get();
      if (landed) {
        cur = forest::apply_change_set(cur, batch);
        w.resize(cur.capacity(), 0);
        for (const auto& [v, x] : weights) {
          if (v < cur.capacity() && cur.present(v)) w[v] = x;
        }
      }
      expect_snapshot_current(server, c, w, step);
      return landed;
    };
    auto weights_of = [](std::vector<VertexId> vs, Weight x) {
      UpdateRequest u;
      for (const VertexId v : vs) u.vertex_weights.push_back({v, x});
      return u;
    };

    for (int k = 0; k < 3; ++k) {
      UpdateRequest del;
      del.batch = forest::make_delete_batch(cur, 3, 40 + k);
      UpdateRequest ins = weights_of({7, 300, 1200}, 2 + k);
      ins.batch.add_edges = del.batch.remove_edges;
      ASSERT_TRUE(run(std::move(del), "delete " + std::to_string(k)));
      ASSERT_TRUE(run(std::move(ins), "re-insert " + std::to_string(k)));
      ASSERT_TRUE(run(weights_of({static_cast<VertexId>(100 * k + 5)}, -4),
                      "weights only " + std::to_string(k)));
    }

    // V+: a new three-vertex tree grows the capacity (a full copy), and
    // the next publish still finds its recycled slot at the old capacity.
    const VertexId a = static_cast<VertexId>(cur.capacity());
    UpdateRequest grow = weights_of({a, a + 1, a + 2}, 10);
    grow.batch.ins_vertex(a).ins_vertex(a + 1).ins_vertex(a + 2);
    grow.batch.ins_edge(a + 1, a).ins_edge(a + 2, a);
    const std::uint64_t full_before = server.stats().snapshot_full_publishes;
    ASSERT_TRUE(run(std::move(grow), "V+ growth"));
    ASSERT_TRUE(run(weights_of({a + 1}, 3), "after growth"));
    UpdateRequest cut;
    cut.batch.del_edge(a + 2, a);
    ASSERT_TRUE(run(std::move(cut), "delete after growth"));
    EXPECT_EQ(server.stats().snapshot_full_publishes, full_before + 2);

    // A batch whose touched region is a large share of n: full copy.
    UpdateRequest big;
    big.batch = forest::make_delete_batch(cur, kN / 4, 77);
    UpdateRequest unbig;
    unbig.batch.add_edges = big.batch.remove_edges;
    const std::uint64_t full_big = server.stats().snapshot_full_publishes;
    ASSERT_TRUE(run(std::move(big), "large delete"));
    ASSERT_TRUE(run(std::move(unbig), "large re-insert"));
    EXPECT_GT(server.stats().snapshot_full_publishes, full_big);

    // A rejected batch publishes nothing; the next delta still covers the
    // two epochs since its recycled slot.
    for (test::NamedBatch& nb : test::edge_case_batches(cur, 5)) {
      if (nb.valid) continue;
      UpdateRequest bad;
      bad.batch = std::move(nb.batch);
      ASSERT_FALSE(run(std::move(bad), "rejected: " + nb.kind));
      break;
    }
    UpdateRequest del;
    del.batch = forest::make_delete_batch(cur, 2, 91);
    ASSERT_TRUE(run(std::move(del), "delete after rejection"));

#if PARCT_FAULT_INJECT
    // Every attempt aborts (EpochAborted, nothing published); then one
    // attempt aborts and the retry lands.
    fault::Plan plan;
    plan[fault::Site::kEpochApply] = {fault::Mode::kBurst, 0, 1,
                                      cfg.max_epoch_retries + 1};
    fault::arm(plan);
    UpdateRequest aborted;
    aborted.batch = forest::make_delete_batch(cur, 2, 92);
    ASSERT_FALSE(run(std::move(aborted), "aborted epoch"));
    plan[fault::Site::kEpochApply] = {fault::Mode::kOnce, 0, 1, 1};
    fault::arm(plan);
    UpdateRequest retried;
    retried.batch = forest::make_delete_batch(cur, 2, 93);
    ASSERT_TRUE(run(std::move(retried), "retried epoch"));
    fault::disarm();
    EXPECT_GE(server.stats().epoch_retries, cfg.max_epoch_retries + 1u);
#endif

    // A reader pinning a version across two publishes: the second finds
    // both slots busy and fills a fresh buffer by a full copy.
    {
      const SnapshotHandle pin = server.snapshot();
      const std::uint64_t full_pin = server.stats().snapshot_full_publishes;
      ASSERT_TRUE(run(weights_of({11}, 6), "pinned 1"));
      ASSERT_TRUE(run(weights_of({12}, 6), "pinned 2"));
      EXPECT_EQ(server.stats().snapshot_full_publishes, full_pin + 1);
      EXPECT_EQ(server.stats().snapshot_buffers_allocated, 3u);
    }
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(run(weights_of({static_cast<VertexId>(20 + k)}, 1),
                      "after unpin " + std::to_string(k)));
    }
    const ServiceStats s = server.stats();
    EXPECT_GE(s.snapshot_delta_publishes, 10u);
    EXPECT_EQ(s.snapshot_delta_publishes + s.snapshot_full_publishes,
              s.snapshots_published);
    server.stop();
  }
}

TEST_F(ServiceTest, StatsAreCurrentWhenTheFutureResolves) {
  // With the engine running, stats() read right after fut.get() already
  // counts that update, accepted or rejected.
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  server.start();
  std::uint64_t applied = 0, ops = 0, rejected = 0;
  forest::Forest cur = f_;
  for (int k = 0; k < 8; ++k) {
    UpdateRequest u;
    u.batch = forest::make_delete_batch(cur, 2, 60 + k);
    forest::ChangeSet undo;
    undo.add_edges = u.batch.remove_edges;
    ops += u.batch.size() + undo.size();
    server.submit_update(std::move(u)).get();
    ++applied;
    EXPECT_EQ(server.stats().updates_applied, applied) << k;
    UpdateRequest back;
    back.batch = undo;
    server.submit_update(std::move(back)).get();
    ++applied;
    ServiceStats s = server.stats();
    EXPECT_EQ(s.updates_applied, applied) << k;
    EXPECT_EQ(s.update_ops, ops) << k;

    UpdateRequest bad;
    bad.batch = undo;  // the edges are present again: duplicate inserts
    EXPECT_THROW(server.submit_update(std::move(bad)).get(),
                 std::invalid_argument);
    ++rejected;
    s = server.stats();
    EXPECT_EQ(s.updates_rejected, rejected) << k;
    EXPECT_EQ(s.updates_applied, applied) << k;
    EXPECT_EQ(s.update_ops, ops) << k;
  }
  server.stop();
}

TEST_F(ServiceTest, EngineThreadServesSubmittersEndToEnd) {
  for (const bool overlap : {false, true}) {
    // Fresh structure per run: the previous server's updates mutated it.
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    ServiceConfig cfg;
    cfg.overlap_updates = overlap;
    BatchServer server(c, cfg, std::vector<Weight>(kN, 1));
    server.start();

    // Interleave query and update submissions; track the forest at every
    // version so each result can be checked at the version it reports.
    std::vector<forest::Forest> at_version = {f_};
    std::vector<std::pair<QueryBatch, std::future<QueryResult>>> qfuts;
    std::vector<std::future<UpdateResult>> ufuts;
    for (int i = 0; i < 12; ++i) {
      QueryBatch q = sample_queries(400 + i, 120);
      qfuts.emplace_back(q, server.submit_queries(q));
      if (i % 3 == 1) {
        UpdateRequest u;
        u.batch = forest::make_delete_batch(at_version.back(), 5, 600 + i);
        at_version.push_back(
            forest::apply_change_set(at_version.back(), u.batch));
        ufuts.push_back(server.submit_update(std::move(u)));
      }
    }
    server.stop();  // drains everything admitted above

    std::uint64_t expect_version = 1;
    for (auto& uf : ufuts) {
      EXPECT_EQ(uf.get().version, expect_version++) << "overlap=" << overlap;
    }
    const std::vector<Weight> w(kN, 1);
    for (auto& [q, fut] : qfuts) {
      QueryResult r = fut.get();
      ASSERT_LT(r.version, at_version.size());
      expect_matches(q, r, at_version[r.version], w);
    }
    EXPECT_THROW(server.submit_queries(QueryBatch{}), std::runtime_error)
        << "submit after stop() must fail fast";

    const ServiceStats s = server.stats();
    EXPECT_EQ(s.updates_applied, ufuts.size());
    EXPECT_EQ(s.queries_served, 12u * 3u * 120u);
  }
}

TEST_F(ServiceTest, ConcurrentStopIsSafe) {
  // Regression (found by the thread-safety annotation pass): stop() used
  // to read and join engine_ without holding mu_, racing the handle
  // against start()'s write and letting two concurrent stop() calls both
  // observe a joinable thread and double-join (std::terminate). stop()
  // now moves the handle out under the lock, so exactly one caller joins
  // and every other call is an idempotent no-op.
  for (int round = 0; round < 8; ++round) {
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f_);
    BatchServer server(c, ServiceConfig{}, std::vector<Weight>(kN, 1));
    server.start();
    auto fut = server.submit_queries(sample_queries(900 + round, 64));

    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&server] { server.stop(); });
    }
    for (std::thread& th : stoppers) th.join();

    // The admitted batch resolved either way — served by the drain, or
    // rejected with ServerStopped — never left dangling.
    try {
      (void)fut.get();
    } catch (const ServerStopped&) {
    }
    EXPECT_THROW(server.submit_queries(QueryBatch{}), ServerStopped);
  }
}

TEST_F(ServiceTest, StepModeStopRejectsQueuedFutures) {
  // Guard on the ConcurrentStopIsSafe contract across the durability
  // refactors: in step() mode there is no engine thread to drain the
  // queues, so stop() itself must reject everything still admitted with
  // ServerStopped — no future survives stop() unresolved.
  BatchServer server(*c_, {}, std::vector<Weight>(kN, 1));
  auto q1 = server.submit_queries(sample_queries(50, 32));
  auto q2 = server.submit_queries(sample_queries(51, 32));
  UpdateRequest u;
  u.batch = forest::make_delete_batch(f_, 3, 52);
  auto uf = server.submit_update(std::move(u));
  server.stop();  // no step() ran: all three are still queued
  EXPECT_THROW(q1.get(), ServerStopped);
  EXPECT_THROW(q2.get(), ServerStopped);
  EXPECT_THROW(uf.get(), ServerStopped);
  EXPECT_THROW(server.submit_queries(QueryBatch{}), ServerStopped);
}

}  // namespace
}  // namespace parct::service
