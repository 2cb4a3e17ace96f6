// Chaos tests: seeded fault schedules driven through the serving stack.
// Every injection site is exercised under every schedule mode (once,
// periodic, burst), singly and combined, against a live engine with
// concurrent epochs. The invariant is the acceptance criterion of the
// fault layer: every admitted request's future either resolves with a
// result that matches the oracle at the version it reports, or rejects
// with a documented error — no wedged futures, no torn snapshots, no
// version that skips or repeats. The traffic includes invalid mixed
// batches (a cut whose E+ closes a cycle), whose cut is applied and rolled
// back inside the validator: they must reject, never land.
//
// Replay: each run announces its plan spec via SCOPED_TRACE, so a failing
// schedule prints as `replay: PARCT_CHAOS_SPEC=...`. Exporting that
// variable re-runs exactly that plan through the deterministic stepped
// driver (ReplaysSpecFromEnvironment), whose whole outcome — versions and
// per-future dispositions — is a pure function of the spec
// (docs/TESTING.md §5).
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "contraction/construct.hpp"
#include "fault/fault_injection.hpp"
#include "forest/generators.hpp"
#include "forest/validation.hpp"
#include "hashing/splitmix64.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/adaptive.hpp"
#include "service/batch_server.hpp"
#include "test_util.hpp"

namespace parct::service {
namespace {

#if !PARCT_FAULT_INJECT

TEST(Chaos, RequiresFaultInjectBuild) {
  GTEST_SKIP() << "built without PARCT_FAULT_INJECT; the chaos schedules "
                  "run in the fault-injection CI job";
}

#else  // PARCT_FAULT_INJECT

constexpr std::size_t kN = 700;
constexpr int kRounds = 24;

// How one submitted request ended: the version it was served at, or a
// coarse rejection class. Comparable across runs for replay determinism.
enum class Disposition : int {
  kServed = 0,
  kAdmissionDropped,
  kDeadlineOrShed,
  kEpochAborted,
  kAllocFailure,   // injected bad_alloc surfaced through apply
  kUpdatesHalted,  // rejected because an earlier apply failed mid-flight
  kInvalidBatch,   // rejected by validation (std::invalid_argument)
};

struct RunOutcome {
  std::uint64_t final_version = 0;
  std::vector<std::pair<Disposition, std::uint64_t>> queries;  // + version
  std::vector<Disposition> updates;

  bool operator==(const RunOutcome& o) const {
    return final_version == o.final_version && queries == o.queries &&
           updates == o.updates;
  }
};

Disposition classify(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const AdmissionDropped&) {
    return Disposition::kAdmissionDropped;
  } catch (const DeadlineExceeded&) {
    return Disposition::kDeadlineOrShed;
  } catch (const QueryShed&) {
    return Disposition::kDeadlineOrShed;
  } catch (const EpochAborted&) {
    return Disposition::kEpochAborted;
  } catch (const std::bad_alloc&) {
    return Disposition::kAllocFailure;
  } catch (const std::invalid_argument&) {
    return Disposition::kInvalidBatch;
  } catch (const std::runtime_error&) {
    return Disposition::kUpdatesHalted;
  } catch (...) {
    ADD_FAILURE() << "future rejected with an undocumented error type";
    return Disposition::kUpdatesHalted;
  }
}

// Drives kRounds of interleaved query/update traffic through a BatchServer
// with `plan` armed, then checks every future against the
// oracle-reconstructed version chain. `stepped` uses the deterministic
// step() driver (one epoch per round — the replay mode); otherwise a live
// engine thread coalesces epochs on its own.
RunOutcome run_chaos(const fault::Plan& plan, bool stepped) {
  SCOPED_TRACE("replay: PARCT_CHAOS_SPEC='" + fault::format_plan(plan) +
               "'");
  forest::Forest f = forest::random_forest(kN, 5, 4, 0.4, 17);
  contract::ContractionForest c(kN, 4, 3);
  contract::construct(c, f);
  ServiceConfig cfg;
  cfg.max_epoch_retries = 2;
  cfg.retry_backoff = std::chrono::microseconds(50);
  BatchServer server(c, cfg, std::vector<Weight>(kN, 1));

  fault::arm(plan);
  if (!stepped) server.start();

  // Each update batch is generated against the forest as it would be if
  // every prior update succeeded; batches are independent edge sets, so a
  // later batch stays valid even when an earlier one was rejected (the
  // oracle chain below applies only the batches that actually landed).
  hashing::SplitMix64 rng(plan.seed * 1299709 + 1);
  forest::Forest hypothetical = f;
  std::vector<std::pair<QueryBatch, std::future<QueryResult>>> qfuts;
  // (batch, valid, future)
  std::vector<std::tuple<forest::ChangeSet, bool, std::future<UpdateResult>>>
      ufuts;
  for (int i = 0; i < kRounds; ++i) {
    QueryBatch q;
    for (int j = 0; j < 24; ++j) {
      q.roots.push_back(static_cast<VertexId>(rng.next_below(kN)));
      q.connected.push_back({static_cast<VertexId>(rng.next_below(kN)),
                             static_cast<VertexId>(rng.next_below(kN))});
      q.tree_weights.push_back(static_cast<VertexId>(rng.next_below(kN)));
    }
    auto qfut = server.submit_queries(q);
    qfuts.emplace_back(std::move(q), std::move(qfut));
    if (i % 3 == 1) {
      forest::ChangeSet batch = forest::make_delete_batch(
          hypothetical, 3, plan.seed * 100 + i);
      hypothetical = forest::apply_change_set(hypothetical, batch);
      UpdateRequest u;
      u.batch = batch;
      auto ufut = server.submit_update(std::move(u));
      ufuts.emplace_back(std::move(batch), true, std::move(ufut));
    }
    if (i % 6 == 4) {
      // Invalid against every forest the server can hold: those differ
      // from `hypothetical` only by edges of rejected delete batches, which
      // keep the cycle (or overflow the degree of its new parent).
      for (test::NamedBatch& nb :
           test::edge_case_batches(hypothetical, plan.seed + i)) {
        if (nb.kind != "E+ cycle after E- cut") continue;
        UpdateRequest u;
        u.batch = nb.batch;
        auto ufut = server.submit_update(std::move(u));
        ufuts.emplace_back(std::move(nb.batch), false, std::move(ufut));
      }
    }
    if (stepped) server.step();
  }
  if (stepped) {
    while (server.step()) {
    }
  }
  server.stop();
  // Every run submits through the admission site, so the hit counters must
  // have ticked — catches a build where the macros silently compiled away.
  EXPECT_GT(fault::hits(fault::Site::kQueueAdmission), 0u);
  fault::disarm();

  // Reconstruct the version chain from the updates that actually applied:
  // update epochs run in submission order, and every success advances the
  // published version by exactly one.
  RunOutcome out;
  std::vector<forest::Forest> at_version = {f};
  for (auto& [batch, valid, fut] : ufuts) {
    try {
      UpdateResult ur = fut.get();
      if (!valid) {
        ADD_FAILURE() << "an invalid batch landed at version " << ur.version;
        return out;
      }
      EXPECT_EQ(ur.version, at_version.size())
          << "versions must advance by one per applied update";
      at_version.push_back(
          forest::apply_change_set(at_version.back(), batch));
      out.updates.push_back(Disposition::kServed);
    } catch (...) {
      out.updates.push_back(classify(std::current_exception()));
      EXPECT_TRUE(!valid || out.updates.back() != Disposition::kInvalidBatch)
          << "a valid batch was rejected as invalid";
    }
  }
  out.final_version = server.version();
  EXPECT_EQ(out.final_version, at_version.size() - 1);

  // ASSERT_* needs a void scope; failures propagate via HasFatalFailure.
  auto check_query = [&](const QueryBatch& q, const QueryResult& r) {
    ASSERT_LT(r.version, at_version.size()) << "phantom version";
    const forest::Forest& oracle = at_version[r.version];
    std::vector<Weight> component(kN, 0);
    for (VertexId v = 0; v < kN; ++v) {
      if (oracle.present(v)) component[forest::root_of(oracle, v)] += 1;
    }
    for (std::size_t i = 0; i < q.roots.size(); ++i) {
      ASSERT_EQ(r.roots[i], forest::root_of(oracle, q.roots[i]))
          << "root mismatch at version " << r.version;
      ASSERT_EQ(r.connected[i] != 0,
                forest::root_of(oracle, q.connected[i].first) ==
                    forest::root_of(oracle, q.connected[i].second))
          << "connectivity mismatch at version " << r.version;
      ASSERT_EQ(r.tree_weights[i],
                component[forest::root_of(oracle, q.tree_weights[i])])
          << "tree weight mismatch at version " << r.version;
    }
  };
  for (auto& [q, fut] : qfuts) {
    try {
      QueryResult r = fut.get();
      check_query(q, r);
      if (::testing::Test::HasFatalFailure()) return out;
      out.queries.push_back({Disposition::kServed, r.version});
    } catch (const std::exception&) {
      out.queries.push_back({classify(std::current_exception()), 0});
    }
  }

  // The final published snapshot must answer like the oracle's final
  // forest — the structure survived the schedule intact.
  const SnapshotHandle snap = server.snapshot();
  [&] {
    for (VertexId v = 0; v < kN; v += 13) {
      ASSERT_EQ(snap->root(v), forest::root_of(at_version.back(), v))
          << "final snapshot diverged from the oracle";
    }
  }();
  return out;
}

fault::SiteSchedule make_schedule(fault::Mode mode, hashing::SplitMix64& g) {
  fault::SiteSchedule s;
  s.mode = mode;
  s.at = g.next_below(16);
  s.every = 1 + g.next_below(7);
  s.len = 1 + g.next_below(3);
  return s;
}

class ChaosMatrix : public ::testing::Test {
 protected:
  void SetUp() override { par::scheduler::initialize(4); }
  void TearDown() override {
    fault::disarm();
    par::scheduler::initialize(1);
  }
};

TEST_F(ChaosMatrix, EverySiteUnderEveryMode) {
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(::testing::UnitTest::GetInstance()
                                     ->random_seed());
  for (unsigned site = 0; site < fault::kNumSites; ++site) {
    for (const fault::Mode mode :
         {fault::Mode::kOnce, fault::Mode::kPeriodic, fault::Mode::kBurst}) {
      fault::Plan plan;
      plan.seed = base_seed * 31 + site * 3 + static_cast<unsigned>(mode);
      hashing::SplitMix64 g(plan.seed);
      plan.sites[site] = make_schedule(mode, g);
      run_chaos(plan, /*stepped=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(ChaosMatrix, AllSitesCombined) {
  fault::Plan plan;
  plan.seed = 424242;
  hashing::SplitMix64 g(plan.seed);
  plan[fault::Site::kWorkspaceAcquire] =
      make_schedule(fault::Mode::kOnce, g);
  plan[fault::Site::kSchedulerSteal] =
      make_schedule(fault::Mode::kPeriodic, g);
  plan[fault::Site::kSerialHandoff] = make_schedule(fault::Mode::kBurst, g);
  plan[fault::Site::kEpochApply] = make_schedule(fault::Mode::kOnce, g);
  plan[fault::Site::kQueueAdmission] =
      make_schedule(fault::Mode::kPeriodic, g);
  run_chaos(plan, /*stepped=*/false);
}

TEST_F(ChaosMatrix, SteppedScheduleReplaysExactly) {
  // The replay contract: under the stepped driver with a serial pool the
  // whole outcome is a pure function of the plan spec. Two runs of the
  // same spec — one of them round-tripped through format_plan/parse_plan —
  // must match disposition for disposition.
  par::scheduler::initialize(1);  // serial: hit sequences replay exactly
  fault::Plan plan;
  plan.seed = 77;
  plan[fault::Site::kEpochApply] = {fault::Mode::kPeriodic, 1, 3, 1};
  plan[fault::Site::kQueueAdmission] = {fault::Mode::kPeriodic, 2, 5, 1};
  plan[fault::Site::kWorkspaceAcquire] = {fault::Mode::kOnce, 40, 1, 1};
  const RunOutcome first = run_chaos(plan, /*stepped=*/true);
  const fault::Plan reparsed = fault::parse_plan(fault::format_plan(plan));
  const RunOutcome second = run_chaos(reparsed, /*stepped=*/true);
  EXPECT_TRUE(first == second)
      << "stepped chaos run diverged on replay of "
      << fault::format_plan(plan);
}

// An invalid mixed batch applies its cut and rolls it back inside the
// validator. An allocation failure at any workspace acquire of those
// applies is fail-stop, like any apply that throws mid-flight: the future
// rejects with bad_alloc, later updates are refused, and queries keep
// serving the last published version. Sweeps the failing acquire over
// every hit of the batch; past the last, the batch rejects cleanly and
// the next valid update lands.
TEST_F(ChaosMatrix, InvalidMixedBatchUnderWorkspaceFaults) {
  // Pool of 4 (SetUp) and cutover 0: the sequential and inline paths
  // lease no workspace.
  par::set_serial_cutover(0);
  const forest::Forest f = forest::random_forest(kN, 5, 4, 0.4, 17);
  forest::ChangeSet bad;
  for (test::NamedBatch& nb : test::edge_case_batches(f, 5)) {
    if (nb.kind == "E+ cycle after E- cut") bad = nb.batch;
  }
  ASSERT_FALSE(bad.add_edges.empty());
  const forest::ChangeSet good = forest::make_delete_batch(f, 3, 11);
  const forest::Forest after_good = forest::apply_change_set(f, good);
  auto expect_serves = [](const BatchServer& server,
                          const forest::Forest& oracle) {
    const SnapshotHandle snap = server.snapshot();
    for (VertexId v = 0; v < kN; v += 7) {
      ASSERT_EQ(snap->root(v), forest::root_of(oracle, v)) << v;
    }
  };
  std::uint64_t fail_stops = 0;
  for (std::uint64_t at = 0;; ++at) {
    SCOPED_TRACE("workspace-acquire fails at hit " + std::to_string(at));
    contract::ContractionForest c(kN, 4, 3);
    contract::construct(c, f);
    BatchServer server(c, {}, std::vector<Weight>(kN, 1));
    fault::Plan plan;
    plan[fault::Site::kWorkspaceAcquire] = {fault::Mode::kOnce, at, 1, 1};
    fault::arm(plan);
    UpdateRequest u;
    u.batch = bad;
    auto fut = server.submit_update(std::move(u));
    server.step();
    const bool fired = fault::fired(fault::Site::kWorkspaceAcquire) > 0;
    fault::disarm();
    UpdateRequest next;
    next.batch = good;
    auto next_fut = server.submit_update(std::move(next));
    server.step();
    if (fired) {
      ++fail_stops;
      EXPECT_THROW(fut.get(), std::bad_alloc);
      EXPECT_THROW(next_fut.get(), std::runtime_error);
      EXPECT_EQ(server.version(), 0u);
      expect_serves(server, f);
    } else {
      EXPECT_THROW(fut.get(), std::invalid_argument);
      EXPECT_EQ(next_fut.get().version, 1u);
      expect_serves(server, after_good);
      break;
    }
    if (HasFailure()) break;
  }
  EXPECT_GT(fail_stops, 0u) << "the batch's applies leased no workspace";
  par::clear_serial_cutover();
}

TEST_F(ChaosMatrix, ReplaysSpecFromEnvironment) {
  const char* spec = std::getenv("PARCT_CHAOS_SPEC");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set PARCT_CHAOS_SPEC to replay a failing schedule";
  }
  par::scheduler::initialize(1);
  run_chaos(fault::parse_plan(spec), /*stepped=*/true);
}

#endif  // PARCT_FAULT_INJECT

}  // namespace
}  // namespace parct::service
