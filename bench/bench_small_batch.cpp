// Small-batch update latency through the serving stack: one
// BatchServer::submit_update + epoch step per measurement, batch sizes
// m in {1, 10, 100, 1k, 10k}. This is the end-to-end cost a client pays
// for a tiny update — admission, apply() (which takes the adaptive serial
// fast path for sub-cutover frontiers; docs/PERFORMANCE.md "Small-batch
// fast path"), derived-layer repair, and snapshot publication.
//
// The m=1 row is the latency headline the fast path optimizes; the JSONL
// rows carry chose_serial / fused_passes / ws_misses and the snapshot
// publish counters so CI can gate the fast path and the delta publish
// staying engaged (tools/check_alloc_budget.py with
// bench/alloc_budget.json). Each row also times the bare
// DynamicUpdater::apply of the same batch on a twin structure:
// e2e_over_apply is the same-run ratio of the two (advisory).
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/bench_util.hpp"
#include "contraction/construct.hpp"
#include "contraction/dynamic_update.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "parallel/scheduler.hpp"
#include "service/batch_server.hpp"

using namespace parct;

int main() {
  par::scheduler::initialize(1);
  const std::size_t n = bench::default_n();
  const int reps = bench::default_reps();

  bench::TableWriter table(
      "Small-batch update latency through BatchServer (n=" +
          std::to_string(n) + ", chain factor 0.6, step mode)",
      {"batch_m", "latency_s", "latency_per_edge_us", "apply_s",
       "e2e_over_apply", "chose_serial", "rounds"});

  forest::Forest full = forest::build_tree(n, 4, 0.6, 0x53A17'BA7CULL);
  for (std::size_t m = 1; m <= 10000 && m <= n / 10; m *= 10) {
    auto [initial, batch] = forest::make_insert_batch(full, m, m + 41);
    forest::ChangeSet inverse;
    inverse.remove_edges = batch.add_edges;

    contract::ContractionForest c(full.capacity(), 4, 99);
    contract::construct(c, initial);

    service::BatchServer server(
        c, {}, std::vector<service::Weight>(full.capacity(), 1));

    auto apply_once = [&](const forest::ChangeSet& cs) {
      service::UpdateRequest u;
      u.batch = cs;
      std::future<service::UpdateResult> fut =
          server.submit_update(std::move(u));
      server.step();
      return fut.get();
    };

    // Warm-up cycle: first forward/inverse pair grows every scratch buffer
    // to steady-state capacity (later reps must show ws_misses == 0).
    apply_once(batch);
    apply_once(inverse);

    // The bare apply of the same batch, on a twin structure with no
    // server around it (timed before the dump opens, so the row's pool
    // counters stay the server's).
    double apply_total = 0.0;
    {
      contract::ContractionForest twin(full.capacity(), 4, 99);
      contract::construct(twin, initial);
      contract::DynamicUpdater bare(twin);
      bare.apply(batch);
      bare.apply(inverse);
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        bare.apply(batch);
        const auto t1 = std::chrono::steady_clock::now();
        apply_total += std::chrono::duration<double>(t1 - t0).count();
        bare.apply(inverse);
      }
    }
    const double apply_t = apply_total / reps;

    bench::StatsDump dump("small_batch");
    service::UpdateResult last;
    double total = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      last = apply_once(batch);
      const auto t1 = std::chrono::steady_clock::now();
      total += std::chrono::duration<double>(t1 - t0).count();
      apply_once(inverse);  // restore outside the clock
    }
    const double t = total / reps;

    table.row({std::to_string(m), bench::fmt_s(t),
               bench::fmt(t / static_cast<double>(m) * 1e6),
               bench::fmt_s(apply_t), bench::fmt(t / apply_t),
               std::to_string(last.stats.chose_serial),
               std::to_string(last.stats.rounds)});

    const service::ServiceStats s = server.stats();
    dump.num("n", n)
        .num("batch_m", m)
        .num("latency_s", t)
        .num("apply_s", apply_t)
        .num("e2e_over_apply", t / apply_t)
        .num("snapshot_delta_publishes", s.snapshot_delta_publishes)
        .num("snapshot_full_publishes", s.snapshot_full_publishes)
        .num("snapshot_entries_copied", s.snapshot_entries_copied)
        .num("snapshot_buffers_allocated", s.snapshot_buffers_allocated);
    bench::add_update_stats(dump, last.stats);
    dump.emit();
  }
  return 0;
}
