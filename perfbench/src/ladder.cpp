#include "ladder.hpp"

#include <optional>
#include <utility>

#include "contraction/hooks.hpp"
#include "forest/change_set.hpp"
#include "parallel/parallel_for.hpp"

namespace perfbench {

using parct::service::QueryBatch;
using parct::service::QueryResult;
using parct::service::Snapshot;
using parct::service::Weight;

Ladder::Ladder(parct::contract::ContractionForest& c, const Inputs& in,
               Oracle& oracle, std::uint64_t version,
               const std::string& wal_dir, std::uint64_t seed, Tracer& tracer)
    : in_(in),
      tracer_(tracer),
      updater_(c),
      rcf_(c),
      agg_(rcf_, std::vector<Weight>(c.capacity(), 1)),
      mirror_(c.extract_forest()),
      wal_(wal_dir),
      version_(version),
      checker_(in, oracle, seed, version) {
  wal_.open_log(version_);
  publish();
}

void Ladder::publish() {
  auto buf = store_.begin_build();
  buf->assign_from(rcf_, &agg_, version_);
  store_.publish(std::move(buf));
}

void Ladder::run(double seconds) {
  auto update = [&](const Step& s) { this->update(s); };
  auto query = [&](const QueryBatch& q, bool) { this->query(q); };
  if (!sampling_) {
    drive(in_, 0.0, cursor_, update, query);
    sampling_ = true;
  }
  drive(in_, seconds, cursor_, update, query);
}

void Ladder::update(const Step& s) {
  const std::uint32_t rid = request_++;
  const std::int32_t root = tracer_.open("update", rid);
  double ms[kNumLayers] = {};
  auto layer = [&](std::size_t i, auto&& body) {
    const std::int32_t id = tracer_.open(kLayers[i], rid, root);
    body();
    ms[i] = tracer_.close(id);
  };

  std::optional<std::string> err;
  layer(0, [&] { err = parct::forest::check_change_set(mirror_, s.batch); });
  if (err) {
    tracer_.close(root);
    checker_.update_rejected(s, /*invalid_argument=*/true);
    return;
  }
  parct::contract::TouchedRecorder touched;
  layer(1, [&] { updater_.apply(s.batch, &touched); });
  layer(2, [&] { wal_.append(version_ + 1, s.batch, {}); });
  const std::size_t touched_count = touched.vertices().size();
  layer(3, [&] {
    std::vector<parct::VertexId>& tv = touched.vertices();
    tv.insert(tv.end(), s.batch.remove_vertices.begin(),
              s.batch.remove_vertices.end());
    agg_.prepare_update(tv);
    rcf_.refresh(tv);
    agg_.apply_update();
  });
  layer(4,
        [&] { mirror_ = parct::forest::apply_change_set(mirror_, s.batch); });
  layer(5, [&] {
    ++version_;
    publish();
  });
  const double total = tracer_.close(root);

  if (checker_.update_accepted(s, version_) && sampling_) {
    for (std::size_t i = 0; i < kNumLayers; ++i) layer_sum_[i] += ms[i];
    request_sum_ += total;
    touched_sum_ += static_cast<double>(touched_count) /
                    static_cast<double>(s.batch.size());
    ++updates_;
  }
}

// BatchServer::answer over a pinned snapshot, one span per query kind.
void Ladder::query(const QueryBatch& q) {
  const std::uint32_t rid = request_++;
  const parct::service::SnapshotHandle pinned = store_.acquire();
  const Snapshot& snap = *pinned;
  QueryResult r;
  r.version = snap.version;
  const std::int32_t root = tracer_.open("service.answer", rid);
  std::int32_t id = tracer_.open("service.answer.roots", rid, root);
  r.roots.resize(q.roots.size());
  parct::par::parallel_for(0, q.roots.size(), [&](std::size_t i) {
    r.roots[i] = snap.root(q.roots[i]);
  });
  tracer_.close(id);
  id = tracer_.open("service.answer.connected", rid, root);
  r.connected.resize(q.connected.size());
  parct::par::parallel_for(0, q.connected.size(), [&](std::size_t i) {
    r.connected[i] =
        snap.connected(q.connected[i].first, q.connected[i].second) ? 1 : 0;
  });
  tracer_.close(id);
  id = tracer_.open("service.answer.tree_weights", rid, root);
  r.tree_weights.resize(q.tree_weights.size());
  parct::par::parallel_for(0, q.tree_weights.size(), [&](std::size_t i) {
    r.tree_weights[i] = snap.tree_weight(q.tree_weights[i]);
  });
  tracer_.close(id);
  const double ms = tracer_.close(root);
  if (sampling_) {
    answer_ms_ += ms;
    answered_ += q.size();
  }
  checker_.query_answered(q, r);
}

LadderResult Ladder::result() const {
  LadderResult out;
  {
    const parct::service::SnapshotHandle last = store_.acquire();
    out.publish_bytes = static_cast<double>(
        last->events.size() * sizeof(parct::rc::Event) +
        (last->weights.size() + last->accumulators.size()) * sizeof(Weight));
  }
  const double u = updates_ == 0 ? 1.0 : static_cast<double>(updates_);
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    out.layer_ms[i] = layer_sum_[i] / u;
  }
  out.request_ms = request_sum_ / u;
  out.touched_per_edit = touched_sum_ / u;
  out.answer_us_per_query =
      answered_ == 0 ? 0.0 : answer_ms_ * 1e3 / static_cast<double>(answered_);
  out.updates = updates_;
  out.attempted = checker_.attempted;
  out.failed = checker_.failed;
  return out;
}

}  // namespace perfbench
