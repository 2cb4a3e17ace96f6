// The traced "ladder": replays the op stream through each serving layer's
// public functions, in the order BatchServer::process_epoch calls them,
// with a span around every call. It owns the fork-join pool while it runs,
// exactly as the engine thread would, so no server may be serving then.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "contraction/contraction_forest.hpp"
#include "contraction/dynamic_update.hpp"
#include "durability/manager.hpp"
#include "forest/forest.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"
#include "service/snapshot.hpp"
#include "workload.hpp"

namespace perfbench {

/// Update layers, in process_epoch order; also the span names.
inline constexpr const char* kLayers[] = {
    "forest.validate",  "contraction.apply", "durability.append",
    "rc.repair",        "forest.mirror",     "service.publish",
};
inline constexpr std::size_t kNumLayers = std::size(kLayers);

struct LadderResult {
  double layer_ms[kNumLayers] = {};  // mean per accepted update
  double request_ms = 0;             // mean enclosing update span
  double touched_per_edit = 0;       // TouchedRecorder size / m
  double publish_bytes = 0;          // bytes copied per publish
  double answer_us_per_query = 0;    // query fan-out time per item
  std::uint64_t updates = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The layers BatchServer owns, built over `c` the way its constructor
/// builds them, plus a fresh WAL in `wal_dir` starting at `version`. `c`
/// must hold the base forest whenever a window starts; every window ends
/// on it, so a server over the same structure can serve between windows.
class Ladder {
 public:
  Ladder(parct::contract::ContractionForest& c, const Inputs& in,
         Oracle& oracle, std::uint64_t version, const std::string& wal_dir,
         std::uint64_t seed, Tracer& tracer);

  /// One window: replays the op stream for about `seconds` from where the
  /// previous window stopped. The first window starts with an unsampled
  /// warm-up pair, as the served run does. Answers are checked like the
  /// served ones.
  void run(double seconds);

  LadderResult result() const;

 private:
  void update(const Step& s);
  void query(const parct::service::QueryBatch& q);
  void publish();

  const Inputs& in_;
  Tracer& tracer_;
  parct::contract::DynamicUpdater updater_;
  parct::rc::RCForest rcf_;
  parct::rc::TreeAggregate<parct::service::Weight> agg_;
  parct::forest::Forest mirror_;
  parct::service::SnapshotStore store_;
  parct::durability::Manager wal_;
  std::uint64_t version_;
  Checker checker_;
  Cursor cursor_;
  bool sampling_ = false;
  std::uint32_t request_ = 0;

  std::uint64_t updates_ = 0;
  double layer_sum_[kNumLayers] = {};
  double request_sum_ = 0;
  double touched_sum_ = 0;
  double answer_ms_ = 0;
  std::uint64_t answered_ = 0;
};

}  // namespace perfbench
