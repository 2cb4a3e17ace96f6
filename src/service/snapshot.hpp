// Epoch-pinned snapshots of the query-relevant derived state.
//
// A Snapshot is an *immutable* copy of everything the read side needs —
// the RC event table (representative links for root/connectivity) and the
// tree-aggregate tables — stamped with a version number. Queries fan out
// over a snapshot with plain parallel_for and never look at the live
// ContractionForest, so a DynamicUpdater::apply mutating the live
// structure on another thread can never expose a half-propagated round to
// readers: snapshot isolation by construction, not by locking.
//
// SnapshotStore is the RCU-style publication point: writers build the
// successor version into a recycled buffer (double-buffering — a retired
// buffer is reused once the last reader handle drops it, so the steady
// state allocates nothing beyond the two O(n) buffers) and publish() it
// atomically; readers acquire() a SnapshotHandle that pins one version
// for as long as they hold it.
//
// Building a version is a delta in the steady state: the recycled buffer
// holds the version two before the one being built, so the writer copies
// only the entries the two epochs since then touched (patch_from, O(m log
// n) per epoch). A full O(n) assign_from is the fallback for a fresh
// buffer, a staler one (a reader pinned the other slot), a capacity
// change, or a batch whose touched region is a large share of n.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "forest/types.hpp"
#include "parallel/capability.hpp"
#include "rc/rc_forest.hpp"
#include "rc/tree_aggregate.hpp"

namespace parct::service {

/// Weight type served by the snapshot/serving layer (the core
/// TreeAggregate stays generic; the service fixes one concrete group).
using Weight = long;

struct Snapshot {
  /// Monotonic structure version: 0 for the initial construction, +1 per
  /// applied update batch.
  std::uint64_t version = 0;

  /// Copy of RCForest::events() at this version.
  std::vector<rc::Event> events;
  /// Copies of TreeAggregate weights()/accumulators() at this version
  /// (empty when the server runs without weights).
  std::vector<Weight> weights;
  std::vector<Weight> accumulators;

  // --- the batch-query View concept (rc/batch_queries.hpp) -------------
  // All entry points are total: an out-of-range or absent id yields the
  // defined sentinel instead of UB, so snapshots can serve untrusted ids.

  std::size_t size() const { return events.size(); }

  bool present(VertexId v) const {
    return v < events.size() &&
           events[v].kind != rc::EventKind::kAbsent;
  }

  VertexId representative(VertexId v) const { return events[v].into; }

  /// Root of v's tree at this version; kNoVertex for invalid ids.
  /// O(log n) expected (climbs the representative chain).
  VertexId root(VertexId v) const {
    if (!present(v)) return kNoVertex;
    while (events[v].into != kNoVertex) v = events[v].into;
    return v;
  }

  bool connected(VertexId u, VertexId v) const {
    if (!present(u) || !present(v)) return false;
    return root(u) == root(v);
  }

  /// Total weight of v's tree at this version; Weight{} for invalid ids
  /// or when the snapshot carries no weights.
  Weight tree_weight(VertexId v) const {
    const VertexId r = root(v);
    return r != kNoVertex && r < accumulators.size() ? accumulators[r]
                                                     : Weight{};
  }

  /// Fills this buffer from the live derived state: the full O(n) copy
  /// (memcpy-speed; capacity is reused on recycled buffers). Always
  /// correct, whatever the buffer held before.
  void assign_from(const rc::RCForest& rcf,
                   const rc::TreeAggregate<Weight>* agg,
                   std::uint64_t new_version) {
    version = new_version;
    events = rcf.events();
    if (agg != nullptr) {
      weights = agg->weights();
      accumulators = agg->accumulators();
    } else {
      weights.clear();
      accumulators.clear();
    }
  }

  /// Brings this buffer current by re-copying only the entries (event,
  /// weight and accumulator) of the ids in `dirty`; ids may repeat. The
  /// caller guarantees that the buffer holds an earlier version with the
  /// live capacity and that, over all patch_from calls for `new_version`,
  /// every entry changed since that version is named. O(|dirty|), serial.
  void patch_from(const rc::RCForest& rcf,
                  const rc::TreeAggregate<Weight>* agg,
                  std::uint64_t new_version,
                  const std::vector<VertexId>& dirty) {
    version = new_version;
    const std::vector<rc::Event>& live_events = rcf.events();
    for (const VertexId v : dirty) {
      if (v >= events.size()) continue;
      events[v] = live_events[v];
      if (agg != nullptr) {
        weights[v] = agg->weights()[v];
        accumulators[v] = agg->accumulators()[v];
      }
    }
  }
};

/// A pinned, read-only view of one published version. Copyable; the
/// snapshot stays alive (and its buffer out of the recycle pool) until
/// the last handle drops.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  explicit SnapshotHandle(std::shared_ptr<const Snapshot> s)
      : s_(std::move(s)) {}

  explicit operator bool() const { return s_ != nullptr; }
  const Snapshot& operator*() const { return *s_; }
  const Snapshot* operator->() const { return s_.get(); }
  const Snapshot* get() const { return s_.get(); }
  std::uint64_t version() const { return s_ ? s_->version : 0; }

 private:
  std::shared_ptr<const Snapshot> s_;
};

class SnapshotStore {
 public:
  /// Current front version pin. Never blocks publication; the handle keeps
  /// observing its version while successors are published.
  SnapshotHandle acquire() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return SnapshotHandle(front_);
  }

  std::uint64_t version() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return front_ ? front_->version : 0;
  }

  /// A mutable buffer to build the next version into: a retired
  /// double-buffer slot if no reader still pins it, else a fresh
  /// allocation (counted, so tests/benches can assert steady-state reuse).
  std::shared_ptr<Snapshot> begin_build() PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    for (auto& slot : ring_) {
      // use_count == 1: only the ring references it — no front_ alias, no
      // reader handles. Safe to mutate in place.
      if (slot && slot != building_ && slot.use_count() == 1) {
        ++buffers_reused_;
        building_ = slot;
        return slot;
      }
    }
    ++buffers_allocated_;
    auto fresh = std::make_shared<Snapshot>();
    for (auto& slot : ring_) {
      if (slot == nullptr || (slot != building_ && slot.use_count() == 1)) {
        slot = fresh;
        break;
      }
    }
    building_ = fresh;
    return fresh;
  }

  /// Publishes `next` as the front version. Readers that already hold a
  /// handle keep their pinned version; new acquires see `next`.
  void publish(std::shared_ptr<Snapshot> next) PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (building_ == next) building_ = nullptr;
    front_ = std::shared_ptr<const Snapshot>(std::move(next));
    ++published_;
  }

  std::uint64_t published() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return published_;
  }
  std::uint64_t buffers_reused() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return buffers_reused_;
  }
  std::uint64_t buffers_allocated() const PARCT_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return buffers_allocated_;
  }

 private:
  mutable Mutex mu_;
  // The *pointers* below are guarded; the pointees deliberately are not:
  // front_'s Snapshot is immutable once published, and building_'s is
  // mutated lock-free by the single builder thread that begin_build()
  // handed it to (the free-list scan above proves no reader aliases it).
  std::shared_ptr<const Snapshot> front_ PARCT_GUARDED_BY(mu_);
  // Double buffer: publish() aliases one slot as front_; the other slot
  // becomes recyclable as soon as the previous front's readers drain.
  std::shared_ptr<Snapshot> ring_[2] PARCT_GUARDED_BY(mu_);
  // Handed out, not yet published.
  std::shared_ptr<Snapshot> building_ PARCT_GUARDED_BY(mu_);
  std::uint64_t published_ PARCT_GUARDED_BY(mu_) = 0;
  std::uint64_t buffers_reused_ PARCT_GUARDED_BY(mu_) = 0;
  std::uint64_t buffers_allocated_ PARCT_GUARDED_BY(mu_) = 0;
};

}  // namespace parct::service
