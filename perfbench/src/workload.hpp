// Seeded inputs for the serving benchmark and the oracle that checks the
// answers. Everything here runs before (or outside) the timed phases: the
// server only ever receives the generated change sets and query batches.
//
// Every workload walks the same cyclic op stream over an n-vertex
// forest::build_tree(n, 4, 0.6, seed) forest: pair k deletes an edge set
// D_k and the next step re-inserts it, so the live forest alternates
// between the base forest and "base minus D_k". That makes every version's
// answers predictable from the base forest alone (see Oracle).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "forest/change_set.hpp"
#include "forest/forest.hpp"
#include "hashing/splitmix64.hpp"
#include "service/batch_server.hpp"

namespace perfbench {

using parct::VertexId;

struct Spec {
  const char* name;
  std::size_t edits_per_update;     // m of every valid update
  std::size_t queries_per_kind;     // items per kind in one query batch
  std::size_t batches_per_request;  // query batches per request
  std::size_t invalid_period;       // one invalid step after this many
                                    // pairs (0: no invalid steps)
  std::size_t pairs;                // distinct delete/re-insert pairs
};

/// The workload table; nullptr for an unknown name.
const Spec* find_spec(const std::string& name);

enum class StepKind { kDelete, kInsert, kInvalid };

/// One request's update, plus the query batches that follow it.
struct Step {
  StepKind kind = StepKind::kDelete;
  std::uint32_t pair = 0;  // index into Inputs::cut_sets (delete/insert)
  parct::forest::ChangeSet batch;
  std::vector<parct::service::QueryBatch> queries;
};

struct Inputs {
  parct::forest::Forest base{0};
  std::vector<std::vector<VertexId>> cut_sets;  // D_k as child ids
  std::vector<Step> steps;                      // the cyclic op stream
};

Inputs generate(const Spec& spec, std::size_t n, std::uint64_t seed);

/// Answers root / connected / tree-size queries on "base minus D" for any
/// edge set D of the base forest, in O(log |D|) per query after an
/// O(|D| log |D|) activate(). All weights are 1, so a tree weight is the
/// tree size. Built from the base forest's Euler-tour intervals; shares no
/// code with the structures under test.
class Oracle {
 public:
  explicit Oracle(const parct::forest::Forest& base);

  /// Switches to "base minus the parent edges of `cut`", the cut set of
  /// pair `pair` (-1 and an empty cut: base).
  void activate(std::int64_t pair, const std::vector<VertexId>& cut);
  /// The pair last activated (-1: base). Lets several checkers share one
  /// oracle.
  std::int64_t active_pair() const { return pair_; }

  VertexId root(VertexId v) const;
  std::int64_t tree_size(VertexId v) const;

 private:
  // Index into cut_ of the deepest cut child whose subtree holds v, or -1.
  std::int64_t enclosing(VertexId v) const;

  std::vector<VertexId> base_root_;
  std::vector<std::uint32_t> tin_;
  std::vector<std::uint32_t> tout_;
  std::vector<std::int64_t> sub_;  // base subtree sizes

  // Active cut, sorted by tin; up_[i] is the index of the nearest cut
  // ancestor of cut_[i] (-1: none), frag_[i] the size of cut_[i]'s tree.
  std::vector<VertexId> cut_;
  std::vector<std::int64_t> up_;
  std::vector<std::int64_t> frag_;
  std::vector<std::int64_t> base_tree_size_;  // by base root, after cuts
  std::vector<VertexId> touched_roots_;
  std::int64_t pair_ = -1;
};

/// Tracks which forest the live structure should hold after each step and
/// checks every outcome against it. Queries at a base-forest version are
/// checked item by item; at a "base minus D_k" version, a seeded sample of
/// kCutSample items per kind is checked. Counts one attempt per update and
/// per query batch; a failure is a wrong or missing answer, a wrong
/// version, a rejected valid batch, or an accepted invalid one.
class Checker {
 public:
  static constexpr std::size_t kCutSample = 64;

  Checker(const Inputs& in, Oracle& oracle, std::uint64_t seed,
          std::uint64_t version);

  /// The server accepted `s`, producing `version`. True if `s` was valid
  /// and the version is the expected successor (a latency sample).
  bool update_accepted(const Step& s, std::uint64_t version);
  /// The server rejected `s`; `invalid_argument` tells whether the
  /// rejection was std::invalid_argument (the validator's verdict).
  void update_rejected(const Step& s, bool invalid_argument);
  void query_answered(const parct::service::QueryBatch& q,
                      const parct::service::QueryResult& r);
  void query_failed();

  std::uint64_t version() const { return version_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_items = 0;
  std::uint64_t invalid_rejected = 0;

 private:
  const Inputs& in_;
  Oracle& oracle_;
  parct::hashing::SplitMix64 rng_;
  std::uint64_t version_;
  std::int64_t live_pair_ = -1;  // pair whose cut the structure holds
};

/// Where `drive` stands in the op stream, so that a run split into
/// several windows walks on rather than restarting.
struct Cursor {
  std::size_t step = 0;
};

/// Runs the cyclic op stream from `at`: per request, the update then its
/// query batches. `query(q, first)` is told
/// whether `q` is the request's first batch, the one that follows an
/// update. Stops at the first base-forest boundary after `seconds` of wall
/// time, so every window ends on the base forest.
template <typename Update, typename Query>
void drive(const Inputs& in, double seconds, Cursor& at, Update&& update,
           Query&& query) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const Step& s = in.steps[at.step++ % in.steps.size()];
    update(s);
    for (std::size_t b = 0; b < s.queries.size(); ++b) {
      query(s.queries[b], b == 0);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    if (s.kind != StepKind::kDelete && elapsed.count() >= seconds) break;
  }
}

/// Items of `r` that disagree with the oracle's active forest about `q`,
/// plus any missing ones. Checks every item when `sample_per_kind` is 0
/// or covers the batch, else that many seeded picks per kind.
std::size_t count_wrong(const parct::service::QueryBatch& q,
                        const parct::service::QueryResult& r,
                        const Oracle& oracle, std::size_t sample_per_kind,
                        parct::hashing::SplitMix64& rng);

}  // namespace perfbench
