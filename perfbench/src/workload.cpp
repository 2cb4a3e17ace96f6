#include "workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "forest/tree_builder.hpp"
#include "hashing/splitmix64.hpp"

namespace perfbench {

using parct::kNoVertex;
using parct::Edge;
using parct::forest::Forest;
using parct::hashing::SplitMix64;
using parct::service::QueryBatch;

namespace {

// Names are final: later changes cite them. Edit-stream and bulk-edits
// send several small batches after each update so that every run collects
// well over 100 query samples besides the read-your-writes ones (their p90
// needs at least ten beyond it).
constexpr Spec kSpecs[] = {
    {"edit-stream", 1, 64, 16, 3, 96},
    {"bulk-edits", 10000, 64, 16, 0, 16},
};

QueryBatch random_batch(SplitMix64& rng, std::size_t n, std::size_t k) {
  QueryBatch q;
  q.roots.resize(k);
  q.connected.resize(k);
  q.tree_weights.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    q.roots[i] = static_cast<VertexId>(rng.next_below(n));
    q.connected[i] = {static_cast<VertexId>(rng.next_below(n)),
                      static_cast<VertexId>(rng.next_below(n))};
    q.tree_weights[i] = static_cast<VertexId>(rng.next_below(n));
  }
  return q;
}

// Read-your-writes: the first item of each kind in a request's first batch
// asks about the vertex the preceding update cut or re-linked.
void aim_at(QueryBatch& q, const Forest& base, VertexId c) {
  q.roots[0] = c;
  q.connected[0] = {c, base.parent(c)};
  q.tree_weights[0] = c;
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Inputs generate(const Spec& spec, std::size_t n, std::uint64_t seed) {
  Inputs in;
  in.base = parct::forest::build_tree(n, 4, 0.6,
                                      parct::hashing::mix64(seed ^ 0x7EEull));
  const Forest& f = in.base;
  SplitMix64 rng(parct::hashing::mix64(seed ^ 0x0B5ull));

  std::vector<VertexId> nonroot;
  nonroot.reserve(n);
  for (VertexId v = 0; v < f.capacity(); ++v) {
    if (f.present(v) && !f.is_root(v)) nonroot.push_back(v);
  }
  if (nonroot.size() < spec.edits_per_update * 2) {
    throw std::invalid_argument("perfbench: n too small for the workload");
  }
  const std::vector<VertexId> roots = f.roots();

  // Distinct cut children per pair (rejection against a per-pair stamp).
  std::vector<std::uint32_t> stamp(f.capacity(), 0);
  in.cut_sets.resize(spec.pairs);
  for (std::size_t k = 0; k < spec.pairs; ++k) {
    std::vector<VertexId>& cut = in.cut_sets[k];
    while (cut.size() < spec.edits_per_update) {
      const VertexId c = nonroot[rng.next_below(nonroot.size())];
      if (stamp[c] == k + 1) continue;
      stamp[c] = static_cast<std::uint32_t>(k + 1);
      cut.push_back(c);
    }
  }

  auto add_step = [&](Step s, VertexId aimed) {
    for (std::size_t b = 0; b < spec.batches_per_request; ++b) {
      s.queries.push_back(random_batch(rng, n, spec.queries_per_kind));
    }
    if (aimed != kNoVertex) aim_at(s.queries[0], f, aimed);
    in.steps.push_back(std::move(s));
  };

  std::size_t invalid_count = 0;
  for (std::size_t k = 0; k < spec.pairs; ++k) {
    const std::vector<VertexId>& cut = in.cut_sets[k];
    std::vector<Edge> edges;
    edges.reserve(cut.size());
    for (VertexId c : cut) edges.push_back({c, f.parent(c)});

    Step del;
    del.kind = StepKind::kDelete;
    del.pair = static_cast<std::uint32_t>(k);
    del.batch.remove_edges = edges;
    add_step(std::move(del), cut[0]);

    Step ins;
    ins.kind = StepKind::kInsert;
    ins.pair = static_cast<std::uint32_t>(k);
    ins.batch.add_edges = std::move(edges);
    add_step(std::move(ins), cut[0]);

    if (spec.invalid_period == 0 || (k + 1) % spec.invalid_period != 0) {
      continue;
    }
    // Invalid steps run against the base forest (every pair restores it).
    Step bad;
    bad.kind = StepKind::kInvalid;
    switch (invalid_count++ % 3) {
      case 0: {
        // An insert that closes a cycle: a root below its own descendant.
        const VertexId r = roots[rng.next_below(roots.size())];
        VertexId x = kNoVertex;
        while (x == kNoVertex) {
          const VertexId cand = nonroot[rng.next_below(nonroot.size())];
          VertexId top = cand;
          while (!f.is_root(top)) top = f.parent(top);
          if (top == r && f.degree(cand) < f.degree_bound()) x = cand;
        }
        bad.batch.ins_edge(r, x);
        break;
      }
      case 1: {
        // A duplicate insert: the edge is already there.
        const VertexId c = nonroot[rng.next_below(nonroot.size())];
        bad.batch.ins_edge(c, f.parent(c));
        break;
      }
      default: {
        // A delete of a non-edge.
        const VertexId c = nonroot[rng.next_below(nonroot.size())];
        VertexId p = c;
        while (p == c || p == f.parent(c)) {
          p = static_cast<VertexId>(rng.next_below(n));
        }
        bad.batch.del_edge(c, p);
        break;
      }
    }
    add_step(std::move(bad), kNoVertex);
  }
  return in;
}

Oracle::Oracle(const Forest& base) {
  const std::size_t cap = base.capacity();
  base_root_.assign(cap, kNoVertex);
  tin_.assign(cap, 0);
  tout_.assign(cap, 0);
  sub_.assign(cap, 0);
  base_tree_size_.assign(cap, 0);
  std::uint32_t timer = 0;
  std::vector<std::pair<VertexId, int>> stack;  // (vertex, next slot)
  for (VertexId r : base.roots()) {
    stack.push_back({r, 0});
    base_root_[r] = r;
    tin_[r] = timer++;
    while (!stack.empty()) {
      auto& [v, slot] = stack.back();
      const parct::ChildArray& ch = base.children(v);
      while (slot < parct::kMaxDegree && ch[slot] == kNoVertex) ++slot;
      if (slot < parct::kMaxDegree) {
        const VertexId u = ch[slot++];
        base_root_[u] = r;
        tin_[u] = timer++;
        stack.push_back({u, 0});
        continue;
      }
      tout_[v] = timer - 1;
      sub_[v] = tout_[v] - tin_[v] + 1;
      stack.pop_back();
    }
    base_tree_size_[r] = sub_[r];
  }
}

void Oracle::activate(std::int64_t pair, const std::vector<VertexId>& cut) {
  pair_ = pair;
  for (VertexId r : touched_roots_) base_tree_size_[r] = sub_[r];
  touched_roots_.clear();
  cut_ = cut;
  std::sort(cut_.begin(), cut_.end(),
            [&](VertexId a, VertexId b) { return tin_[a] < tin_[b]; });
  up_.assign(cut_.size(), -1);
  frag_.assign(cut_.size(), 0);
  std::vector<std::int64_t> open;  // cut ancestors of the current vertex
  for (std::size_t i = 0; i < cut_.size(); ++i) {
    const VertexId c = cut_[i];
    while (!open.empty() && tout_[cut_[open.back()]] < tin_[c]) {
      open.pop_back();
    }
    up_[i] = open.empty() ? -1 : open.back();
    open.push_back(static_cast<std::int64_t>(i));
    frag_[i] = sub_[c];
  }
  for (std::size_t i = 0; i < cut_.size(); ++i) {
    const std::int64_t s = sub_[cut_[i]];
    if (up_[i] >= 0) {
      frag_[up_[i]] -= s;
    } else {
      const VertexId r = base_root_[cut_[i]];
      base_tree_size_[r] -= s;
      touched_roots_.push_back(r);
    }
  }
}

std::int64_t Oracle::enclosing(VertexId v) const {
  auto it = std::upper_bound(
      cut_.begin(), cut_.end(), tin_[v],
      [&](std::uint32_t t, VertexId c) { return t < tin_[c]; });
  std::int64_t i = (it - cut_.begin()) - 1;
  while (i >= 0 && tout_[cut_[i]] < tin_[v]) i = up_[i];
  return i;
}

VertexId Oracle::root(VertexId v) const {
  const std::int64_t i = enclosing(v);
  return i < 0 ? base_root_[v] : cut_[i];
}

std::int64_t Oracle::tree_size(VertexId v) const {
  const std::int64_t i = enclosing(v);
  return i < 0 ? base_tree_size_[base_root_[v]] : frag_[i];
}

Checker::Checker(const Inputs& in, Oracle& oracle, std::uint64_t seed,
                 std::uint64_t version)
    : in_(in),
      oracle_(oracle),
      rng_(parct::hashing::mix64(seed ^ 0xC4Eull)),
      version_(version) {}

bool Checker::update_accepted(const Step& s, std::uint64_t version) {
  ++attempted;
  const bool expected = version == version_ + 1;
  version_ = version;
  if (s.kind == StepKind::kInvalid) {
    ++failed;  // an invalid batch got in: later answers are suspect too
    return false;
  }
  live_pair_ =
      s.kind == StepKind::kDelete ? static_cast<std::int64_t>(s.pair) : -1;
  if (!expected) ++failed;
  return expected;
}

void Checker::update_rejected(const Step& s, bool invalid_argument) {
  ++attempted;
  if (s.kind == StepKind::kInvalid && invalid_argument) {
    ++invalid_rejected;
  } else {
    ++failed;
  }
}

void Checker::query_answered(const QueryBatch& q,
                             const parct::service::QueryResult& r) {
  ++attempted;
  if (oracle_.active_pair() != live_pair_) {
    oracle_.activate(live_pair_, live_pair_ < 0 ? std::vector<VertexId>{}
                                                : in_.cut_sets[live_pair_]);
  }
  const std::size_t wrong =
      count_wrong(q, r, oracle_, live_pair_ < 0 ? 0 : kCutSample, rng_);
  wrong_items += wrong;
  if (wrong != 0 || r.version != version_) ++failed;
}

void Checker::query_failed() {
  ++attempted;
  ++failed;
}

std::size_t count_wrong(const QueryBatch& q,
                        const parct::service::QueryResult& r,
                        const Oracle& oracle, std::size_t sample_per_kind,
                        SplitMix64& rng) {
  if (r.roots.size() != q.roots.size() ||
      r.connected.size() != q.connected.size() ||
      r.tree_weights.size() != q.tree_weights.size()) {
    return q.size();
  }
  std::size_t wrong = 0;
  auto each = [&](std::size_t count, auto&& check) {
    if (sample_per_kind == 0 || sample_per_kind >= count) {
      for (std::size_t i = 0; i < count; ++i) wrong += check(i) ? 0 : 1;
    } else {
      for (std::size_t s = 0; s < sample_per_kind; ++s) {
        wrong += check(rng.next_below(count)) ? 0 : 1;
      }
    }
  };
  each(q.roots.size(),
       [&](std::size_t i) { return r.roots[i] == oracle.root(q.roots[i]); });
  each(q.connected.size(), [&](std::size_t i) {
    const auto [u, v] = q.connected[i];
    return (r.connected[i] != 0) == (oracle.root(u) == oracle.root(v));
  });
  each(q.tree_weights.size(), [&](std::size_t i) {
    return r.tree_weights[i] == oracle.tree_size(q.tree_weights[i]);
  });
  return wrong;
}

}  // namespace perfbench
