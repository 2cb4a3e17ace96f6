#include "forest/change_set.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "forest/validation.hpp"

namespace parct::forest {

void ChangeSetIndex::assign(const ChangeSet& m) {
  vminus.assign(m.remove_vertices.begin(), m.remove_vertices.end());
  vplus.assign(m.add_vertices.begin(), m.add_vertices.end());
  eminus.assign(m.remove_edges.begin(), m.remove_edges.end());
  eplus.assign(m.add_edges.begin(), m.add_edges.end());
  eplus_children.clear();
  for (const Edge& e : m.add_edges) eplus_children.push_back(e.child);
  std::sort(vminus.begin(), vminus.end());
  std::sort(vplus.begin(), vplus.end());
  std::sort(eminus.begin(), eminus.end(), by_parent);
  std::sort(eplus.begin(), eplus.end(), by_parent);
  std::sort(eplus_children.begin(), eplus_children.end());
}

std::size_t ChangeSetIndex::eminus_children_of(VertexId p) const {
  // eminus is ordered by (parent, child): p's edges run from {0, p} up to
  // {0, p + 1}.
  auto from = [&](VertexId q) {
    return std::lower_bound(eminus.begin(), eminus.end(), Edge{0, q},
                            by_parent);
  };
  return static_cast<std::size_t>(from(p + 1) - from(p));
}

std::optional<std::string> check_change_set(const Forest& f,
                                            const ChangeSet& m) {
  ChangeSetIndex idx;
  if (auto err = check_local(f, m, idx)) return err;
  // Acyclicity: apply to a copy and walk the result. O(n) — this is the
  // reference oracle; apply_checked finds cycles by root-climbing instead.
  try {
    Forest g = apply_change_set(f, m);
    if (auto err = check_forest(g)) return "edited graph invalid: " + *err;
  } catch (const std::exception& e) {
    return std::string("edited graph invalid: ") + e.what();
  }
  return std::nullopt;
}

Forest apply_change_set(const Forest& f, const ChangeSet& m) {
  // Grow the universe if V+ introduces larger ids.
  std::size_t cap = f.capacity();
  for (VertexId v : m.add_vertices) {
    cap = std::max<std::size_t>(cap, static_cast<std::size_t>(v) + 1);
  }
  Forest g(cap, f.degree_bound(), 0);
  for (VertexId v = 0; v < f.capacity(); ++v) {
    if (f.present(v)) g.add_vertex(v);
  }
  for (const Edge& e : f.edges()) g.link(e.child, e.parent);

  for (const Edge& e : m.remove_edges) g.cut(e.child);
  for (VertexId v : m.remove_vertices) g.remove_vertex(v);
  for (VertexId v : m.add_vertices) g.add_vertex(v);
  for (const Edge& e : m.add_edges) g.link(e.child, e.parent);
  return g;
}

namespace {

// Guard against corrupt counts: no real batch approaches this, and the
// durability WAL frames each record with a length + CRC, so anything
// larger is stream corruption, not data.
constexpr std::uint64_t kMaxChangeSetElems = 1ull << 32;

template <typename T>
void put(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T get(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw std::runtime_error("parct::load_change_set: truncated");
  return value;
}

void read_vertices(std::istream& in, std::uint64_t n,
                   std::vector<VertexId>& out) {
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get<VertexId>(in));
}

void read_edges(std::istream& in, std::uint64_t n, std::vector<Edge>& out) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const VertexId child = get<VertexId>(in);
    const VertexId parent = get<VertexId>(in);
    out.push_back({child, parent});
  }
}

}  // namespace

void save_change_set(const ChangeSet& m, std::ostream& out) {
  put(out, static_cast<std::uint64_t>(m.remove_vertices.size()));
  put(out, static_cast<std::uint64_t>(m.remove_edges.size()));
  put(out, static_cast<std::uint64_t>(m.add_vertices.size()));
  put(out, static_cast<std::uint64_t>(m.add_edges.size()));
  for (VertexId v : m.remove_vertices) put(out, v);
  for (const Edge& e : m.remove_edges) {
    put(out, e.child);
    put(out, e.parent);
  }
  for (VertexId v : m.add_vertices) put(out, v);
  for (const Edge& e : m.add_edges) {
    put(out, e.child);
    put(out, e.parent);
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("parct::save_change_set: stream write failed");
  }
}

ChangeSet load_change_set(std::istream& in) {
  const std::uint64_t nvm = get<std::uint64_t>(in);
  const std::uint64_t nem = get<std::uint64_t>(in);
  const std::uint64_t nvp = get<std::uint64_t>(in);
  const std::uint64_t nep = get<std::uint64_t>(in);
  if (nvm > kMaxChangeSetElems || nem > kMaxChangeSetElems ||
      nvp > kMaxChangeSetElems || nep > kMaxChangeSetElems) {
    throw std::runtime_error("parct::load_change_set: count exceeds bound");
  }
  // push_back-grown (geometric capacity), never reserved from the
  // untrusted counts: truncation surfaces before memory is committed.
  ChangeSet m;
  read_vertices(in, nvm, m.remove_vertices);
  read_edges(in, nem, m.remove_edges);
  read_vertices(in, nvp, m.add_vertices);
  read_edges(in, nep, m.add_edges);
  return m;
}

}  // namespace parct::forest
