#include "streams.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

using pigp::graph::Graph;
using pigp::graph::GraphDelta;
using pigp::graph::VertexAddition;
using pigp::graph::VertexId;

GraphDelta LocalBurstGenerator::next(const Graph& g) {
  const VertexId n = g.num_vertices();
  if (seen_.size() < static_cast<std::size_t>(n)) {
    seen_.resize(static_cast<std::size_t>(n), 0);
  }
  ++epoch_;
  VertexId anchor = 0;
  do {
    anchor = static_cast<VertexId>(rng_.next_below(static_cast<std::uint64_t>(n)));
  } while (!g.is_live(anchor));

  // Breadth-first ball of up to ball_ vertices around the anchor.
  ball_members_.clear();
  ball_members_.push_back(anchor);
  seen_[static_cast<std::size_t>(anchor)] = epoch_;
  for (std::size_t head = 0;
       head < ball_members_.size() &&
       ball_members_.size() < static_cast<std::size_t>(ball_);
       ++head) {
    for (const VertexId u : g.neighbors(ball_members_[head])) {
      if (seen_[static_cast<std::size_t>(u)] == epoch_) continue;
      seen_[static_cast<std::size_t>(u)] = epoch_;
      ball_members_.push_back(u);
      if (ball_members_.size() == static_cast<std::size_t>(ball_)) break;
    }
  }

  // A chain of burst_ new vertices, each also attached to a ball vertex.
  GraphDelta delta;
  delta.added_vertices.reserve(static_cast<std::size_t>(burst_));
  for (int i = 0; i < burst_; ++i) {
    VertexAddition add;
    add.edges.emplace_back(
        ball_members_[rng_.next_below(ball_members_.size())], 1.0);
    if (i > 0) add.edges.emplace_back(n + i - 1, 1.0);
    delta.added_vertices.push_back(std::move(add));
  }
  return delta;
}

ChurnGenerator::ChurnGenerator(std::uint64_t seed, VertexId num_vertices)
    : rng_(seed), alive_(static_cast<std::size_t>(num_vertices)) {
  std::iota(alive_.begin(), alive_.end(), VertexId{0});
}

GraphDelta ChurnGenerator::next(const Graph& g) {
  const auto pick = [this] {
    return alive_[rng_.next_below(alive_.size())];
  };
  GraphDelta delta;
  for (int i = 0; i < kCutEdges; ++i) {
    const VertexId u = pick();
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const auto e = pigp::graph::canonical_edge(
        u, nbrs[rng_.next_below(nbrs.size())]);
    if (std::find(delta.removed_edges.begin(), delta.removed_edges.end(), e) ==
        delta.removed_edges.end()) {
      delta.removed_edges.push_back(e);
    }
  }
  // Removed vertices leave the live set right away, so nothing below can
  // attach to them.
  for (int i = 0; i < kRemoved; ++i) {
    const std::size_t k = rng_.next_below(alive_.size());
    delta.removed_vertices.push_back(alive_[k]);
    alive_[k] = alive_.back();
    alive_.pop_back();
  }
  for (int i = 0; i < kAdded; ++i) {
    VertexAddition add;
    const VertexId a = pick();
    const VertexId b = pick();
    add.edges.emplace_back(a, 1.0);
    if (b != a) add.edges.emplace_back(b, 1.0);
    delta.added_vertices.push_back(std::move(add));
  }
  for (int i = 0; i < kNewEdges; ++i) {
    const VertexId u = pick();
    const VertexId v = pick();
    if (u != v) delta.added_edges.emplace_back(u, v);
  }
  return delta;
}

void ChurnGenerator::absorbed(const Graph& g, int added) {
  for (VertexId v = g.num_vertices() - added; v < g.num_vertices(); ++v) {
    alive_.push_back(v);
  }
}

void ChurnGenerator::remap(const std::vector<VertexId>& old_to_new) {
  for (VertexId& v : alive_) v = old_to_new[static_cast<std::size_t>(v)];
}

}  // namespace perfbench
