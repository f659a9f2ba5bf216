#pragma once

/// \file streams.hpp
/// Seeded delta generators for the streaming benchmark.
///
/// Every generator reads the current graph through the public read-only
/// accessors and emits plain graph::GraphDelta values; the program under
/// test only ever receives those generated deltas.

#include <cstdint>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace perfbench {

/// Graph-local bursts: each delta is a chain of new vertices, every one of
/// them attached to a vertex of a BFS ball around one random live anchor —
/// the refinement front of an adaptive mesh.  The ball is grown on the
/// graph itself, so the burst is local in the graph metric no matter how
/// vertex ids are laid out (random_geometric_graph ids carry no locality;
/// see README.md).
class LocalBurstGenerator {
 public:
  LocalBurstGenerator(std::uint64_t seed, int burst, int ball)
      : rng_(seed), burst_(burst), ball_(ball) {}

  [[nodiscard]] pigp::graph::GraphDelta next(const pigp::graph::Graph& g);

 private:
  pigp::SplitMix64 rng_;
  int burst_;
  int ball_;
  std::vector<std::uint32_t> seen_;  ///< epoch stamps, one per vertex id
  std::uint32_t epoch_ = 0;
  std::vector<pigp::graph::VertexId> ball_members_;
};

/// Scattered structural churn: per delta, kCutEdges edge cuts, kRemoved
/// vertex removals, kAdded new vertices attached to random live vertices
/// and kNewEdges random new edges — spread over the whole graph.  Tracks
/// the live id set itself; call remap() after the session compacts and
/// absorbed() after every accepted delta.
class ChurnGenerator {
 public:
  static constexpr int kCutEdges = 4;
  static constexpr int kRemoved = 2;
  static constexpr int kAdded = 2;
  static constexpr int kNewEdges = 4;

  ChurnGenerator(std::uint64_t seed, pigp::graph::VertexId num_vertices);

  [[nodiscard]] pigp::graph::GraphDelta next(const pigp::graph::Graph& g);

  /// The delta was applied: its new vertices occupy the last ids of \p g.
  void absorbed(const pigp::graph::Graph& g, int added);

  /// The session compacted its id space with \p old_to_new.
  void remap(const std::vector<pigp::graph::VertexId>& old_to_new);

 private:
  pigp::SplitMix64 rng_;
  std::vector<pigp::graph::VertexId> alive_;
};

}  // namespace perfbench
