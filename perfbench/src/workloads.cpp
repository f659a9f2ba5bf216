#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "api/async_session.hpp"
#include "api/backend.hpp"
#include "api/config.hpp"
#include "api/session.hpp"
#include "core/assign.hpp"
#include "core/balance.hpp"
#include "core/layering.hpp"
#include "core/refine.hpp"
#include "core/spmd_igp.hpp"
#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "runtime/net/transport.hpp"
#include "streams.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using pigp::AsyncSession;
using pigp::Session;
using pigp::SessionConfig;
using pigp::SessionReport;
using pigp::graph::Graph;
using pigp::graph::GraphDelta;
using pigp::graph::Partitioning;
using pigp::graph::PartitionState;
using pigp::graph::VertexId;

// --- the fixed workload shape (see README.md) ---
constexpr int kVertices = 400000;
/// The base graph is fixed (the 400k geometric graph of bench_speedup's
/// scaled workload); --seed drives the delta stream only, so run-to-run
/// spread measures the stream, not a different graph per seed.
constexpr std::uint64_t kGraphSeed = 9;
constexpr int kParts = 32;
constexpr int kBurst = 128;       ///< new vertices per local burst
constexpr int kBall = 64;         ///< BFS ball the burst attaches to
constexpr int kSetupRepeats = 3;  ///< set-ups per run; setup_s is their median
constexpr double kAsyncRate = 100.0;  ///< async_serve deltas per second
constexpr int kAsyncBatchBursts = 8;  ///< async_serve rebalance batch
/// Closed-loop stream lengths are fixed per second of --seconds, so every
/// count and quality metric repeats exactly at a fixed seed.  The rates are
/// roughly what a 4-core x86 box sustains on a short stream (the stalled
/// regime for append_local); churn_global slows as its random edges grow the
/// cut, so a 30-second stream measures for 30-40 s.
constexpr double kAppendRate = 3.0;
constexpr double kChurnRate = 350.0;
constexpr int kChurnRanks = 2;
constexpr double kChurnCompactionSlack = 0.02;

/// One generator stream per (workload, seed): the workload name salts the
/// seed so append_local and async_serve see the same bursts (they share
/// "local") while churn_global gets an independent stream.
std::uint64_t stream_seed(std::uint64_t seed, const std::string& family) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
  for (const char c : family) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  return h;
}

Graph make_base_graph() {
  return pigp::graph::random_geometric_graph(
      kVertices, 1.2 / std::sqrt(static_cast<double>(kVertices)), kGraphSeed);
}

SessionConfig workload_config(const std::string& workload) {
  SessionConfig config;
  config.num_parts = kParts;
  config.scratch_method = "rgb";
  config.num_threads = 1;
  if (workload == "append_local") {
    config.backend = "igpr";
    config.batch_policy = pigp::BatchPolicy::every_delta;
  } else if (workload == "churn_global") {
    config.backend = "spmd";
    config.spmd_ranks = kChurnRanks;
    config.spmd_transport = "tcp";
    config.graph_compaction = pigp::GraphCompaction::deferred;
    config.compaction_slack = kChurnCompactionSlack;
    config.batch_policy = pigp::BatchPolicy::vertex_count;
  } else {  // async_serve
    config.backend = "perfbench_igpr";
    config.batch_policy = pigp::BatchPolicy::vertex_count;
    config.batch_vertex_limit = kAsyncBatchBursts * kBurst;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Backend decorator: times every rebalance tick AsyncSession runs in the
// background (the only way to observe them from outside the session).

struct TickLog {
  std::mutex mutex;
  std::vector<double> tick_ms;
  /// Vertex count of each tick's snapshot: which deltas it covered.
  std::vector<VertexId> snapshot_vertices;
  std::int64_t unbalanced = 0;
};

TickLog& async_ticks() {
  static TickLog log;
  return log;
}

class TimedBackend final : public pigp::Backend {
 public:
  explicit TimedBackend(std::unique_ptr<pigp::Backend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "perfbench_igpr";
  }
  void trim_memory() override { inner_->trim_memory(); }

  [[nodiscard]] pigp::BackendResult repartition(
      const Graph& g_new, const Partitioning& old_partitioning,
      VertexId n_old) override {
    const double start = now_seconds();
    pigp::BackendResult out = inner_->repartition(g_new, old_partitioning, n_old);
    record(now_seconds() - start, out.balanced, g_new.num_vertices());
    return out;
  }

  [[nodiscard]] pigp::BackendResult repartition(
      const Graph& g_new, Partitioning& partitioning, VertexId n_old,
      PartitionState& state, pigp::core::Workspace& ws) override {
    const double start = now_seconds();
    pigp::BackendResult out =
        inner_->repartition(g_new, partitioning, n_old, state, ws);
    record(now_seconds() - start, out.balanced, g_new.num_vertices());
    return out;
  }

 private:
  static void record(double seconds, bool balanced, VertexId vertices) {
    TickLog& log = async_ticks();
    const std::lock_guard<std::mutex> lock(log.mutex);
    log.tick_ms.push_back(seconds * 1e3);
    log.snapshot_vertices.push_back(vertices);
    if (!balanced) ++log.unbalanced;
  }

  std::unique_ptr<pigp::Backend> inner_;
};

void register_timed_backend() {
  static std::once_flag once;
  std::call_once(once, [] {
    pigp::BackendRegistry::global().add(
        "perfbench_igpr", [](const pigp::ResolvedConfig& config) {
          return std::make_unique<TimedBackend>(
              pigp::BackendRegistry::global().create("igpr", config));
        });
  });
}

// ---------------------------------------------------------------------------
// SPMD executor decorator: counts bytes and messages, times the blocking
// receives and the loopback connection set-up of every tick.

struct NetTick {
  double bytes = 0.0;
  double messages = 0.0;
  double wait_s = 0.0;     ///< mean over ranks of time blocked in recv
  double compute_s = 0.0;  ///< mean over ranks of body time minus waiting
  double connect_s = 0.0;  ///< run() entry until the last rank started
};

class CountingTransport final : public pigp::net::Transport {
 public:
  explicit CountingTransport(pigp::net::Transport& inner) : inner_(inner) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }
  void send(int to, pigp::net::Packet packet) override {
    bytes += static_cast<double>(packet.size_bytes());
    messages += 1.0;
    inner_.send(to, std::move(packet));
  }
  [[nodiscard]] pigp::net::Packet recv(int from) override {
    const double start = now_seconds();
    pigp::net::Packet packet = inner_.recv(from);
    wait_s += now_seconds() - start;
    return packet;
  }

  double bytes = 0.0;
  double messages = 0.0;
  double wait_s = 0.0;

 private:
  pigp::net::Transport& inner_;
};

class CountingExecutor final : public pigp::core::SpmdExecutor {
 public:
  explicit CountingExecutor(std::unique_ptr<pigp::core::SpmdExecutor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_->num_ranks();
  }

  void run(const std::function<void(pigp::net::Transport&)>& body) override {
    const auto ranks = static_cast<std::size_t>(num_ranks());
    std::vector<double> entered(ranks, 0.0);
    std::vector<NetTick> per_rank(ranks);
    const double start = now_seconds();
    inner_->run([&](pigp::net::Transport& transport) {
      const auto r = static_cast<std::size_t>(transport.rank());
      entered[r] = now_seconds();
      CountingTransport counting(transport);
      body(counting);
      per_rank[r].bytes = counting.bytes;
      per_rank[r].messages = counting.messages;
      per_rank[r].wait_s = counting.wait_s;
      per_rank[r].compute_s = now_seconds() - entered[r] - counting.wait_s;
    });
    last = NetTick{};
    for (std::size_t r = 0; r < ranks; ++r) {
      last.bytes += per_rank[r].bytes;
      last.messages += per_rank[r].messages;
      last.wait_s += per_rank[r].wait_s / static_cast<double>(ranks);
      last.compute_s += per_rank[r].compute_s / static_cast<double>(ranks);
      last.connect_s = std::max(last.connect_s, entered[r] - start);
    }
  }

  NetTick last;

 private:
  std::unique_ptr<pigp::core::SpmdExecutor> inner_;
};

// ---------------------------------------------------------------------------
// The traced replay: the same stream, absorbed on the replay's own copy of
// the state through the layers' public functions, in the order
// Session::apply and repartition_in_place / balance_load call them.

struct LayerCounts {
  std::int64_t deltas = 0;
  std::int64_t ticks = 0;  ///< backend runs
  std::int64_t compactions = 0;
  /// extend_assignment_state calls the replay makes itself (absorb-time
  /// placement and flat ticks; the SPMD engine places inside its ranks).
  std::int64_t assign_calls = 0;
  double assign_placed = 0, layering_labeled = 0, deepenings = 0,
         exhausted = 0;
  double lp_solves = 0, lp_pivots = 0, lp_rows = 0, lp_vars = 0;
  double balance_stages = 0, unbalanced = 0;
  double transfer_moved = 0;
  double refine_rounds = 0, refine_pivots = 0, refine_moved = 0,
         refine_cut_gain = 0;
  NetTick net;  ///< summed over ticks
};

class Replay {
 public:
  Replay(const SessionConfig& config, Graph g, Partitioning p, Tracer& tracer)
      : resolved_(config.resolve()),
        g_(std::move(g)),
        p_(std::move(p)),
        tracer_(tracer) {
    state_.rebuild(g_, p_);
    if (resolved_.session.backend == "spmd") {
      pigp::net::TcpOptions tcp;
      tcp.send_timeout_ms = resolved_.session.spmd_timeout_ms;
      tcp.recv_timeout_ms = resolved_.session.spmd_timeout_ms;
      tcp.filters = resolved_.session.spmd_wire_filters;
      executor_ = std::make_unique<CountingExecutor>(
          std::make_unique<pigp::core::TcpLoopbackExecutor>(
              resolved_.session.spmd_ranks, std::move(tcp)));
    }
  }

  /// Mirror of Session::apply for one delta (every_delta and vertex_count
  /// batching, the policies the workloads use).
  void apply(const GraphDelta& delta) {
    Scope span(tracer_, "apply");
    counts_.deltas += 1;
    {
      Scope s(tracer_, "graph.validate");
      pigp::graph::validate_delta(g_, delta);
    }
    const auto added = static_cast<VertexId>(delta.added_vertices.size());
    std::int64_t removed_vertices = 0;
    {
      Scope s(tracer_, "graph.mutate");
      removed_vertices = mutate(delta);
    }
    bool compact = false;
    if (resolved_.session.graph_compaction == pigp::GraphCompaction::eager) {
      compact = delta.has_removals();
    } else {
      const double slack = resolved_.session.compaction_slack;
      const auto n_ids = static_cast<double>(g_.num_vertices());
      const auto cap = static_cast<double>(g_.adjacency_capacity());
      compact =
          static_cast<double>(g_.num_dead_vertices()) > slack * n_ids ||
          (cap > 0.0 &&
           static_cast<double>(g_.adjacency_slack()) > slack * cap);
    }
    if (compact) {
      Scope s(tracer_, "graph.compact");
      compact_now();
    }
    const VertexId n_old = g_.num_vertices() - added;
    p_.part.resize(static_cast<std::size_t>(n_old));
    pending_vertex_changes_ += added + removed_vertices;

    const pigp::BatchPolicy policy = resolved_.session.batch_policy;
    if (policy == pigp::BatchPolicy::every_delta ||
        (policy == pigp::BatchPolicy::vertex_count &&
         pending_vertex_changes_ >= resolved_.session.batch_vertex_limit)) {
      run_backend(n_old);
      pending_vertex_changes_ = 0;
    } else {
      assign(n_old, resolved_.assign);
    }
  }

  /// Mirror of a pure rebalance tick (Session::repartition, and the tick
  /// AsyncSession runs on a snapshot): every vertex is already placed.
  void rebalance() {
    Scope span(tracer_, "rebalance");
    run_backend(g_.num_vertices());
    pending_vertex_changes_ = 0;
  }

  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] const Partitioning& partitioning() const { return p_; }
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }

 private:
  /// Session::apply's in-place mutation block; returns removed vertices.
  std::int64_t mutate(const GraphDelta& delta) {
    std::int64_t removed = 0;
    for (const VertexId v : delta.removed_vertices) {
      if (!g_.is_live(v)) continue;
      state_.move_vertex(g_, p_, v, pigp::graph::kUnassigned);
      g_.remove_vertex(v);
      ++removed;
    }
    if (!delta.removed_edges.empty()) {
      std::vector<std::pair<VertexId, VertexId>> edges;
      for (const auto& [u, v] : delta.removed_edges) {
        edges.push_back(pigp::graph::canonical_edge(u, v));
      }
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      for (const auto& [u, v] : edges) {
        if (p_.part[static_cast<std::size_t>(u)] == pigp::graph::kUnassigned ||
            p_.part[static_cast<std::size_t>(v)] == pigp::graph::kUnassigned) {
          continue;
        }
        const double w = g_.remove_edge(u, v);
        state_.remove_edge(p_, u, v, w);
      }
    }
    for (const pigp::graph::VertexAddition& add : delta.added_vertices) {
      const VertexId self = g_.add_vertex(add.weight);
      p_.part.push_back(pigp::graph::kUnassigned);
      for (const auto& [endpoint, weight] : add.edges) {
        g_.insert_edge(self, endpoint, weight);
      }
    }
    state_.grow_vertices(g_.num_vertices());
    for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
      const auto [u, v] = delta.added_edges[i];
      const double w = delta.added_edge_weights.empty()
                           ? 1.0
                           : delta.added_edge_weights[i];
      if (g_.insert_edge(u, v, w)) {
        state_.add_edge(p_, u, v, w);
      } else {
        state_.adjust_edge_weight(p_, u, v, w);
      }
    }
    return removed;
  }

  void compact_now() {
    counts_.compactions += 1;
    const VertexId n = g_.num_vertices();
    const VertexId new_n = g_.compact(old_to_new_);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId nv = old_to_new_[static_cast<std::size_t>(v)];
      if (nv != pigp::graph::kInvalidVertex) {
        p_.part[static_cast<std::size_t>(nv)] =
            p_.part[static_cast<std::size_t>(v)];
      }
    }
    p_.part.resize(static_cast<std::size_t>(new_n));
    state_.remap_vertices(old_to_new_, new_n);
    ws_.invalidate_vertex_ids();
  }

  /// Step 1: place the vertices from \p n_old on.
  void assign(VertexId n_old, const pigp::core::AssignOptions& options) {
    Scope s(tracer_, "core.assign");
    pigp::core::extend_assignment_state(g_, p_, n_old, state_, ws_, options);
    counts_.assign_calls += 1;
    counts_.assign_placed += static_cast<double>(g_.num_vertices() - n_old);
  }

  void run_backend(VertexId n_old) {
    counts_.ticks += 1;
    if (executor_ != nullptr) {
      run_spmd(n_old);
    } else {
      run_flat(n_old);
    }
  }

  /// SpmdBackend's in-place tick.
  void run_spmd(VertexId n_old) {
    if (ws_.remap_generation != seen_remap_generation_) {
      for (pigp::core::Workspace& rank : rank_ws_) {
        rank.invalidate_vertex_ids();
      }
      seen_remap_generation_ = ws_.remap_generation;
    }
    Scope s(tracer_, "core.spmd_igp");
    const pigp::core::IgpResult result = pigp::core::spmd_repartition_in_place(
        *executor_, g_, p_, n_old, resolved_.igp, state_, ws_, rank_ws_);
    const NetTick& net = executor_->last;
    counts_.net.bytes += net.bytes;
    counts_.net.messages += net.messages;
    counts_.net.wait_s += net.wait_s;
    counts_.net.compute_s += net.compute_s;
    counts_.net.connect_s += net.connect_s;
    for (const pigp::core::BalanceStage& stage : result.balance_result.stages) {
      count_stage(stage);
    }
    if (!result.balanced) counts_.unbalanced += 1;
    counts_.refine_rounds += result.refine_stats.rounds;
    counts_.refine_pivots += static_cast<double>(result.refine_stats.lp_iterations);
    counts_.refine_moved += static_cast<double>(result.refine_stats.vertices_moved);
    counts_.refine_cut_gain +=
        result.refine_stats.cut_before - result.refine_stats.cut_after;
  }

  /// IncrementalPartitioner::repartition_in_place with balance_load
  /// unrolled into its layer calls.
  void run_flat(VertexId n_old) {
    const pigp::core::IgpOptions& options = resolved_.igp;
    pigp::core::AssignOptions assign_options;
    assign_options.num_threads = options.num_threads;
    assign(n_old, assign_options);
    bool balanced = false;
    {
      Scope s(tracer_, "core.balance");
      balanced = balance(options.balance);
    }
    if (!balanced) counts_.unbalanced += 1;
    if (options.refine) {
      Scope s(tracer_, "core.refine");
      const pigp::core::RefineStats stats = pigp::core::refine_partitioning(
          g_, p_, state_, options.refinement, &ws_);
      counts_.refine_rounds += stats.rounds;
      counts_.refine_pivots += static_cast<double>(stats.lp_iterations);
      counts_.refine_moved += static_cast<double>(stats.vertices_moved);
      counts_.refine_cut_gain += stats.cut_before - stats.cut_after;
    }
  }

  /// core::balance_load (state + workspace overload), step by step.
  bool balance(const pigp::core::BalanceOptions& options) {
    const auto parts = static_cast<std::size_t>(p_.num_parts);
    pigp::graph::balance_targets_into(g_.total_vertex_weight(), p_.num_parts,
                                      targets_);
    excess_.assign(parts, 0.0);
    pigp::core::BoundaryLayering& layering = ws_.layering;
    const auto deviation = [&] {
      double max_dev = 0.0;
      for (std::size_t q = 0; q < parts; ++q) {
        excess_[q] = state_.weights()[q] - targets_[q];
        max_dev = std::max(max_dev, std::abs(excess_[q]));
      }
      return max_dev;
    };
    for (int stage = 0; stage < options.max_stages; ++stage) {
      if (deviation() <= options.tolerance) return true;
      const int cap = options.max_layers;
      int grow_step = cap;
      pigp::core::BalanceOptions one_shot = options;
      one_shot.alpha_max = 1.0;
      pigp::core::StageDecision decision;
      {
        Scope s(tracer_, "core.layering.seed");
        if (stage == 0) layering.bind(g_, p_);
        layering.reseed(state_, options.num_threads);
      }
      {
        Scope s(tracer_, "core.layering.grow");
        layering.grow(cap == 0 ? -1 : cap, options.num_threads);
      }
      while (true) {
        const bool full = layering.exhausted();
        {
          Scope s(tracer_, "lp.stage_alpha");
          decision = pigp::core::decide_stage_moves_alpha(
              layering.eps(), excess_, full ? options : one_shot);
        }
        counts_.lp_solves += 1;
        if (full || decision.lp_feasible) break;
        Scope s(tracer_, "core.layering.grow");
        layering.grow(grow_step, options.num_threads);
        grow_step *= 2;
        counts_.deepenings += 1;
      }
      if (layering.exhausted()) counts_.exhausted += 1;
      for (pigp::graph::PartId q = 0; q < p_.num_parts; ++q) {
        counts_.layering_labeled +=
            static_cast<double>(layering.labeled(q).size());
      }
      if (!decision.lp_feasible) {
        {
          Scope s(tracer_, "lp.best_effort");
          decision = pigp::core::best_effort_stage_moves(layering.eps(),
                                                         excess_, options);
        }
        counts_.lp_solves += 1;
      }
      if (!decision.progress) return false;
      count_stage(decision.stats);
      Scope s(tracer_, "core.transfer");
      pigp::core::apply_balance_transfers(g_, p_, layering, decision.moves,
                                          state_);
    }
    return deviation() <= options.tolerance;
  }

  /// One balance stage that moved vertices: its LP and its transfers.
  void count_stage(const pigp::core::BalanceStage& stage) {
    counts_.balance_stages += 1;
    counts_.lp_pivots += static_cast<double>(stage.lp_iterations);
    counts_.lp_rows += stage.lp_rows;
    counts_.lp_vars += stage.lp_variables;
    counts_.transfer_moved += stage.vertices_moved;
  }

  pigp::ResolvedConfig resolved_;
  Graph g_;
  Partitioning p_;
  PartitionState state_;
  pigp::core::Workspace ws_;
  std::vector<pigp::core::Workspace> rank_ws_;
  std::uint64_t seen_remap_generation_ = 0;
  std::unique_ptr<CountingExecutor> executor_;
  std::int64_t pending_vertex_changes_ = 0;
  std::vector<VertexId> old_to_new_;
  std::vector<double> targets_;
  std::vector<double> excess_;
  Tracer& tracer_;
  LayerCounts counts_;
};

// ---------------------------------------------------------------------------
// Shared result plumbing.

class MetricSink {
 public:
  explicit MetricSink(std::vector<Metric>& out) : out_(out) {}
  void add(const std::string& name, double value, const std::string& unit) {
    out_.push_back({name, value, unit, true});
  }
  void absent(const std::string& name, const std::string& unit) {
    out_.push_back({name, 0.0, unit, false});
  }
  /// Percentile metric, absent when there is no sample.
  void pct(const std::string& name, const std::vector<double>& samples,
           double q, const std::string& unit) {
    if (samples.empty()) {
      absent(name, unit);
    } else {
      add(name, percentile(samples, q), unit);
    }
  }

 private:
  std::vector<Metric>& out_;
};

/// Relative equality for maintained-vs-recounted metrics.
bool close_to(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The maintained summary must equal a compute_metrics recount, and the
/// graph and partitioning must validate.
void check_final_state(const Graph& g, const Partitioning& p,
                       const pigp::graph::PartitionSummary& maintained,
                       RunResult& result) {
  try {
    g.validate();
    p.validate(g);
  } catch (const std::exception& e) {
    result.check_failures.push_back(std::string("validate: ") + e.what());
    return;
  }
  const pigp::graph::PartitionMetrics recount =
      pigp::graph::compute_metrics(g, p);
  if (!close_to(recount.cut_total, maintained.cut_total) ||
      !close_to(recount.max_weight, maintained.max_weight) ||
      !close_to(recount.min_weight, maintained.min_weight) ||
      !close_to(recount.imbalance, maintained.imbalance)) {
    std::ostringstream msg;
    msg << "maintained summary (cut " << maintained.cut_total << ", imbalance "
        << maintained.imbalance << ") differs from compute_metrics (cut "
        << recount.cut_total << ", imbalance " << recount.imbalance << ")";
    result.check_failures.push_back(msg.str());
  }
}

/// The first \p count local bursts of the stream \p seed, generated on
/// \p graph, which ends up grown by all of them.
std::vector<GraphDelta> local_bursts(std::uint64_t seed, std::size_t count,
                                     Graph& graph) {
  LocalBurstGenerator bursts(stream_seed(seed, "local"), kBurst, kBall);
  std::vector<GraphDelta> deltas;
  for (std::size_t i = 0; i < count; ++i) {
    GraphDelta delta = bursts.next(graph);
    for (const pigp::graph::VertexAddition& add : delta.added_vertices) {
      const VertexId self = graph.add_vertex(add.weight);
      for (const auto& [endpoint, weight] : add.edges) {
        graph.insert_edge(self, endpoint, weight);
      }
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

/// End-to-end samples of one run.
struct Samples {
  std::vector<double> tick_ms, absorb_us, fresh_ms;
  double busy_s = 0.0;      ///< time inside the session's calls
  double deltas_per_s = 0.0;
  double lookups_per_s = 0.0;
  std::int64_t unbalanced = 0;
};

void report_end_to_end(const std::vector<double>& setup, const Samples& s,
                       const pigp::graph::PartitionSummary& final_summary,
                       RunResult& result) {
  MetricSink e2e(result.end_to_end);
  e2e.add("setup_s", median(setup), "s");
  e2e.add("deltas_per_s", s.deltas_per_s, "1/s");
  e2e.pct("tick_ms.p50", s.tick_ms, 0.5, "ms");
  e2e.pct("tick_ms.p90", s.tick_ms, 0.9, "ms");
  e2e.pct("absorb_us.p50", s.absorb_us, 0.5, "us");
  e2e.pct("absorb_us.p99", s.absorb_us, 0.99, "us");
  e2e.pct("freshness_ms.p50", s.fresh_ms, 0.5, "ms");
  e2e.pct("freshness_ms.p99", s.fresh_ms, 0.99, "ms");
  if (s.lookups_per_s > 0.0) {
    e2e.add("lookups_per_s", s.lookups_per_s, "1/s");
  } else {
    e2e.absent("lookups_per_s", "1/s");
  }
  e2e.add("final_cut", final_summary.cut_total, "edges");
  e2e.add("final_imbalance", final_summary.imbalance, "ratio");
  if (s.tick_ms.empty()) {
    e2e.absent("unbalanced_ticks", "share");
  } else {
    e2e.add("unbalanced_ticks",
            static_cast<double>(s.unbalanced) /
                static_cast<double>(s.tick_ms.size()),
            "share");
  }
  e2e.add("peak_rss_mb", peak_rss_mb(), "MiB");
  std::cout << "samples: ticks " << s.tick_ms.size() << ", absorbs "
            << s.absorb_us.size() << ", freshness " << s.fresh_ms.size()
            << "\n";
}

/// Per-layer metrics from the replay's counters and spans.
void report_per_layer(const LayerCounts& c, const Tracer& tracer,
                      double initial_partition_s, double construct_s,
                      RunResult& result) {
  const std::map<std::string, SpanTotals> t = tracer.totals();
  const auto total_s = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  const double ticks = std::max<double>(1.0, static_cast<double>(c.ticks));
  const double deltas = std::max<double>(1.0, static_cast<double>(c.deltas));
  const double stages = std::max(1.0, c.balance_stages);
  const bool spmd = c.net.messages > 0.0;
  const bool flat = !spmd && c.ticks > 0;
  MetricSink m(result.per_layer);
  m.add("spectral.initial_partition_s", initial_partition_s, "s");
  m.add("api.session.construct_s", construct_s, "s");
  m.add("graph.validate_us", total_s("graph.validate") / deltas * 1e6, "us");
  m.add("graph.mutate_us", total_s("graph.mutate") / deltas * 1e6, "us");
  if (c.compactions > 0) {
    m.add("graph.compact_ms",
          total_s("graph.compact") / static_cast<double>(c.compactions) * 1e3,
          "ms");
  } else {
    m.absent("graph.compact_ms", "ms");
  }
  m.add("graph.compactions", static_cast<double>(c.compactions), "count");
  // The flat layers are only callable one by one on the flat pipeline; the
  // SPMD engine runs them inside its rank threads.
  const auto flat_ms = [&](const char* metric, double seconds) {
    if (flat) {
      m.add(metric, seconds / ticks * 1e3, "ms");
    } else {
      m.absent(metric, "ms");
    }
  };
  const auto flat_count = [&](const char* metric, double value) {
    if (flat) {
      m.add(metric, value, "count");
    } else {
      m.absent(metric, "count");
    }
  };
  const auto tick_count = [&](const char* metric, double value) {
    if (c.ticks > 0) {
      m.add(metric, value, "count");
    } else {
      m.absent(metric, "count");
    }
  };
  if (c.assign_calls > 0) {
    const auto calls = static_cast<double>(c.assign_calls);
    m.add("core.assign.ms", total_s("core.assign") / calls * 1e3, "ms");
    m.add("core.assign.placed", c.assign_placed / calls, "count");
  } else {
    m.absent("core.assign.ms", "ms");
    m.absent("core.assign.placed", "count");
  }
  flat_ms("core.layering.ms",
          total_s("core.layering.seed") + total_s("core.layering.grow"));
  flat_count("core.layering.labeled", c.layering_labeled / ticks);
  flat_count("core.layering.deepenings", c.deepenings / ticks);
  flat_count("core.layering.exhausted", c.exhausted / ticks);
  flat_ms("lp.ms", total_s("lp.stage_alpha") + total_s("lp.best_effort"));
  flat_count("lp.solves", c.lp_solves / ticks);
  tick_count("lp.pivots", c.lp_pivots / ticks);
  tick_count("lp.rows", c.lp_rows / stages);
  tick_count("lp.vars", c.lp_vars / stages);
  tick_count("core.balance.stages", c.balance_stages / ticks);
  tick_count("core.balance.unbalanced", c.unbalanced);
  flat_ms("core.transfer.ms", total_s("core.transfer"));
  tick_count("core.transfer.moved", c.transfer_moved / ticks);
  flat_ms("core.refine.ms", total_s("core.refine"));
  tick_count("core.refine.rounds", c.refine_rounds / ticks);
  tick_count("core.refine.pivots", c.refine_pivots / ticks);
  tick_count("core.refine.moved", c.refine_moved / ticks);
  tick_count("core.refine.cut_gain", c.refine_cut_gain / ticks);
  if (spmd) {
    m.add("runtime.net.bytes", c.net.bytes / ticks, "bytes");
    m.add("runtime.net.messages", c.net.messages / ticks, "count");
    m.add("runtime.net.wait_ms", c.net.wait_s / ticks * 1e3, "ms");
    m.add("runtime.net.connect_ms", c.net.connect_s / ticks * 1e3, "ms");
    m.add("core.spmd_igp.compute_ms", c.net.compute_s / ticks * 1e3, "ms");
  } else {
    // No SPMD tick: nothing went over the wire.
    m.add("runtime.net.bytes", 0.0, "bytes");
    m.add("runtime.net.messages", 0.0, "count");
    m.absent("runtime.net.wait_ms", "ms");
    m.absent("runtime.net.connect_ms", "ms");
    m.absent("core.spmd_igp.compute_ms", "ms");
  }
}

void print_self_times(const Tracer& tracer, std::int64_t ticks) {
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  double self_sum = 0.0;
  double root_sum = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0) root_sum += span.end - span.start;
  }
  std::cout << "per-layer self time (traced replay, " << ticks
            << " backend ticks):\n";
  std::cout << "  " << std::left << std::setw(22) << "span" << std::right
            << std::setw(8) << "calls" << std::setw(12) << "total_ms"
            << std::setw(12) << "self_ms" << "\n";
  for (const auto& [name, t] : totals) {
    std::cout << "  " << std::left << std::setw(22) << name << std::right
              << std::setw(8) << t.calls << std::fixed << std::setprecision(1)
              << std::setw(12) << t.total_s * 1e3 << std::setw(12)
              << t.self_s * 1e3 << "\n";
    self_sum += t.self_s;
  }
  std::cout << "  sum of self times " << self_sum * 1e3
            << " ms; traced time of the apply/rebalance calls " << root_sum * 1e3
            << " ms (their own self time is the untraced remainder)\n";
  std::cout.unsetf(std::ios::fixed);
}

/// The traced replay of a recorded stream; returns the traced wall time.
/// \p rebalance_after lists (ascending) the delta counts after which a pure
/// rebalance tick runs, on top of the configured batch policy.
double traced_replay(const RunOptions& options, const SessionConfig& config,
                     const Graph& base, const Partitioning& initial,
                     const std::vector<GraphDelta>& stream,
                     const std::vector<std::size_t>& rebalance_after,
                     RunResult& result,
                     const std::function<void(const Replay&)>& compare) {
  // Set-up layers, measured once each on copies of the inputs.
  double initial_partition_s = 0.0;
  {
    const pigp::ResolvedConfig resolved = config.resolve();
    const double start = now_seconds();
    const Partitioning scratch = pigp::partition_from_scratch(base, resolved);
    initial_partition_s = now_seconds() - start;
    if (scratch.part != initial.part) {
      result.check_failures.push_back(
          "partition_from_scratch is not deterministic for this graph");
    }
  }
  double construct_s = 0.0;
  {
    Graph copy = base;
    const double start = now_seconds();
    const Session session(config, std::move(copy), initial);
    construct_s = now_seconds() - start;
  }

  Tracer tracer(stream.size() * 64 + 1024);
  Replay replay(config, base, initial, tracer);
  const double start = now_seconds();
  auto next_rebalance = rebalance_after.begin();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    tracer.set_tick(static_cast<int>(i));
    replay.apply(stream[i]);
    while (next_rebalance != rebalance_after.end() && *next_rebalance == i + 1) {
      replay.rebalance();
      ++next_rebalance;
    }
  }
  const double traced_s = now_seconds() - start;
  compare(replay);

  report_per_layer(replay.counts(), tracer, initial_partition_s, construct_s,
                   result);
  print_self_times(tracer, replay.counts().ticks);
  const std::string path =
      options.out_dir + "/trace-" + options.workload + "-" +
      std::to_string(options.seed) + ".json";
  tracer.write_chrome_trace(path);
  std::cout << "chrome trace: " << path << " (" << tracer.spans().size()
            << " spans)\n";
  return traced_s;
}

// ---------------------------------------------------------------------------
// Closed-loop workloads: append_local and churn_global.

RunResult run_closed_loop(const RunOptions& options) {
  RunResult result;
  const SessionConfig config = workload_config(options.workload);
  const Graph base = make_base_graph();

  std::vector<double> setup;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    Graph copy = base;
    const double start = now_seconds();
    session = std::make_unique<Session>(config, std::move(copy));
    setup.push_back(now_seconds() - start);
  }
  const Partitioning initial = session->partitioning();

  const bool local = options.workload == "append_local";
  const auto deltas = static_cast<std::int64_t>(std::max(
      1.0, std::floor((local ? kAppendRate : kChurnRate) * options.seconds)));
  LocalBurstGenerator bursts(stream_seed(options.seed, "local"), kBurst, kBall);
  ChurnGenerator churn(stream_seed(options.seed, "churn"), base.num_vertices());
  std::vector<GraphDelta> stream;  // kept for the traced replay
  Samples s;
  std::int64_t compactions = 0;
  while (result.attempted < deltas) {
    GraphDelta delta = local ? bursts.next(session->graph())
                             : churn.next(session->graph());
    if (options.trace) stream.push_back(delta);
    result.attempted += 1;
    SessionReport report;
    const double t0 = now_seconds();
    try {
      report = session->apply(delta);
    } catch (const std::exception& e) {
      result.failed += 1;
      std::cout << "apply failed: " << e.what() << "\n";
      if (options.trace) stream.pop_back();
      continue;
    }
    const double dt = now_seconds() - t0;
    s.busy_s += dt;
    if (report.repartitioned) {
      s.tick_ms.push_back(dt * 1e3);
      if (!report.balanced) s.unbalanced += 1;
    } else {
      s.absorb_us.push_back(dt * 1e6);
    }
    // Closed loop: the delta is due when the call starts and visible to
    // every reader of the session when it returns.
    s.fresh_ms.push_back(dt * 1e3);
    if (!local) {
      if (report.compacted) {
        churn.remap(session->last_compaction());
        compactions += 1;
      }
      churn.absorbed(session->graph(),
                     static_cast<int>(delta.added_vertices.size()));
    }
  }
  const std::int64_t applied = result.attempted - result.failed;
  s.deltas_per_s = s.busy_s > 0.0 ? static_cast<double>(applied) / s.busy_s : 0.0;
  std::cout << "closed loop, 1 client, fixed stream: " << applied << " deltas in "
            << s.busy_s << " s of apply() time, " << compactions
            << " compactions\n";

  check_final_state(session->graph(), session->partitioning(),
                    session->summary(), result);
  report_end_to_end(setup, s, session->summary(), result);

  if (options.trace) {
    const double traced_s = traced_replay(
        options, config, base, initial, stream, {}, result,
        [&](const Replay& replay) {
          const bool same = replay.partitioning().part ==
                                session->partitioning().part &&
                            replay.graph() == session->graph();
          std::cout << "traced replay bit-identical to the untraced run: "
                    << (same ? "yes" : "NO") << "\n";
          if (!same) {
            result.check_failures.push_back(
                "traced replay diverged from the untraced run");
          }
        });
    std::cout << std::fixed << std::setprecision(1)
              << "tracing overhead: traced " << traced_s * 1e3
              << " ms - untraced " << s.busy_s * 1e3 << " ms = "
              << (traced_s - s.busy_s) * 1e3 << " ms ("
              << (traced_s / s.busy_s - 1.0) * 100.0 << "%)\n";
    std::cout.unsetf(std::ios::fixed);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Open-loop workload: async_serve.

RunResult run_async(const RunOptions& options) {
  register_timed_backend();
  RunResult result;
  const SessionConfig config = workload_config(options.workload);
  const Graph base = make_base_graph();

  // Pre-generate the schedule on a mirror of the graph, so the generator
  // never runs late because of its own work.  Same seed family as
  // append_local: the bursts are identical.
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(kAsyncRate * options.seconds)));
  Graph mirror = base;
  std::vector<GraphDelta> stream = local_bursts(options.seed, count, mirror);

  std::vector<double> setup;
  std::unique_ptr<AsyncSession> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    Graph copy = base;
    const double start = now_seconds();
    session = std::make_unique<AsyncSession>(config, std::move(copy));
    setup.push_back(now_seconds() - start);
  }
  const std::shared_ptr<const pigp::PartitionView> first = session->view();
  const Partitioning initial{first->assignment(), kParts};
  {
    TickLog& log = async_ticks();
    const std::lock_guard<std::mutex> lock(log.mutex);
    log.tick_ms.clear();
    log.snapshot_vertices.clear();
    log.unbalanced = 0;
  }

  // Schedule: delta i is due at t0 + i / rate and covers the vertex ids
  // [n0 + i * burst, n0 + (i + 1) * burst).
  const double t0 = now_seconds() + 0.05;
  std::vector<double> due(count);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = t0 + static_cast<double>(i) / kAsyncRate;
  }
  const VertexId n0 = base.num_vertices();
  std::vector<double> fresh(count, -1.0);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> resolved{0};
  double acquire_s = 0.0;
  std::int64_t acquires = 0;
  std::int64_t lookups = 0;
  std::int64_t bad_lookups = 0;
  double reader_s = 0.0;
  std::thread reader([&] {
    pigp::SplitMix64 rng(stream_seed(options.seed, "reader"));
    std::shared_ptr<const pigp::PartitionView> view = session->view();
    std::uint64_t seen = view->epoch();
    std::size_t next = 0;
    const double begin = now_seconds();
    while (!stop.load(std::memory_order_acquire)) {
      if (session->epoch() != seen) {
        const double a = now_seconds();
        view = session->view();
        const double b = now_seconds();
        acquire_s += b - a;
        acquires += 1;
        seen = view->epoch();
        const VertexId covered = view->num_vertices();
        while (next < count &&
               n0 + static_cast<VertexId>((next + 1) * kBurst) <= covered) {
          fresh[next] = b - due[next];
          ++next;
        }
        resolved.store(next, std::memory_order_release);
      }
      const auto n = static_cast<std::uint64_t>(view->num_vertices());
      for (int k = 0; k < 256; ++k) {
        const pigp::graph::PartId q =
            view->part_of(static_cast<VertexId>(rng.next_below(n)));
        if (q < 0 || q >= kParts) ++bad_lookups;
      }
      lookups += 256;
    }
    reader_s = now_seconds() - begin;
  });

  double max_late = 0.0;
  double submit_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    while (now_seconds() < due[i]) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double a = now_seconds();
    max_late = std::max(max_late, a - due[i]);
    result.attempted += 1;
    try {
      session->submit(std::move(stream[i]));
    } catch (const std::exception& e) {
      result.failed += 1;
      std::cout << "submit failed: " << e.what() << "\n";
    }
    submit_s += now_seconds() - a;
  }
  try {
    session->flush();
  } catch (const std::exception& e) {
    result.check_failures.push_back(std::string("flush: ") + e.what());
  }
  const double done = now_seconds();
  while (resolved.load(std::memory_order_acquire) < count &&
         now_seconds() - done < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  const pigp::AsyncStats stats = session->stats();
  result.failed += stats.deltas_rejected + stats.rebalance_failures;
  if (bad_lookups > 0) {
    result.check_failures.push_back("part_of returned an out-of-range part");
  }
  Samples s;
  for (const double f : fresh) {
    if (f >= 0.0) s.fresh_ms.push_back(f * 1e3);
  }
  if (s.fresh_ms.size() != count) {
    result.check_failures.push_back("not every delta reached a published view");
  }
  s.deltas_per_s = static_cast<double>(stats.deltas_absorbed) / (done - t0);
  s.lookups_per_s = reader_s > 0.0 ? static_cast<double>(lookups) / reader_s : 0.0;
  std::vector<std::size_t> rebalance_after;
  {
    TickLog& log = async_ticks();
    const std::lock_guard<std::mutex> lock(log.mutex);
    s.tick_ms = log.tick_ms;
    s.unbalanced = log.unbalanced;
    for (const VertexId n : log.snapshot_vertices) {
      rebalance_after.push_back(static_cast<std::size_t>((n - n0) / kBurst));
    }
  }

  // Open-loop hygiene: lateness of the generator, queue depth, and whether
  // the backlog grew over the run (late deltas waiting much longer than
  // early ones) — such a run is not a steady open loop.
  const std::size_t quarter = std::max<std::size_t>(1, s.fresh_ms.size() / 4);
  const double early = median(std::vector<double>(
      s.fresh_ms.begin(), s.fresh_ms.begin() + static_cast<std::ptrdiff_t>(quarter)));
  const double late = median(std::vector<double>(
      s.fresh_ms.end() - static_cast<std::ptrdiff_t>(quarter), s.fresh_ms.end()));
  const bool backlog = late > 4.0 * early + 5.0;
  std::cout << "open loop, " << kAsyncRate << " deltas/s offered: generator max lateness "
            << max_late * 1e3 << " ms, queue high watermark "
            << stats.queue_high_watermark << " of " << config.async_queue_capacity
            << ", freshness p50 first quarter " << early << " ms / last quarter "
            << late << " ms, backlog grew: " << (backlog ? "YES" : "no") << "\n";
  if (backlog) {
    std::cout << "WARNING: the backlog grew during the run; the offered rate is "
                 "above what the session sustains, so these figures describe "
                 "an overloaded open loop\n";
  }

  const std::shared_ptr<const pigp::PartitionView> last = session->view();
  const Partitioning final_p{last->assignment(), kParts};
  check_final_state(mirror, final_p, last->summary(), result);
  report_end_to_end(setup, s, last->summary(), result);

  if (options.trace) {
    // The replay absorbs the same bursts and rebalances after the same
    // deltas the asynchronous run's snapshots covered.  Deltas that arrived
    // while a background tick ran were placed against the pre-tick
    // partition there and against the rebalanced one here, so this is a
    // per-layer breakdown of the same work, not a bit-identity oracle.
    SessionConfig replay_config = config;
    replay_config.backend = "igpr";
    // Rebalance only where the asynchronous run did.
    replay_config.batch_vertex_limit = std::numeric_limits<int>::max();
    Graph again = base;
    stream = local_bursts(options.seed, count, again);  // submit() took them
    (void)traced_replay(options, replay_config, base, initial, stream,
                        rebalance_after, result, [](const Replay&) {});
    std::cout << "tracing overhead: n/a (the replay is synchronous; the "
                 "untraced run is asynchronous)\n";
  }
  MetricSink layer(result.per_layer);
  layer.add("api.async_session.submit_block_us",
            submit_s / static_cast<double>(count) * 1e6, "us");
  layer.add("api.async_session.queue_high_watermark",
            static_cast<double>(stats.queue_high_watermark), "count");
  layer.add("api.async_session.epochs_published",
            static_cast<double>(stats.epochs_published), "count");
  layer.add("api.async_session.rebalances_committed",
            static_cast<double>(stats.rebalances_committed), "count");
  layer.add("api.async_session.commits_discarded",
            static_cast<double>(stats.commits_discarded), "count");
  layer.add("api.async_session.deltas_per_commit",
            static_cast<double>(stats.deltas_absorbed) /
                std::max<double>(1.0, static_cast<double>(stats.rebalances_committed)),
            "count");
  layer.add("api.async_session.view_acquire_us",
            acquires > 0 ? acquire_s / static_cast<double>(acquires) * 1e6 : 0.0,
            "us");
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"append_local", "churn_global",
                                                 "async_serve"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "async_serve") return run_async(options);
  RunResult result = run_closed_loop(options);
  // The async layer is not exercised by the closed-loop workloads.
  MetricSink layer(result.per_layer);
  for (const char* name :
       {"api.async_session.submit_block_us", "api.async_session.queue_high_watermark",
        "api.async_session.epochs_published", "api.async_session.rebalances_committed",
        "api.async_session.commits_discarded", "api.async_session.deltas_per_commit",
        "api.async_session.view_acquire_us"}) {
    layer.absent(name, std::string(name).ends_with("_us") ? "us" : "count");
  }
  return result;
}

}  // namespace perfbench
