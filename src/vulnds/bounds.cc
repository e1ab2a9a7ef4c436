#include "vulnds/bounds.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace vulnds {

namespace {

// Change threshold below which a value counts as "not updated"; keeps the
// change-propagation sparse on converged regions.
constexpr double kChangeEps = 1e-12;

// Below this many nodes + arcs a sweep runs on the calling thread: one
// ParallelFor round (about 25 us on a 4-core x86-64 VM) costs more than the
// whole sweep there. Measured at order 2 on that VM with 4 threads, Citation
// (5.6k) took 52-83 us serially against 103-108 us on the pool, Bitcoin
// (28k) 186-292 us against 159-180. Execution-only, like the pool itself.
constexpr std::size_t kParallelSweepMinWork = std::size_t{1} << 13;

Status ValidateOrder(int order) {
  if (order < 1) {
    return Status::InvalidArgument("bound order must be >= 1, got " +
                                   std::to_string(order));
  }
  return Status::OK();
}

// Runs fn(begin, end) over a partition of the node ids [0, n): one task per
// pool worker when the graph is large enough to pay for the round, else
// fn(0, n) inline. Each call writes only its own nodes' slots, so the
// parallel sweep is race-free and bit-identical to the serial order.
template <typename Fn>
void SweepNodes(const UncertainGraph& graph, ThreadPool* pool, const Fn& fn) {
  const std::size_t n = graph.num_nodes();
  if (pool == nullptr || pool->num_threads() <= 1 ||
      n + graph.num_edges() < kParallelSweepMinWork) {
    fn(std::size_t{0}, n);
    return;
  }
  const std::size_t tasks = std::min(pool->num_threads(), n);
  const std::size_t chunk = (n + tasks - 1) / tasks;
  pool->ParallelFor(tasks, [&](std::size_t w) {
    fn(w * chunk, std::min(n, (w + 1) * chunk));
  });
}

// One bound's Jacobi state: iteration i reads `probs` and `changed` (the
// values and change flags of iteration i - 1) and writes `next` and
// `next_changed`.
struct Recurrence {
  explicit Recurrence(std::vector<double> order_one)
      : probs(std::move(order_one)) {}

  std::vector<double> probs;
  std::vector<double> next;
  std::vector<char> changed;
  std::vector<char> next_changed;
  bool converged = false;

  // Iteration-i value of node v: re-evaluated only when an in-neighbor
  // changed in the previous iteration, exactly as the pseudo-code says.
  void Update(const UncertainGraph& graph, NodeId v) {
    bool in_changed = false;
    for (const Arc& arc : graph.InArcs(v)) {
      if (changed[arc.neighbor]) {
        in_changed = true;
        break;
      }
    }
    if (!in_changed) {
      next[v] = probs[v];
      next_changed[v] = 0;
      return;
    }
    const double updated = EquationOne(graph, v, probs);
    next_changed[v] = std::fabs(updated - probs[v]) > kChangeEps ? 1 : 0;
    next[v] = updated;
  }

  // Ends iteration i; the `any`-changed flag is reduced serially in
  // ascending node order, so the early-fixpoint exit falls on the same
  // iteration for every thread count.
  void Advance() {
    converged =
        std::find(next_changed.begin(), next_changed.end(), 1) ==
        next_changed.end();
    probs.swap(next);
    changed.swap(next_changed);
  }
};

// Runs iterations 2..order of every recurrence in `recs`, one sweep per
// iteration over the nodes, each node updating every bound that has not
// reached its fixpoint. A bound's values and early exit depend only on its
// own state, so iterating several together equals iterating each alone.
template <std::size_t N>
void IterateEquationOne(const UncertainGraph& graph, int order,
                        Recurrence* const (&recs)[N], ThreadPool* pool) {
  if (order < 2) return;
  const std::size_t n = graph.num_nodes();
  for (Recurrence* r : recs) {
    r->next.assign(n, 0.0);
    r->changed.assign(n, 1);  // everything counts as updated at order 1
    r->next_changed.assign(n, 0);
  }
  for (int i = 2; i <= order; ++i) {
    Recurrence* live[N];
    std::size_t num_live = 0;
    for (Recurrence* r : recs) {
      if (!r->converged) live[num_live++] = r;
    }
    if (num_live == 0) break;  // every fixpoint reached before `order`
    SweepNodes(graph, pool, [&](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        for (std::size_t b = 0; b < num_live; ++b) {
          live[b]->Update(graph, static_cast<NodeId>(v));
        }
      }
    });
    for (std::size_t b = 0; b < num_live; ++b) live[b]->Advance();
  }
}

// Order 1 of Algorithm 2 (lines 2-4): the self-risk alone.
std::vector<double> LowerOrderOne(const UncertainGraph& graph) {
  return std::vector<double>(graph.self_risks().begin(),
                             graph.self_risks().end());
}

// Order 1 of Algorithm 3 (lines 3-4): every in-neighbor treated as
// defaulted with probability 1.
std::vector<double> UpperOrderOne(const UncertainGraph& graph,
                                  ThreadPool* pool) {
  std::vector<double> probs(graph.num_nodes(), 0.0);
  SweepNodes(graph, pool, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      double survive = 1.0;
      for (const Arc& arc : graph.InArcs(static_cast<NodeId>(v))) {
        survive *= 1.0 - arc.prob;
      }
      probs[v] =
          1.0 - (1.0 - graph.self_risk(static_cast<NodeId>(v))) * survive;
    }
  });
  return probs;
}

}  // namespace

double EquationOne(const UncertainGraph& graph, NodeId v,
                   const std::vector<double>& probs) {
  double survive = 1.0;
  for (const Arc& arc : graph.InArcs(v)) {
    survive *= 1.0 - arc.prob * probs[arc.neighbor];
  }
  return 1.0 - (1.0 - graph.self_risk(v)) * survive;
}

Result<std::vector<double>> LowerBounds(const UncertainGraph& graph, int order,
                                        ThreadPool* pool) {
  VULNDS_RETURN_NOT_OK(ValidateOrder(order));
  Recurrence lower(LowerOrderOne(graph));
  IterateEquationOne(graph, order, {&lower}, pool);
  return std::move(lower.probs);
}

Result<std::vector<double>> UpperBounds(const UncertainGraph& graph, int order,
                                        ThreadPool* pool) {
  VULNDS_RETURN_NOT_OK(ValidateOrder(order));
  Recurrence upper(UpperOrderOne(graph, pool));
  IterateEquationOne(graph, order, {&upper}, pool);
  return std::move(upper.probs);
}

Result<DefaultBounds> Bounds(const UncertainGraph& graph, int order,
                             ThreadPool* pool) {
  VULNDS_RETURN_NOT_OK(ValidateOrder(order));
  Recurrence lower(LowerOrderOne(graph));
  Recurrence upper(UpperOrderOne(graph, pool));
  IterateEquationOne(graph, order, {&lower, &upper}, pool);
  return DefaultBounds{std::move(lower.probs), std::move(upper.probs)};
}

}  // namespace vulnds
