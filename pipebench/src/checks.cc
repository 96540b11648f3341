#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

namespace pipebench {

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (first_failures.size() < 8) first_failures.push_back(what);
}

bool ReadEdgeFile(const std::string& path, bool weighted, EdgeFile* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  struct Row {
    uint32_t u, v;
    double w;
  };
  std::vector<Row> rows;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    char* p = line;
    char* end = nullptr;
    const unsigned long long a = std::strtoull(p, &end, 10);
    if (end == p) continue;
    p = end;
    const unsigned long long b = std::strtoull(p, &end, 10);
    if (end == p) continue;
    p = end;
    double w = 1.0;
    if (weighted) {
      w = std::strtod(p, &end);
      if (end == p) {
        std::fclose(f);
        return false;
      }
    }
    if (a == b) continue;
    rows.push_back({static_cast<uint32_t>(std::min(a, b)),
                    static_cast<uint32_t>(std::max(a, b)), w});
  }
  std::fclose(f);
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  });
  out->edges.clear();
  out->weights.clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].u == rows[i - 1].u && rows[i].v == rows[i - 1].v) {
      continue;
    }
    out->edges.emplace_back(rows[i].u, rows[i].v);
    if (weighted) out->weights.push_back(rows[i].w);
  }
  return true;
}

void CheckGraph(const oca::Graph& graph,
                const std::vector<uint64_t>& original_ids,
                const EdgeFile& file, Tally* tally) {
  tally->Check(graph.num_edges() == file.edges.size(),
               "graph holds " + std::to_string(graph.num_edges()) +
                   " edges, file " + std::to_string(file.edges.size()));
  // File id -> dense id.
  std::vector<uint32_t> dense;
  if (!original_ids.empty()) {
    uint64_t max_id = 0;
    for (uint64_t id : original_ids) max_id = std::max(max_id, id);
    dense.assign(max_id + 1, UINT32_MAX);
    for (size_t i = 0; i < original_ids.size(); ++i) {
      dense[original_ids[i]] = static_cast<uint32_t>(i);
    }
  }
  auto to_dense = [&](uint32_t id) -> uint32_t {
    if (dense.empty()) return id < graph.num_nodes() ? id : UINT32_MAX;
    return id < dense.size() ? dense[id] : UINT32_MAX;
  };
  size_t missing = 0;
  size_t bad_weight = 0;
  const bool weighted = !file.weights.empty();
  for (size_t e = 0; e < file.edges.size(); ++e) {
    const uint32_t u = to_dense(file.edges[e].first);
    const uint32_t v = to_dense(file.edges[e].second);
    if (u == UINT32_MAX || v == UINT32_MAX || !graph.HasEdge(u, v)) {
      ++missing;
      continue;
    }
    if (weighted && (graph.EdgeWeight(u, v) != file.weights[e] ||
                     graph.EdgeWeight(v, u) != file.weights[e])) {
      ++bad_weight;
    }
  }
  tally->Check(missing == 0,
               std::to_string(missing) + " file edges missing from graph");
  if (weighted) {
    tally->Check(graph.is_weighted() && bad_weight == 0,
                 std::to_string(bad_weight) + " edge weights differ");
  }
}

namespace {

// y = A x with the graph's weights (1 when unweighted).
void AdjacencyTimes(const oca::Graph& graph, const std::vector<double>& x,
                    std::vector<double>* y) {
  const auto offsets = graph.offsets();
  const auto neighbors = graph.neighbor_array();
  const auto weights = graph.weight_array();
  y->assign(graph.num_nodes(), 0.0);
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    double acc = 0.0;
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      acc += (weights.empty() ? 1.0 : weights[e]) * x[neighbors[e]];
    }
    (*y)[v] = acc;
  }
}

// ||A x - lambda x|| / (|lambda| ||x||).
double EigenResidual(const oca::Graph& graph, double lambda,
                     const std::vector<double>& x) {
  std::vector<double> ax;
  AdjacencyTimes(graph, x, &ax);
  double r2 = 0.0;
  double x2 = 0.0;
  for (size_t v = 0; v < x.size(); ++v) {
    const double r = ax[v] - lambda * x[v];
    r2 += r * r;
    x2 += x[v] * x[v];
  }
  return std::sqrt(r2) / (std::fabs(lambda) * std::sqrt(x2));
}

// L(S) from s = |S| and Ein, with L(empty) = 0 and L(singleton) = 1.
double DirectedLaplacian(double s, double ein, double c) {
  if (s <= 0.0) return 0.0;
  if (s == 1.0) return 1.0;
  const double root = std::sqrt(s * (s - 1.0));
  return s - root + 2.0 * c * ein * (1.0 - (s - 2.0) / root);
}

}  // namespace

void CheckCoupling(const oca::Graph& graph, double c, double lambda,
                   const std::vector<double>& vector, Tally* tally) {
  tally->Check(vector.size() == graph.num_nodes(),
               "eigenvector has the wrong length");
  if (vector.size() != graph.num_nodes()) return;
  // The engine targets a 2e-5 relative error on lambda; a Ritz vector
  // whose value is that close has a residual of order sqrt(2e-5 * gap),
  // so 1e-2 of |lambda| separates a converged pair from a wrong one.
  const double residual = EigenResidual(graph, lambda, vector);
  tally->Check(residual < 1e-2,
               "eigen residual " + std::to_string(residual));
  // c = -1/lambda, biased by the engine toward the admissible side by
  // its own error estimate: never above -1/lambda, and within 1e-3.
  tally->Check(-c * lambda <= 1.0 + 1e-12 && -c * lambda >= 1.0 - 1e-3,
               "c differs from -1/lambda");
  double max_wdeg = 0.0;
  const auto offsets = graph.offsets();
  const auto weights = graph.weight_array();
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    double d = 0.0;
    for (uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      d += weights.empty() ? 1.0 : weights[e];
    }
    max_wdeg = std::max(max_wdeg, d);
  }
  tally->Check(lambda < 0.0 && lambda >= -max_wdeg,
               "lambda outside [-max weighted degree, 0)");
}

bool IsLocalMaximum(const oca::Graph& graph, const oca::Community& community,
                    double c, double epsilon) {
  const size_t n = graph.num_nodes();
  std::vector<double> w_in(n, 0.0);  // edge weight from v into S
  std::vector<char> in_s(n, 0);
  for (oca::NodeId v : community) in_s[v] = 1;
  std::vector<oca::NodeId> touched;
  double ein2 = 0.0;  // twice the internal weight
  for (oca::NodeId v : community) {
    const auto nbrs = graph.Neighbors(v);
    const auto wts = graph.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const double w = wts.empty() ? 1.0 : wts[i];
      if (w_in[nbrs[i]] == 0.0) touched.push_back(nbrs[i]);
      w_in[nbrs[i]] += w;
      if (in_s[nbrs[i]]) ein2 += w;
    }
  }
  const double s = static_cast<double>(community.size());
  const double ein = ein2 / 2.0;
  const double base = DirectedLaplacian(s, ein, c);
  const double tolerance = epsilon + 1e-12 * std::fabs(base);
  bool ok = true;
  for (oca::NodeId v : community) {
    if (DirectedLaplacian(s - 1.0, ein - w_in[v], c) - base > tolerance) {
      ok = false;
    }
  }
  size_t adjacent_outside = 0;
  for (oca::NodeId v : touched) {
    if (in_s[v]) continue;
    ++adjacent_outside;
    if (DirectedLaplacian(s + 1.0, ein + w_in[v], c) - base > tolerance) {
      ok = false;
    }
  }
  // Adding any node with no edge into S: one evaluation covers them all.
  if (adjacent_outside + community.size() < n &&
      DirectedLaplacian(s + 1.0, ein, c) - base > tolerance) {
    ok = false;
  }
  return ok;
}

namespace {

size_t Intersection(const oca::Community& a, const oca::Community& b) {
  size_t i = 0, j = 0, k = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++k;
      ++i;
      ++j;
    }
  }
  return k;
}

std::vector<std::vector<uint32_t>> NodeIndex(const oca::Cover& cover) {
  size_t max_node = 0;
  for (const auto& c : cover) {
    for (oca::NodeId v : c) max_node = std::max<size_t>(max_node, v);
  }
  std::vector<std::vector<uint32_t>> index(max_node + 1);
  for (size_t i = 0; i < cover.size(); ++i) {
    for (oca::NodeId v : cover[i]) index[v].push_back(static_cast<uint32_t>(i));
  }
  return index;
}

oca::Cover Sorted(const oca::Cover& cover) {
  oca::Cover out;
  for (const auto& c : cover) {
    oca::Community s = c;
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    if (!s.empty()) out.Add(std::move(s));
  }
  return out;
}

// For each community of `from`, the best score against any community of
// `against` sharing a node with it (index of the best, smallest on ties).
template <typename Score>
std::vector<std::pair<uint32_t, double>> BestMatches(
    const oca::Cover& from, const oca::Cover& against, Score score) {
  const auto index = NodeIndex(against);
  std::vector<uint32_t> mark(against.size(), UINT32_MAX);
  std::vector<std::pair<uint32_t, double>> best(from.size(), {0, 0.0});
  for (uint32_t j = 0; j < from.size(); ++j) {
    for (oca::NodeId v : from[j]) {
      if (v >= index.size()) continue;
      for (uint32_t i : index[v]) {
        if (mark[i] == j) continue;
        mark[i] = j;
        const double s = score(from[j], against[i]);
        if (s > best[j].second || (s == best[j].second && i < best[j].first)) {
          best[j] = {i, s};
        }
      }
    }
  }
  return best;
}

}  // namespace

double ThetaScore(const oca::Cover& truth_in, const oca::Cover& found_in) {
  const oca::Cover truth = Sorted(truth_in);
  const oca::Cover found = Sorted(found_in);
  if (truth.empty()) return 0.0;
  auto jaccard = [](const oca::Community& a, const oca::Community& b) {
    const double k = static_cast<double>(Intersection(a, b));
    return k / static_cast<double>(a.size() + b.size() - Intersection(a, b));
  };
  const auto best = BestMatches(found, truth, jaccard);
  std::vector<double> sum(truth.size(), 0.0);
  std::vector<size_t> count(truth.size(), 0);
  for (const auto& [i, rho] : best) {
    sum[i] += rho;
    ++count[i];
  }
  double total = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (count[i] > 0) total += sum[i] / static_cast<double>(count[i]);
  }
  return total / static_cast<double>(truth.size());
}

double AverageBestF1(const oca::Cover& truth_in, const oca::Cover& found_in) {
  const oca::Cover truth = Sorted(truth_in);
  const oca::Cover found = Sorted(found_in);
  if (truth.empty() || found.empty()) return 0.0;
  auto f1 = [](const oca::Community& a, const oca::Community& b) {
    const double k = static_cast<double>(Intersection(a, b));
    return 2.0 * k / static_cast<double>(a.size() + b.size());
  };
  auto mean = [](const std::vector<std::pair<uint32_t, double>>& best) {
    double total = 0.0;
    for (const auto& entry : best) total += entry.second;
    return total / static_cast<double>(best.size());
  };
  return 0.5 * (mean(BestMatches(truth, found, f1)) +
                mean(BestMatches(found, truth, f1)));
}

void CheckTree(const oca::RecursiveHierarchy& tree, Tally* tally) {
  size_t bad = 0;
  for (uint32_t root : tree.roots) {
    const auto& node = tree.nodes[root];
    if (node.depth != 0 || node.parent != oca::RecursiveHierarchy::kNoParent) {
      ++bad;
    }
  }
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const auto& node = tree.nodes[i];
    if (!std::is_sorted(node.community.begin(), node.community.end())) ++bad;
    for (uint32_t child : node.children) {
      const auto& kid = tree.nodes[child];
      if (kid.parent != i || kid.depth != node.depth + 1 ||
          !std::includes(node.community.begin(), node.community.end(),
                         kid.community.begin(), kid.community.end())) {
        ++bad;
      }
    }
    if (node.parent != oca::RecursiveHierarchy::kNoParent) {
      const auto& up = tree.nodes[node.parent].children;
      if (std::find(up.begin(), up.end(), i) == up.end()) ++bad;
    }
  }
  tally->Check(bad == 0, std::to_string(bad) + " tree links inconsistent");
}

Inversion InvertTree(const oca::RecursiveHierarchy& tree, size_t num_nodes) {
  Inversion inv;
  inv.roots_of.assign(num_nodes, {});
  inv.paths_of.assign(num_nodes, {});
  std::vector<uint32_t> roots = tree.roots;
  std::sort(roots.begin(), roots.end());
  for (uint32_t r : roots) {
    for (oca::NodeId v : tree.nodes[r].community) inv.roots_of[v].push_back(r);
  }
  // Depth-first from each root containing v, following the children
  // that contain v; a node with no such child ends a path.
  std::vector<uint32_t> path;
  std::function<void(oca::NodeId, uint32_t)> descend = [&](oca::NodeId v,
                                                           uint32_t id) {
    path.push_back(id);
    bool deeper = false;
    for (uint32_t child : tree.nodes[id].children) {
      const auto& members = tree.nodes[child].community;
      if (std::binary_search(members.begin(), members.end(), v)) {
        deeper = true;
        descend(v, child);
      }
    }
    if (!deeper) inv.paths_of[v].push_back(path);
    path.pop_back();
  };
  for (size_t v = 0; v < num_nodes; ++v) {
    for (uint32_t r : inv.roots_of[v]) descend(static_cast<oca::NodeId>(v), r);
  }
  return inv;
}

void CheckStoreAgainst(const oca::CommunityStore& store, const Inversion& inv,
                       Tally* tally) {
  tally->Check(store.num_nodes() == inv.roots_of.size(),
               "snapshot node count differs");
  if (store.num_nodes() != inv.roots_of.size()) return;
  for (size_t v = 0; v < inv.roots_of.size(); ++v) {
    const oca::NodeId node = static_cast<oca::NodeId>(v);
    const auto communities = store.CommunitiesOf(node);
    bool ok = std::equal(communities.begin(), communities.end(),
                         inv.roots_of[v].begin(), inv.roots_of[v].end()) &&
              store.NumPaths(node) == inv.paths_of[v].size();
    for (size_t i = 0; ok && i < inv.paths_of[v].size(); ++i) {
      const auto path = store.MembershipPath(node, i);
      ok = std::equal(path.begin(), path.end(), inv.paths_of[v][i].begin(),
                      inv.paths_of[v][i].end());
    }
    tally->Check(ok, "snapshot memberships of node " + std::to_string(v) +
                         " differ from the inversion");
  }
}

namespace {

void AppendList(const std::vector<uint32_t>& ids, std::string* out) {
  *out += std::to_string(ids.size());
  for (uint32_t id : ids) {
    *out += ' ';
    *out += std::to_string(id);
  }
}

}  // namespace

bool ExpectedPayload(const std::string& request,
                     const oca::RecursiveHierarchy& tree,
                     const Inversion& inv, std::string* payload) {
  char verb[16] = {0};
  unsigned long long node = 0;
  unsigned long long level = 0;
  const int fields =
      std::sscanf(request.c_str(), "%15s %llu %llu", verb, &node, &level);
  payload->clear();
  if (fields < 2 || node >= inv.roots_of.size()) return false;
  if (std::strcmp(verb, "COMMUNITIES") == 0) {
    AppendList(inv.roots_of[node], payload);
    return true;
  }
  if (std::strcmp(verb, "PATHS") == 0) {
    const auto& paths = inv.paths_of[node];
    *payload += std::to_string(paths.size());
    for (const auto& path : paths) {
      *payload += ' ';
      AppendList(path, payload);
    }
    return true;
  }
  if (std::strcmp(verb, "SIBLINGS") == 0 && fields == 3) {
    std::vector<uint32_t> siblings;
    for (const auto& path : inv.paths_of[node]) {
      if (path.size() <= level) continue;
      if (level == 0) {
        siblings.insert(siblings.end(), tree.roots.begin(), tree.roots.end());
      } else {
        const auto& kids = tree.nodes[tree.nodes[path[level]].parent].children;
        siblings.insert(siblings.end(), kids.begin(), kids.end());
      }
    }
    std::sort(siblings.begin(), siblings.end());
    siblings.erase(std::unique(siblings.begin(), siblings.end()),
                   siblings.end());
    AppendList(siblings, payload);
    return true;
  }
  return false;
}

}  // namespace pipebench
