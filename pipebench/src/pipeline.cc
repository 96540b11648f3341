// pipebench_run: the measured process of the pipeline benchmark. Runs
// one workload over inputs pipebench_prep wrote, checks every output
// against the benchmark's own computations, and prints one JSON line.
//
//   pipebench_run --workload=NAME --seed=S --seconds=T --trace=0|1
//                 --inputs=DIR[,DIR...] --work=DIR
//
// Workloads (README.md has the why of each):
//   flat-lfr100k  ReadEdgeListFile -> serial RunOca -> flat .ocac write
//   hier-wlfr50k  OpenMmapGraph -> BuildRecursiveHierarchy (2 workers)
//                 -> hierarchy .ocac write
//   serve-mix     hier-wlfr50k passes for half the run, then the last
//                 snapshot served for the rest
// A pipeline pass ends by opening the latest snapshot and serving the
// request list through StoreServer/StoreClient. Passes cycle over the
// input instances (--inputs), so a run's medians span more than one graph.
//
// --trace=0 reports the end-to-end metrics. --trace=1 runs pairs of an
// untraced and a traced pass on one instance, reports per-layer metrics
// from the spans of the traced ones and the traced/untraced time ratio,
// and writes the spans to DIR/trace.jsonl.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/community_store.h"
#include "core/local_search.h"
#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "core/seeding.h"
#include "graph/mmap_graph.h"
#include "io/community_serialize.h"
#include "io/cover_io.h"
#include "io/edge_list.h"
#include "serve.h"
#include "spectral/spectral_engine.h"
#include "trace.h"
#include "util/flags.h"
#include "util/random.h"

namespace pipebench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Workload {
  std::string name;
  bool text_input = false;   // edge-list text vs .ocag v2 mapping
  bool hierarchy = false;    // BuildRecursiveHierarchy vs flat RunOca
  bool serve_rest = false;   // build until half-time, then serve to the end
  size_t setup_reps = 1;     // graph loads per pipeline pass
  // Passes on the first `persisting` instances persist and serve; passes
  // on the others stop after the solve. flat-lfr100k persists one of its
  // four instances: its writer takes ~7 s a pass, and four solves per
  // run are needed to average out the ~2x spread of work between graphs.
  size_t persisting = 0;
  // Passes over the request list served from the latest snapshot after
  // every pipeline pass (serve-mix serves until the run's time is up
  // instead). flat-lfr100k persists once a run, so its later passes serve
  // the first instance's snapshot: served passes then fall at four points
  // of the run instead of one, and number 32 instead of 8. With 8 served
  // passes at one point its serve_p50_us spread 27% over ten runs.
  size_t serve_passes = 2;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  if (name == "flat-lfr100k") {
    return Workload{name, true, false, false, 2, 1, 8};
  }
  if (name == "hier-wlfr50k") {
    return Workload{name, false, true, false, 9, 2, 2};
  }
  if (name == "serve-mix") return Workload{name, false, true, true, 9, 2, 2};
  return std::nullopt;
}

constexpr size_t kClimbSample = 256;
constexpr double kThetaFloor = 0.75;
constexpr double kF1Floor = 0.85;

// One input instance: a graph and what the benchmark knows of it.
struct Instance {
  std::string dir;
  oca::Cover truth;
  std::vector<std::string> requests;
  std::vector<std::string> expected;  // reply payloads, from the first pass
  bool checked = false;               // its first pass has run
  // What the first pass built; every later pass must build the same.
  uint64_t first_digest = 0;  // hierarchy workloads
  oca::Cover first_cover;     // flat workload
  // End-to-end samples of its untraced passes.
  std::vector<double> setup_s, solve_s, persist_s;
};

// One pipeline pass's products and phase times.
struct Pass {
  oca::Graph graph;
  std::vector<uint64_t> original_ids;  // text input: dense -> file id
  oca::OcaResult flat;                 // flat workload
  oca::RecursiveHierarchy tree;        // hierarchy workload
  uint64_t snapshot_bytes = 0;
  std::vector<double> setup_s;
  double solve_s = 0.0;
  double persist_s = 0.0;
};

class Runner {
 public:
  Runner(Workload w, uint64_t seed, double seconds, bool trace,
         const std::vector<std::string>& inputs, std::string work)
      : w_(std::move(w)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        work_(std::move(work)) {
    for (const std::string& dir : inputs) {
      instances_.emplace_back();
      instances_.back().dir = dir;
    }
  }

  int Run();

 private:
  bool LoadInputs(Instance* in);
  bool RunPass(const Instance& in, bool persist, SpanRecorder* r, Pass* pass);
  void CheckFirstPass(const Pass& pass, Instance* in);
  void Probe(const Pass& pass, SpanRecorder* r);
  bool Serve(const Instance& in, const std::function<bool(size_t)>& another,
             SpanRecorder* r, ServeOutcome* out);
  oca::OcaOptions BaseOptions() const;
  oca::RecursiveHierarchy FlatTree(const oca::Cover& cover) const;
  void Emit(double peak_rss, const Pass& last_traced);

  const Workload w_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string work_;

  std::vector<Instance> instances_;
  Tally tally_;
  SpanRecorder rec_;

  // Served samples (untraced passes).
  std::vector<ServedPass> served_passes_;
  uint64_t server_requests_ = 0, server_errors_ = 0;
  std::vector<double> theta_, avg_f1_;  // one per instance
  // Per-layer samples (traced passes).
  // Traced over untraced time of each pair of passes on one instance.
  std::vector<double> overhead_ratios_;
  double untraced_pass_s_ = 0.0;
  size_t passes_ = 0;  // pipeline passes run, for the run's info line
  std::vector<double> lookup_ns_, execute_ns_;
  size_t lanczos_steps_ = 0;
  double matvec_nnz_ = 0.0;  // nnz x mat-vecs of the last probe
  std::vector<double> climb_steps_;
};

oca::OcaOptions Runner::BaseOptions() const {
  oca::OcaOptions o;
  o.seed = seed_;
  o.num_threads = 1;
  o.search.fitness.use_weights = !w_.text_input;
  return o;
}

bool Runner::LoadInputs(Instance* in) {
  auto truth = oca::ReadCoverFile(in->dir + "/truth.txt");
  if (!truth.ok()) {
    std::fprintf(stderr, "truth: %s\n", truth.status().ToString().c_str());
    return false;
  }
  in->truth = std::move(truth).value();
  std::ifstream file(in->dir + "/requests.txt");
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) in->requests.push_back(line);
  }
  if (in->requests.empty()) {
    std::fprintf(stderr, "%s/requests.txt holds no requests\n",
                 in->dir.c_str());
    return false;
  }
  return true;
}

bool Runner::RunPass(const Instance& in, bool persist, SpanRecorder* r,
                     Pass* pass) {
  const std::string snapshot = work_ + "/snapshot.ocac";
  for (size_t rep = 0; rep < w_.setup_reps; ++rep) {
    pass->graph = oca::Graph();
    const auto t0 = Clock::now();
    if (w_.text_input) {
      ScopedSpan span(r, "io.edge_list.read");
      auto loaded = oca::ReadEdgeListFile(in.dir + "/graph.txt");
      if (!loaded.ok()) {
        std::fprintf(stderr, "read: %s\n", loaded.status().ToString().c_str());
        return false;
      }
      pass->graph = std::move(loaded.value().graph);
      pass->original_ids = std::move(loaded.value().original_ids);
    } else {
      ScopedSpan span(r, "graph.mmap_open");
      auto opened = oca::OpenMmapGraph(in.dir + "/graph.ocag");
      if (!opened.ok()) {
        std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
        return false;
      }
      pass->graph = std::move(opened).value();
    }
    pass->setup_s.push_back(Since(t0));
  }

  auto t0 = Clock::now();
  if (w_.hierarchy) {
    ScopedSpan span(r, "core.hierarchy.build");
    oca::RecursiveHierarchyOptions options;
    options.base = BaseOptions();
    options.num_threads = 2;
    auto tree = oca::BuildRecursiveHierarchy(pass->graph, options);
    if (!tree.ok()) {
      std::fprintf(stderr, "hierarchy: %s\n", tree.status().ToString().c_str());
      return false;
    }
    pass->tree = std::move(tree).value();
  } else {
    ScopedSpan span(r, "core.oca.run");
    auto result = oca::RunOca(pass->graph, BaseOptions());
    if (!result.ok()) {
      std::fprintf(stderr, "oca: %s\n", result.status().ToString().c_str());
      return false;
    }
    pass->flat = std::move(result).value();
  }
  pass->solve_s = Since(t0);
  if (!persist) return true;

  t0 = Clock::now();
  {
    ScopedSpan span(r, "io.store_write");
    auto bytes =
        w_.hierarchy
            ? oca::WriteCommunityStoreFile(pass->tree, pass->graph.num_nodes(),
                                           pass->graph.num_edges(), snapshot)
            : oca::WriteCommunityStoreFile(
                  oca::FlatHierarchyFromResult(pass->flat),
                  pass->graph.num_nodes(), pass->graph.num_edges(), snapshot);
    if (!bytes.ok()) {
      std::fprintf(stderr, "write: %s\n", bytes.status().ToString().c_str());
      return false;
    }
    pass->snapshot_bytes = bytes.value();
  }
  pass->persist_s = Since(t0);
  return true;
}

oca::RecursiveHierarchy Runner::FlatTree(const oca::Cover& cover) const {
  oca::RecursiveHierarchy tree;
  for (size_t i = 0; i < cover.size(); ++i) {
    oca::RecursiveCommunity node;
    node.community = cover[i];
    tree.nodes.push_back(std::move(node));
    tree.roots.push_back(static_cast<uint32_t>(i));
  }
  return tree;
}

// The spectral probe and the climb sample: the coupling solve behind c
// (same engine configuration RunOca and the hierarchy use) and greedy
// climbs from a fixed sample of seeds, each checked.
void Runner::Probe(const Pass& pass, SpanRecorder* r) {
  const oca::OcaOptions base = BaseOptions();
  oca::SpectralEngineOptions eo = oca::ValueSolveOptionsFrom(base.power_method);
  eo.seed ^= base.seed;
  eo.num_threads = base.num_threads;
  oca::SpectralEngine engine(eo);
  // The timed call is the one the solve makes: CouplingConstant in
  // RunOca, CouplingConstantWithVector at the hierarchy's root. The flat
  // workload then asks the same engine for the vector (a replay of the
  // cached solve) for the residual check.
  std::vector<double> vec;
  oca::Result<oca::CouplingResult> coupling = oca::Status::Internal("unset");
  {
    ScopedSpan span(r, "spectral.coupling");
    coupling = w_.hierarchy
                   ? engine.CouplingConstantWithVector(pass.graph, &vec)
                   : engine.CouplingConstant(pass.graph);
  }
  const size_t matvecs = engine.total_matvecs();
  const size_t steps = coupling.ok() ? coupling.value().iterations : 0;
  if (coupling.ok() && !w_.hierarchy) {
    coupling = engine.CouplingConstantWithVector(pass.graph, &vec);
  }
  tally_.Check(coupling.ok(), "coupling solve failed");
  if (!coupling.ok()) return;
  const double lambda = coupling.value().lambda_min;
  const double c = coupling.value().c;
  CheckCoupling(pass.graph, c, lambda, vec, &tally_);
  const oca::OcaRunStats& stats =
      w_.hierarchy ? pass.tree.root_stats : pass.flat.stats;
  tally_.Check(stats.lambda_min == lambda && stats.coupling_constant == c,
               "the run's lambda differs from the probe's");
  lanczos_steps_ = steps;
  matvec_nnz_ = static_cast<double>(matvecs) * 2.0 *
                static_cast<double>(pass.graph.num_edges());

  oca::LocalSearchOptions search = base.search;
  search.fitness.c = c;
  oca::Seeder seeder(pass.graph, base.seeding, oca::Rng(seed_ ^ 0xC1u));
  oca::Rng pick(seed_ ^ 0xC11Bu);
  climb_steps_.clear();
  for (size_t i = 0; i < kClimbSample; ++i) {
    const oca::NodeId node =
        static_cast<oca::NodeId>(pick.NextBounded(pass.graph.num_nodes()));
    const oca::Community seed_set = seeder.BuildSeedSet(node);
    oca::Result<oca::LocalSearchResult> climb = oca::Status::Internal("unset");
    {
      ScopedSpan span(r, "core.local_search.climb");
      climb = oca::GreedyLocalSearch(pass.graph, seed_set, search);
    }
    tally_.Check(climb.ok() && IsLocalMaximum(pass.graph,
                                              climb.value().community, c,
                                              search.epsilon),
                 "climb from node " + std::to_string(node) +
                     " did not end at a local maximum");
    if (climb.ok()) {
      climb_steps_.push_back(static_cast<double>(climb.value().steps));
    }
  }
}

void Runner::CheckFirstPass(const Pass& pass, Instance* in) {
  EdgeFile file;
  const bool read = w_.text_input
                        ? ReadEdgeFile(in->dir + "/graph.txt", false, &file)
                        : ReadEdgeFile(in->dir + "/edges.txt", true, &file);
  tally_.Check(read, "cannot read the generated edge file");
  CheckGraph(pass.graph, pass.original_ids, file, &tally_);

  // Quality of the (root) cover against the planted one, in file ids.
  oca::Cover found;
  if (w_.hierarchy) {
    for (uint32_t root : pass.tree.roots) found.Add(pass.tree.nodes[root].community);
    CheckTree(pass.tree, &tally_);
  } else {
    for (const auto& community : pass.flat.cover) {
      oca::Community mapped;
      for (oca::NodeId v : community) {
        mapped.push_back(static_cast<oca::NodeId>(pass.original_ids[v]));
      }
      found.Add(std::move(mapped));
    }
  }
  const double theta = ThetaScore(in->truth, found);
  const double avg_f1 = AverageBestF1(in->truth, found);
  theta_.push_back(theta);
  avg_f1_.push_back(avg_f1);
  tally_.Check(theta >= kThetaFloor,
               "theta " + std::to_string(theta) + " below its floor");
  tally_.Check(avg_f1 >= kF1Floor,
               "avg_f1 " + std::to_string(avg_f1) + " below its floor");

  // The snapshot against the benchmark's own inversion, and the reply
  // every request should get.
  const oca::RecursiveHierarchy own =
      w_.hierarchy ? oca::RecursiveHierarchy() : FlatTree(pass.flat.cover);
  const oca::RecursiveHierarchy& tree = w_.hierarchy ? pass.tree : own;
  const Inversion inv = InvertTree(tree, pass.graph.num_nodes());
  if (w_.hierarchy) {
    in->first_digest = pass.tree.Digest();
  } else {
    in->first_cover = pass.flat.cover;
  }
  in->checked = true;
  if (pass.snapshot_bytes == 0) return;  // this instance does not persist
  in->expected.resize(in->requests.size());
  for (size_t i = 0; i < in->requests.size(); ++i) {
    tally_.Check(ExpectedPayload(in->requests[i], tree, inv, &in->expected[i]),
                 "request '" + in->requests[i] + "' not understood");
  }
  auto store = oca::CommunityStore::Open(work_ + "/snapshot.ocac");
  tally_.Check(store.ok(), "snapshot does not open");
  if (store.ok()) {
    CheckStoreAgainst(store.value(), inv, &tally_);
    double lookup_ns = 0.0, execute_ns = 0.0;
    AnswerInProcess(store.value(), in->requests, in->expected, nullptr,
                    &tally_, &lookup_ns, &execute_ns);
  }
}

bool Runner::Serve(const Instance& in,
                   const std::function<bool(size_t)>& another,
                   SpanRecorder* r, ServeOutcome* out) {
  std::optional<oca::CommunityStore> store;
  {
    ScopedSpan span(r, "store.open");
    auto opened = oca::CommunityStore::Open(work_ + "/snapshot.ocac");
    if (!opened.ok()) {
      std::fprintf(stderr, "store: %s\n", opened.status().ToString().c_str());
      return false;
    }
    store.emplace(std::move(opened).value());
  }
  if (r != nullptr) {
    double lookup = 0.0, execute = 0.0;
    AnswerInProcess(*store, in.requests, in.expected, r, &tally_, &lookup,
                    &execute);
    lookup_ns_.push_back(lookup);
    execute_ns_.push_back(execute);
  }
  return ServeRequests(*store, in.requests, in.expected, another, r, &tally_,
                       out);
}

int Runner::Run() {
  for (Instance& in : instances_) {
    if (!LoadInputs(&in)) return 1;
  }
  // Without tracing, serve-mix serves from half-time to the end; traced
  // runs serve every workload alike so traced and untraced passes match.
  const bool serve_rest = w_.serve_rest && !trace_;
  double measured = 0.0;
  double peak_rss = 0.0;
  // The instance whose snapshot work_ holds, once a pass has persisted.
  std::optional<size_t> snapshot_of;
  Pass pass;
  Pass last_traced;  // the per-layer counts come from the last traced pass
  for (size_t iter = 0;; ++iter) {
    passes_ = iter + 1;
    const bool traced = trace_ && iter % 2 == 1;
    SpanRecorder* r = traced ? &rec_ : nullptr;
    const size_t index = (trace_ ? iter / 2 : iter) % instances_.size();
    Instance& in = instances_[index];
    const bool persist = index < w_.persisting;
    pass = Pass();
    if (!RunPass(in, persist, r, &pass)) return 1;
    if (persist) snapshot_of = index;
    double pass_s = pass.solve_s + pass.persist_s;
    for (double s : pass.setup_s) pass_s += s;
    if (iter == 0) peak_rss = PeakRssMiB();  // before any check allocates
    const bool first_on_instance = !in.checked;
    if (first_on_instance) {
      CheckFirstPass(pass, &in);
    } else {
      tally_.Check(w_.hierarchy ? pass.tree.Digest() == in.first_digest
                                : pass.flat.cover == in.first_cover,
                   "pass " + std::to_string(iter) + " built a different result");
    }
    if (first_on_instance || traced) Probe(pass, r);
    if (!traced) {
      in.setup_s.insert(in.setup_s.end(), pass.setup_s.begin(),
                        pass.setup_s.end());
      in.solve_s.push_back(pass.solve_s);
      if (persist) in.persist_s.push_back(pass.persist_s);
    }
    measured += pass_s;

    // serve-mix builds until half-time, then serves to the end of the
    // run; the others serve w_.serve_passes passes of the latest snapshot
    // after every build.
    const bool all_built = iter + 1 >= instances_.size();
    const bool serve_now =
        serve_rest ? persist && all_built && measured >= seconds_ / 2
                   : snapshot_of.has_value();
    ServeOutcome out;
    const double before_serve = measured;
    std::function<bool(size_t)> another = [&](size_t served) {
      return serve_rest ? before_serve + out.served_seconds < seconds_
                        : served < w_.serve_passes;
    };
    if (serve_now && !Serve(instances_[*snapshot_of], another, r, &out)) {
      return 1;
    }
    pass_s += out.served_seconds;
    measured += out.served_seconds;
    if (traced) {
      overhead_ratios_.push_back(pass_s / untraced_pass_s_);
    } else {
      untraced_pass_s_ = pass_s;
    }
    if (!traced) {
      served_passes_.insert(served_passes_.end(), out.passes.begin(),
                            out.passes.end());
    }
    server_requests_ += out.server_requests;
    server_errors_ += out.server_errors;
    if (traced) last_traced = std::move(pass);
    const bool need_traced = trace_ && overhead_ratios_.empty();
    const bool enough = trace_ ? !need_traced : all_built;
    if (serve_rest ? serve_now : (enough && measured >= seconds_)) break;
  }
  Emit(peak_rss, last_traced);
  return 0;
}

void Runner::Emit(double peak_rss, const Pass& last_traced) {
  std::map<std::string, std::pair<double, const char*>> m;
  if (!trace_) {
    std::vector<double> qps, p50, p99;
    for (const ServedPass& p : served_passes_) {
      qps.push_back(p.qps);
      p50.push_back(p.p50_us);
      p99.push_back(p.p99_us);
    }
    // Each phase: its median on each instance, averaged over instances,
    // so no one graph weighs more for having had more passes.
    auto phase = [&](std::vector<double> Instance::*samples) {
      std::vector<double> medians;
      for (const Instance& in : instances_) {
        if (!(in.*samples).empty()) medians.push_back(Median(in.*samples));
      }
      return Mean(medians);
    };
    m["setup_s"] = {phase(&Instance::setup_s), "s"};
    m["solve_s"] = {phase(&Instance::solve_s), "s"};
    m["persist_s"] = {phase(&Instance::persist_s), "s"};
    m["peak_rss_mb"] = {peak_rss, "MiB"};
    m["theta"] = {Mean(theta_), "ratio"};
    m["avg_f1"] = {Mean(avg_f1_), "ratio"};
    // Means over request passes: the round trip switches between two
    // speeds from one quarter-second pass to the next on this host, and a
    // median over passes would jump with the share of fast passes.
    m["serve_qps"] = {Mean(qps), "1/s"};
    m["serve_p50_us"] = {Mean(p50), "us"};
    m["serve_p99_us"] = {Mean(p99), "us"};
  } else {
    const double read_s = Median(rec_.Durations("io.edge_list.read"));
    const double coupling_s = Median(rec_.Durations("spectral.coupling"));
    m["io.edge_list.read_s"] = {read_s, "s"};
    m["io.edge_list.edges_per_s"] = {
        read_s > 0.0 ? static_cast<double>(last_traced.graph.num_edges()) / read_s
                     : 0.0,
        "1/s"};
    m["graph.mmap_open_s"] = {Median(rec_.Durations("graph.mmap_open")), "s"};
    m["spectral.coupling_s"] = {coupling_s, "s"};
    m["spectral.lanczos_steps"] = {static_cast<double>(lanczos_steps_), "count"};
    m["spectral.matvec_nnz_per_s"] = {matvec_nnz_ / coupling_s, "1/s"};
    m["core.local_search.climb_us"] = {
        Median(rec_.Durations("core.local_search.climb")) * 1e6, "us"};
    double steps = 0.0;
    for (double s : climb_steps_) steps += s;
    m["core.local_search.steps_per_climb"] = {
        steps / static_cast<double>(climb_steps_.size()), "count"};
    const oca::OcaRunStats& stats =
        w_.hierarchy ? last_traced.tree.root_stats : last_traced.flat.stats;
    m["core.oca.seeds_expanded"] = {static_cast<double>(stats.seeds_expanded),
                                    "count"};
    m["core.oca.distinct_per_seed"] = {
        static_cast<double>(stats.raw_communities) /
            static_cast<double>(stats.seeds_expanded),
        "ratio"};
    m["core.oca.merges"] = {static_cast<double>(stats.merge.merges), "count"};
    m["core.oca.search_s"] = {stats.seconds_search, "s"};
    double root_s = 0.0, recurse_s = 0.0;
    if (w_.hierarchy) {
      root_s = stats.TotalSeconds();
      recurse_s = Median(rec_.Durations("core.hierarchy.build")) - root_s;
    }
    m["core.hierarchy.root_s"] = {root_s, "s"};
    m["core.hierarchy.recurse_s"] = {recurse_s, "s"};
    const oca::SpectralChainStats& chain = last_traced.tree.chain;
    m["core.hierarchy.subgraph_solves"] = {
        static_cast<double>(chain.subgraph_solves), "count"};
    m["core.hierarchy.warm_started_solves"] = {
        static_cast<double>(chain.warm_started_solves), "count"};
    m["core.hierarchy.subgraph_lanczos_steps"] = {
        static_cast<double>(chain.total_iterations), "count"};
    m["core.hierarchy.tree_nodes"] = {
        static_cast<double>(last_traced.tree.nodes.size()), "count"};
    m["io.store_write.s"] = {Median(rec_.Durations("io.store_write")), "s"};
    m["io.store_write.bytes"] = {static_cast<double>(last_traced.snapshot_bytes),
                                 "bytes"};
    m["store.open_s"] = {Median(rec_.Durations("store.open")), "s"};
    m["store.lookup_ns"] = {Median(lookup_ns_), "ns"};
    m["server.execute_ns"] = {Median(execute_ns_), "ns"};
    m["server.requests"] = {static_cast<double>(server_requests_), "count"};
    m["server.errors"] = {static_cast<double>(server_errors_), "count"};
    m["trace.overhead_ratio"] = {Median(overhead_ratios_), "ratio"};
    // Served latency per verb (the untraced passes' p50, mean over
    // passes), so a reader can reweight the request mix.
    for (size_t verb = 0; verb < kNumVerbs; ++verb) {
      std::vector<double> p50;
      for (const ServedPass& p : served_passes_) {
        p50.push_back(p.verb_p50_us[verb]);
      }
      m[std::string("server.") + kVerbNames[verb] + "_p50_us"] = {Mean(p50),
                                                                  "us"};
    }
    rec_.WriteJsonLines(work_ + "/trace.jsonl");
  }
  for (const std::string& f : tally_.first_failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("# pipebench workload=%s seed=%llu build_type=%s nproc=%ld "
              "passes=%zu\n",
              w_.name.c_str(), static_cast<unsigned long long>(seed_),
              PIPEBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
              passes_);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally_.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally_.attempted),
              static_cast<unsigned long long>(tally_.failed));
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first, value.second);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  const auto workload = pipebench::FindWorkload(flags.GetString("workload", ""));
  const auto seed = flags.GetInt("seed", -1);
  const auto seconds = flags.GetDouble("seconds", 0.0);
  const auto trace = flags.GetInt("trace", 0);
  std::vector<std::string> inputs;
  for (std::string list = flags.GetString("inputs", ""); !list.empty();) {
    const size_t comma = list.find(',');
    inputs.push_back(list.substr(0, comma));
    list = comma == std::string::npos ? "" : list.substr(comma + 1);
  }
  const std::string work = flags.GetString("work", "");
  if (!workload || !seed.ok() || seed.value() < 0 || !seconds.ok() ||
      seconds.value() <= 0.0 || !trace.ok() || inputs.empty() || work.empty()) {
    std::fprintf(stderr,
                 "usage: pipebench_run --workload=flat-lfr100k|hier-wlfr50k|"
                 "serve-mix --seed=S --seconds=T --trace=0|1 --inputs=DIR[,DIR] "
                 "--work=DIR\n");
    return 2;
  }
  pipebench::Runner runner(*workload, static_cast<uint64_t>(seed.value()),
                           seconds.value(), trace.value() != 0, inputs, work);
  return runner.Run();
}
