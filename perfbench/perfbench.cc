// The repo benchmark driver. One binary runs one workload for one seed and
// prints every metric by name, then one JSON line (see README.md in this
// directory). run.py builds it, repeats set-up, and relays the JSON.
//
//   perfbench --workload <offline-node2vec|offline-ppr-ooc|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1> --cli <flexiwalker_cli>
//             --work-dir <dir> [--setup-only]
//
// Offline workloads call the library in-process with nproc walker threads.
// The served workload starts the shipped CLI with --listen as a child
// process and drives it through WalkClient from one sending thread.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/compiler/jit.h"
#include "src/compiler/step_emitter.h"
#include "src/graph/block_store.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/net/batch_coalescer.h"
#include "src/net/walk_client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walker/walk_service.h"
#include "src/walker/worker_pool.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"
#include "src/walks/ppr.h"

namespace pb {
namespace {

using flexi::FlexiWalkerEngine;
using flexi::FlexiWalkerOptions;
using flexi::Graph;
using flexi::NodeId;
using flexi::WalkLogic;
using flexi::WalkResult;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ constants --
// Workload shapes. Changing any of these changes the benchmark.
constexpr uint32_t kRmatScale = 19;       // 524,288 nodes
constexpr uint32_t kRmatEdgeFactor = 12;  // ~6.3M edges: ~60 MB CSR, past the
                                          // scheduler's 32 MiB wavefront threshold
constexpr uint32_t kWalkLength = 80;
constexpr uint32_t kNode2VecStride = 64;  // 8,192 strided starts
constexpr size_t kNode2VecBatch = 512;    // starts per engine Run (~0.1 s)
constexpr uint32_t kPprStride = 16;       // 32,768 strided starts
constexpr size_t kPprBatch = 8192;        // starts per out-of-core Run
constexpr size_t kBlockBytes = 1 << 20;
constexpr uint32_t kCacheBlocks = 8;
constexpr double kPinnedEdgeCostRatio = 4.0;  // the CLI's out-of-core pin
constexpr size_t kParityRows = 64;            // rows replayed on 1 thread

constexpr uint32_t kServeLength = 16;
constexpr double kNode2VecShare = 0.1;  // serve-mixed request mix
constexpr uint32_t kMaxNode2VecStarts = 64;
// serve-mixed: a fixed rate ladder (requests/s). The nominal step comes
// first; its latency is reported as rtt_p50_us / rtt_p99_us. Then
// kKneeCycles sweeps climb the knee rates, which are ~10% apart where the
// 4-core reference box reaches its knee (60k-70k req/s), so slo_qps
// interpolates between close rates. Each sweep after the first starts once
// the last one's backlog has drained. The top step, last, is far past the
// knee. A rate's latency pools the windows of all its sweeps: a knee
// crossing decided by a fraction of a second of queueing luck becomes a
// median over several.
constexpr double kNominalRate = 8000;
constexpr double kKneeRates[] = {44000, 50000, 56000, 62000, 68000, 74000, 82000};
constexpr double kTopRate = 96000;
constexpr int kKneeCycles = 5;
constexpr uint32_t kNominalLevel = 0;  // levels: nominal, the knee rates, top
constexpr uint32_t kTopLevel = std::size(kKneeRates) + 1;
// The p99 limit for slo_qps. It sits above the ladder's shallow region
// (p99 of 1-8 ms below the knee), where the overload knee raises p99 by
// 3-30x per rate, so the crossing rate moves with capacity rather than with
// tail noise. Over two 10-seed sets, 20 ms spread 0.20 and 0.24 (IQR over
// median) where 10 ms spread 0.31 and 0.26.
constexpr double kLatencyLimitUs = 20000;
// Every served phase first sends this long at its first step's rate,
// unmeasured (checked like the rest): the server's first requests fault in
// pages and wake threads for the first time.
constexpr double kWarmupSeconds = 0.5;
constexpr uint32_t kWarmupStep = UINT32_MAX;
// Open-loop generator health: a measured level fails when the sender ran
// this late (at a p99 this late the rate was not offered).
constexpr double kMaxLatenessP99Us = 10000;
constexpr double kMaxLatenessUs = 100000;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double MicrosSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return flexi::obs::PercentileOfSorted(values, q);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// Quantile of whole-microsecond durations (the trace ring's resolution). A
// recorded d stands for a duration in [d, d+1), so the quantile
// interpolates linearly inside the bin that holds rank q * n.
double BinnedQuantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size());
  double v = values[std::min(values.size() - 1, static_cast<size_t>(rank))];
  auto lo = std::lower_bound(values.begin(), values.end(), v) - values.begin();
  auto hi = std::upper_bound(values.begin(), values.end(), v) - values.begin();
  return v + std::clamp((rank - lo) / static_cast<double>(hi - lo), 0.0, 1.0);
}

// Peak resident set (VmHWM) of a process; "self" for this one.
double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Returns freed heap to the OS and restarts this process's VmHWM from its
// current resident set, so a later PeakRssMb("self") covers only what
// follows.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------- report --
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string cli;
  std::string work_dir;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& base) {
    std::printf("  %-34s %14.6g %-8s %s\n", name.c_str(), value, unit.c_str(), base.c_str());
    metrics_.push_back({name, value, unit});
  }
  // A failed check marks the run incorrect; the run still finishes.
  bool Check(bool ok, const std::string& what) {
    std::printf("  check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) {
      correct_ = false;
    }
    return ok;
  }
  void Note(const std::string& text) { std::printf("  %s\n", text.c_str()); }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void PrintJson() const {
    std::string out = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1)) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : -1.0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ----------------------------------------------------------- prometheus --
// Parses a Prometheus text exposition (the --stats scrape) into
// full-series-name -> value.
using Scrape = std::map<std::string, double>;

Scrape ParseScrape(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Get(const Scrape& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}
double Delta(const Scrape& before, const Scrape& after, const std::string& name) {
  return Get(after, name) - Get(before, name);
}
// Sums every series of `family` whose labels contain `needle`.
double SumFamily(const Scrape& s, const std::string& family, const std::string& needle) {
  double total = 0;
  for (const auto& [name, value] : s) {
    if (name.rfind(family, 0) == 0 &&
        (name.size() == family.size() || name[family.size()] == '{') &&
        name.find(needle) != std::string::npos) {
      total += value;
    }
  }
  return total;
}
Scrape InProcessScrape() {
  return ParseScrape(flexi::obs::MetricsRegistry::Global().RenderPrometheusText());
}

// ------------------------------------------------------------- checking --
std::vector<NodeId> SeededStrided(NodeId num_nodes, uint32_t stride, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  NodeId offset = static_cast<NodeId>(rng() % stride);
  std::vector<NodeId> starts;
  for (uint64_t v = offset; v < num_nodes; v += stride) {
    starts.push_back(static_cast<NodeId>(v));
  }
  return starts;
}

size_t NumBatches(const std::vector<NodeId>& starts, size_t size) {
  return (starts.size() + size - 1) / size;
}
std::span<const NodeId> BatchOf(const std::vector<NodeId>& starts, size_t size, size_t b) {
  return std::span<const NodeId>(starts).subspan(b * size,
                                                 std::min(size, starts.size() - b * size));
}

uint64_t CountSteps(std::span<const NodeId> paths, uint32_t stride) {
  uint64_t steps = 0;
  for (size_t row = 0; row * stride < paths.size(); ++row) {
    for (uint32_t i = 1; i < stride && paths[row * stride + i] != flexi::kInvalidNode; ++i) {
      ++steps;
    }
  }
  return steps;
}

// Counts rows that are not walks over real edges. With `teleport_ok` (PPR)
// a step may instead leave the row's start: the path records the sampled
// neighbor, and a teleport moves the walker home before the next step.
// `has_edge(u, v)` answers u -> v.
template <typename HasEdge>
size_t BadRows(std::span<const NodeId> paths, uint32_t stride, std::span<const NodeId> starts,
               bool teleport_ok, const HasEdge& has_edge) {
  size_t bad = 0;
  for (size_t row = 0; row < starts.size(); ++row) {
    const NodeId* p = paths.data() + row * stride;
    bool ok = p[0] == starts[row];
    bool ended = false;
    for (uint32_t i = 1; ok && i < stride; ++i) {
      if (p[i] == flexi::kInvalidNode) {
        ended = true;
        continue;
      }
      ok = !ended &&
           (has_edge(p[i - 1], p[i]) || (teleport_ok && has_edge(starts[row], p[i])));
    }
    bad += ok ? 0 : 1;
  }
  return bad;
}

bool RowsEqual(std::span<const NodeId> a, std::span<const NodeId> b, size_t rows,
               uint32_t stride) {
  return a.size() >= rows * stride && b.size() >= rows * stride &&
         std::equal(a.begin(), a.begin() + rows * stride, b.begin());
}

// ----------------------------------------------------------------- graphs --
Graph MakeRmat(uint64_t seed, flexi::WeightDistribution weights) {
  flexi::RmatParams params;
  params.scale = kRmatScale;
  params.edge_factor = kRmatEdgeFactor;
  params.a = 0.57;
  params.b = 0.19;
  params.c = 0.19;
  params.seed = seed;
  Graph graph = flexi::GenerateRmat(params);
  flexi::AssignWeights(graph, weights, 2.0, seed + 1);
  return graph;
}

// The served graph: the CLI's `--dataset SK` with its default weights.
Graph MakeSk() {
  return flexi::LoadDataset(flexi::DatasetByName("SK"), flexi::WeightDistribution::kUniform, 2.0);
}

// --------------------------------------------------------- layer probes --
struct KernelProbe {
  double ns_per_step = 0;
  uint64_t steps = 0;
  WalkResult result;
};

KernelProbe RunOnce(const Graph& graph, const WalkLogic& logic, std::span<const NodeId> starts,
                    uint64_t seed, FlexiWalkerOptions options) {
  FlexiWalkerEngine engine(options);
  KernelProbe probe;
  probe.result = engine.Run(graph, logic, starts, seed);
  probe.steps = CountSteps(probe.result.paths, probe.result.path_stride);
  probe.ns_per_step = probe.result.wall_ms * 1e6 / std::max<uint64_t>(probe.steps, 1);
  return probe;
}

// Runtime, sampling and simt layers: 1-thread runs of the workload's
// dynamic walk under each selection strategy over the same starts.
void ProbeRuntimeAndKernels(const Graph& graph, const WalkLogic& logic,
                            std::span<const NodeId> starts, uint64_t seed, Report& report) {
  FlexiWalkerOptions options;
  flexi::DeviceContext device(options.device);
  Clock::time_point t0 = Clock::now();
  flexi::FlexiPreparation prep = flexi::PrepareFlexiWalker(graph, logic, options, device);
  report.Metric("runtime.prepare_s", SecondsSince(t0), "s", "PrepareFlexiWalker, JIT off");
  report.Metric("runtime.edge_cost_ratio", prep.params.edge_cost_ratio, "ratio",
                "profiled EdgeCost_RJS / EdgeCost_RVS");

  options.host_threads = 1;
  options.edge_cost_ratio = prep.params.edge_cost_ratio;
  KernelProbe model = RunOnce(graph, logic, starts, seed, options);
  KernelProbe again = RunOnce(graph, logic, starts, seed, options);
  options.strategy = flexi::SelectionStrategy::kAlwaysRjs;
  KernelProbe rjs = RunOnce(graph, logic, starts, seed, options);
  options.strategy = flexi::SelectionStrategy::kAlwaysRvs;
  KernelProbe rvs = RunOnce(graph, logic, starts, seed, options);
  const flexi::SelectionCounters& sel = model.result.selection;
  std::string base = std::to_string(model.steps) + " steps, 1 thread";
  double picks = static_cast<double>(sel.chose_rjs + sel.chose_rvs);
  report.Metric("runtime.rjs_share", picks > 0 ? sel.chose_rjs / picks : 0.0, "share",
                "eRJS picks / " + std::to_string(static_cast<uint64_t>(picks)) + " selections");
  report.Metric("runtime.costmodel_ns_per_step", model.ns_per_step, "ns", base);
  report.Metric("sampling.erjs_ns_per_step", rjs.ns_per_step, "ns", base + ", kAlwaysRjs");
  report.Metric("sampling.ervs_ns_per_step", rvs.ns_per_step, "ns", base + ", kAlwaysRvs");
  const flexi::CostCounters& cost = model.result.cost;
  report.Metric("simt.sim_ms", model.result.sim_ms, "ms", "simulated GPU time, cost model");
  report.Metric("simt.random_tx_per_step",
                static_cast<double>(cost.random_transactions) / std::max<uint64_t>(model.steps, 1),
                "tx/step", base);
  report.Metric("simt.rng_draws_per_step",
                static_cast<double>(cost.rng_draws) / std::max<uint64_t>(model.steps, 1),
                "draws/step", base);
  report.Check(model.result.sim_ms == again.result.sim_ms &&
                   sel.chose_rjs == again.result.selection.chose_rjs &&
                   sel.chose_rvs == again.result.selection.chose_rvs &&
                   model.result.paths == again.result.paths,
               "simt.sim_ms, selection counts and paths repeat exactly (1-thread probe)");
}

// Compiler layer: one JIT compile into a fresh cache directory, then
// 1-thread in-memory PPR interpreted vs compiled over the same starts.
double CompilePprKernel(const std::string& cache_dir) {
  flexi::PersonalizedPageRankWalk ppr(0.15, kWalkLength);
  flexi::jit::StepKernelSpec spec;
  std::string reason;
  std::string source = flexi::jit::EmitStepKernelSource(ppr.program(), spec, &reason);
  Clock::time_point t0 = Clock::now();
  if (!source.empty()) {
    flexi::jit::KernelCache::Global().GetOrCompile(source, cache_dir, false)->WaitReady();
  }
  return SecondsSince(t0);
}

void ProbeCompiler(const Graph& graph, std::span<const NodeId> starts, uint64_t seed,
                   const std::string& cache_dir, std::optional<double> compile_s,
                   Report& report) {
  if (!compile_s) {
    compile_s = CompilePprKernel(cache_dir);
  }
  report.Metric("compiler.jit_compile_s", *compile_s, "s", "PPR kernel, fresh cache dir");
  flexi::PersonalizedPageRankWalk ppr(0.15, kWalkLength);
  FlexiWalkerOptions options;
  options.host_threads = 1;
  options.edge_cost_ratio = kPinnedEdgeCostRatio;
  KernelProbe interp = RunOnce(graph, ppr, starts, seed, options);
  options.jit = flexi::jit::JitMode::kOn;
  options.jit_cache_dir = cache_dir;
  KernelProbe jit = RunOnce(graph, ppr, starts, seed, options);
  std::string base = std::to_string(interp.steps) + " PPR steps, 1 thread, in memory";
  report.Metric("sampling.interp_ns_per_step", interp.ns_per_step, "ns", base);
  report.Metric("compiler.jit_ns_per_step", jit.ns_per_step, "ns", base);
  report.Check(interp.result.paths == jit.result.paths, "compiled PPR paths == interpreted");
}

// Reads every block of `store` once through BlockStore::ReadBlock.
void ReportBlockRead(const flexi::BlockStore& store, Report& report) {
  flexi::BlockData data;
  uint64_t bytes = 0;
  Clock::time_point t0 = Clock::now();
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    store.ReadBlock(b, data);
    bytes += store.BlockPayloadBytes(b);
  }
  report.Metric("graph.block_read_mb_per_s", bytes / 1e6 / SecondsSince(t0), "MB/s",
                std::to_string(store.num_blocks()) + " blocks read once");
}

// Block-cache and parking figures of out-of-core runs totalling `steps`.
void ReportOutOfCore(const flexi::OutOfCoreStats& stats, uint64_t steps,
                     const std::string& source, Report& report) {
  double acquires = static_cast<double>(stats.cache_hits + stats.block_loads);
  double per_step = 1.0 / static_cast<double>(std::max<uint64_t>(steps, 1));
  std::string base = std::to_string(steps) + " PPR steps out of core, " + source;
  report.Metric("graph.cache_hit_share", acquires > 0 ? stats.cache_hits / acquires : 0.0,
                "share", "hits / block acquires, " + source);
  report.Metric("graph.bytes_read_per_step", stats.bytes_read * per_step, "B/step", base);
  report.Metric("walker.parks_per_step", stats.parks * per_step, "parks/step", base);
}

// Graph layer on a graph the workload keeps in memory: partition it, read
// every block once, and walk PPR out of core over a small start set.
void ProbeGraphTier(const Graph& graph, std::span<const NodeId> starts, uint64_t seed,
                    const std::string& work_dir, Report& report) {
  std::string path = work_dir + "/probe.blocks";
  Clock::time_point t0 = Clock::now();
  flexi::PartitionToBlockFile(graph, path, kBlockBytes);
  report.Metric("graph.partition_s", SecondsSince(t0), "s", "1 MiB blocks");
  {
    flexi::BlockStore store = flexi::BlockStore::Open(path);
    ReportBlockRead(store, report);
    flexi::PersonalizedPageRankWalk ppr(0.15, kWalkLength);
    FlexiWalkerOptions options;
    options.edge_cost_ratio = kPinnedEdgeCostRatio;
    flexi::OutOfCoreStats stats;
    WalkResult result = flexi::RunFlexiWalkerOutOfCore(store, ppr, options, kCacheBlocks, starts,
                                                       seed, &stats);
    ReportOutOfCore(stats, CountSteps(result.paths, result.path_stride), "probe", report);
  }
  std::filesystem::remove(path);
}

// Walker layer: nproc vs 1-thread engine throughput on the same starts.
void ProbeScaling(const Graph& graph, const WalkLogic& logic, std::span<const NodeId> starts,
                  uint64_t seed, Report& report) {
  FlexiWalkerOptions options;
  options.host_threads = 1;
  KernelProbe one = RunOnce(graph, logic, starts, seed, options);
  options.host_threads = Nproc();
  KernelProbe all = RunOnce(graph, logic, starts, seed, options);
  report.Metric("walker.scaling", one.ns_per_step / std::max(all.ns_per_step, 1e-9), "x",
                std::to_string(Nproc()) + " threads vs 1, " + std::to_string(all.steps) +
                    " steps");
}

// Walker and net layers in-process: WalkService::Submit().get() for 1- and
// 512-query batches, then a standalone BatchCoalescer at the CLI's serving
// defaults timing lone requests from Enqueue to completion.
void ProbeServiceAndCoalescer(const Graph& graph, const WalkLogic& logic,
                              FlexiWalkerOptions options, std::span<const NodeId> pool,
                              uint64_t seed, Report& report) {
  auto service = flexi::MakeFlexiWalkerService(graph, logic, options, seed, 2);
  std::mt19937_64 rng(seed + 99);
  auto pick = [&] { return pool[rng() % pool.size()]; };
  auto time_batches = [&](size_t size, int reps) {
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
      flexi::WalkBatch batch;
      for (size_t q = 0; q < size; ++q) {
        batch.starts.push_back(pick());
      }
      Clock::time_point t0 = Clock::now();
      service->Submit(std::move(batch)).get();
      us.push_back(MicrosSince(t0, Clock::now()));
    }
    return us;
  };
  time_batches(1, 20);  // warm the pool
  std::vector<double> b1 = time_batches(1, 400);
  std::vector<double> b512 = time_batches(512, 12);
  report.Metric("walker.service_us.b1.p50", Percentile(b1, 0.5), "us", "400 x 1-query batches");
  report.Metric("walker.service_us.b1.p99", Percentile(b1, 0.99), "us", "400 x 1-query batches");
  report.Metric("walker.service_us.b512.p50", Percentile(b512, 0.5), "us",
                "12 x 512-query batches");
  report.Metric("walker.service_us.b512.p99", Percentile(b512, 0.99), "us",
                "12 x 512-query batches (max)");

  // Library defaults: the CLI's 200 us window and 512-query flush. The
  // CLI's adaptive window is left to the library default because ROADMAP
  // item 3(b) may delete that option.
  std::vector<double> lone;
  {
    flexi::BatchCoalescer coalescer(*service, flexi::BatchCoalescer::Options{});
    for (int i = 0; i < 400; ++i) {
      std::promise<void> done;
      std::future<void> ready = done.get_future();
      Clock::time_point t0 = Clock::now();
      coalescer.Enqueue({pick()},
                        [&done](flexi::BatchCoalescer::RequestResult) { done.set_value(); });
      ready.get();
      lone.push_back(MicrosSince(t0, Clock::now()));
    }
    coalescer.Shutdown();
  }
  service->Shutdown();
  report.Metric("net.coalescer_us.p50", Percentile(lone, 0.5), "us",
                "400 lone requests, Enqueue -> done");
  report.Metric("net.coalescer_us.p99", Percentile(lone, 0.99), "us",
                "400 lone requests, Enqueue -> done");
}

// ---------------------------------------------------------- server child --
// The shipped CLI in --listen mode as a child process. Stdin EOF stops it.
class ServerChild {
 public:
  ServerChild() = default;
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;
  ~ServerChild() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Stop();
    }
  }

  bool Start(const std::string& cli, const std::vector<std::string>& args, std::string* error) {
    int in_pipe[2];
    int out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      *error = "pipe failed";
      return false;
    }
    std::vector<std::string> argv_text = {cli};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_text) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec; dup2 clears
      // O_CLOEXEC on the two descriptors the child keeps.
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    // Wait for "listening on 127.0.0.1:<port>".
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    std::string text;
    while (Clock::now() < deadline) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) {
        continue;
      }
      char buf[4096];
      ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      text.append(buf, static_cast<size_t>(n));
      size_t at = text.find("listening on 127.0.0.1:");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(std::atoi(text.c_str() + at + 23));
        return port_ != 0;
      }
    }
    *error = "server did not report listening: " + text;
    return false;
  }

  uint16_t port() const { return port_; }

  double PeakRssMb() const { return pb::PeakRssMb(std::to_string(pid_)); }

  // Closes stdin (the CLI's stop signal) and waits for the exit, killing
  // the child if it has not exited within 30 s; true on exit code 0.
  bool Stop() {
    if (pid_ <= 0) {
      return false;
    }
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
    // Drain stdout until EOF (the child exiting) so it never blocks on a
    // full pipe.
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    char buf[4096];
    while (Clock::now() < deadline) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0 && ::read(stdout_fd_, buf, sizeof(buf)) <= 0) {
        break;
      }
    }
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

std::vector<std::string> ServerArgs(uint64_t seed, const std::string& trace_out) {
  std::vector<std::string> args = {"--listen",   "0",
                                   "--dataset",  "SK",
                                   "--workload", "deepwalk",
                                   "--length",   std::to_string(kServeLength),
                                   "--threads",  std::to_string(std::max(1u, Nproc() - 2)),
                                   "--seed",     std::to_string(seed),
                                   "--static-cache",
                                   "--workloads", "node2vec"};
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  return args;
}

// ------------------------------------------------------ open-loop client --
struct Request {
  double sched_us = 0;  // due time, from the phase origin
  uint32_t conn = 0;    // 0: deepwalk (workload 0), 1: node2vec (workload 1)
  uint32_t step = 0;    // ladder step, or kWarmupStep
  std::vector<NodeId> starts;
  uint64_t tag = 0;  // the client's wire tag on its connection
  double sent_us = 0;
  double done_us = 0;
  bool ok = false;
  flexi::WalkClient::Result result;

  double RttUs() const { return ok ? done_us - sched_us : INFINITY; }
};

struct Step {
  double rate = 0;     // requests/s
  double seconds = 0;  // step length
  // The steps of one level are analysed together.
  uint32_t level = kNominalLevel;
  // The step starts once every request sent before it is answered.
  bool drain = false;
};

// Poisson arrivals per step; each request is a 1-query DeepWalk request, or
// with probability kNode2VecShare a node2vec request of 1..64 starts
// (log-uniform). Everything is drawn from `seed`.
std::vector<Request> MakeSchedule(const std::vector<Step>& ladder, NodeId num_nodes,
                                  uint64_t seed) {
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1Dull + 5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Request> out;
  double step_begin = 0;
  for (uint32_t s = 0; s < ladder.size(); ++s) {
    std::exponential_distribution<double> gap(ladder[s].rate / 1e6);
    double end = step_begin + ladder[s].seconds * 1e6;
    for (double t = step_begin + gap(rng); t < end; t += gap(rng)) {
      Request r;
      r.sched_us = t;
      r.step = s;
      size_t queries = 1;
      if (unit(rng) < kNode2VecShare) {
        r.conn = 1;
        queries = std::clamp<size_t>(
            static_cast<size_t>(std::exp(unit(rng) * std::log(kMaxNode2VecStarts + 1.0))), 1,
            kMaxNode2VecStarts);
      }
      for (size_t q = 0; q < queries; ++q) {
        r.starts.push_back(static_cast<NodeId>(rng() % num_nodes));
      }
      out.push_back(std::move(r));
    }
    step_begin = end;
  }
  return out;
}

// Waits on one connection's responses in submission order, stamps each
// request's completion time and counts it in `answered`.
class Waiter {
 public:
  Waiter(Clock::time_point origin, std::atomic<size_t>& answered)
      : origin_(origin), answered_(answered), thread_([this] { Loop(); }) {}
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  ~Waiter() { Finish(); }

  void Push(Request* request, std::future<flexi::WalkClient::Result> response) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back({request, std::move(response)});
    cv_.notify_one();
  }
  void Finish() {
    if (thread_.joinable()) {
      Push(nullptr, {});
      thread_.join();
    }
  }

 private:
  struct Item {
    Request* request = nullptr;  // null: the end-of-stream marker
    std::future<flexi::WalkClient::Result> response;
  };
  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !queue_.empty(); });
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      if (item.request == nullptr) {
        return;
      }
      try {
        item.request->result = item.response.get();
        item.request->ok = true;
      } catch (const std::exception&) {
        item.request->ok = false;
      }
      item.request->done_us = MicrosSince(origin_, Clock::now());
      answered_.fetch_add(1);
    }
  }

  Clock::time_point origin_;
  std::atomic<size_t>& answered_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  std::thread thread_;
};

// One served run: start the CLI server, connect, send the schedule open
// loop, collect responses, stop the server.
struct ServePhase {
  std::vector<Step> ladder;
  std::vector<double> step_begin_us;  // from the phase origin, drain waits included
  std::vector<Request> requests;
  double setup_s = 0;
  double peak_rss_mb = 0;  // server VmHWM by the end of the nominal step
  double wall_s = 0;
  bool server_ok = false;
  std::string trace_path;  // non-empty: the server wrote its trace ring here
  Scrape before;           // --stats scrapes around the traffic
  Scrape after;
};

bool StartServing(const Options& opt, const std::string& trace_path,
                  ServerChild& server, std::vector<std::unique_ptr<flexi::WalkClient>>& clients,
                  std::string* error) {
  if (!server.Start(opt.cli, ServerArgs(opt.seed, trace_path), error)) {
    return false;
  }
  for (int c = 0; c < 2; ++c) {
    flexi::WalkClient::Options client_options;
    client_options.request_timeout_ms = 60000;
    clients.push_back(std::make_unique<flexi::WalkClient>(client_options));
    if (!clients.back()->Connect("127.0.0.1", server.port(), error)) {
      return false;
    }
  }
  return true;
}

ServePhase RunServePhase(const Options& opt, std::vector<Step> ladder, bool traced,
                         NodeId num_nodes, uint64_t schedule_seed, Report& report) {
  ServePhase phase;
  phase.ladder = ladder;
  if (traced) {
    phase.trace_path = opt.work_dir + "/trace_" + std::to_string(schedule_seed) + ".json";
  }
  Clock::time_point t0 = Clock::now();
  ServerChild server;
  std::vector<std::unique_ptr<flexi::WalkClient>> clients;
  std::string error;
  if (!StartServing(opt, phase.trace_path, server, clients, &error)) {
    report.Check(false, "server start: " + error);
    return phase;
  }
  phase.setup_s = SecondsSince(t0);
  phase.requests =
      MakeSchedule({{ladder[0].rate, kWarmupSeconds}}, num_nodes, schedule_seed ^ 0x3A3A3A3Aull);
  for (Request& r : phase.requests) {
    r.sched_us -= kWarmupSeconds * 1e6;  // before the measured origin
    r.step = kWarmupStep;
  }
  std::vector<Request> measured = MakeSchedule(ladder, num_nodes, schedule_seed);
  std::move(measured.begin(), measured.end(), std::back_inserter(phase.requests));
  phase.step_begin_us.assign(ladder.size(), 0);
  for (size_t s = 1; s < ladder.size(); ++s) {
    phase.step_begin_us[s] = phase.step_begin_us[s - 1] + ladder[s - 1].seconds * 1e6;
  }

  phase.before = ParseScrape(clients[0]->FetchStats());
  uint64_t next_tag[2] = {1, 0};  // the scrape consumed tag 1 on connection 0
  Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(5 + static_cast<int>(kWarmupSeconds * 1000));
  {
    std::atomic<size_t> answered{0};
    size_t submitted = 0;
    std::vector<std::unique_ptr<Waiter>> waiters;
    for (size_t c = 0; c < clients.size(); ++c) {
      waiters.push_back(std::make_unique<Waiter>(origin, answered));
    }
    uint32_t step = kWarmupStep;
    double delay_us = 0;  // what drain waits have added to the schedule so far
    for (Request& r : phase.requests) {
      if (r.step != kWarmupStep && ladder[r.step].level != kNominalLevel &&
          phase.peak_rss_mb == 0) {
        phase.peak_rss_mb = server.PeakRssMb();  // the footprint at the nominal rate
      }
      if (r.step != step) {
        step = r.step;
        if (ladder[step].drain) {
          while (answered.load() < submitted) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          double late = MicrosSince(origin, Clock::now()) - phase.step_begin_us[step];
          if (late > 0) {
            delay_us += late;
            for (size_t s = step; s < ladder.size(); ++s) {
              phase.step_begin_us[s] += late;
            }
          }
        }
      }
      if (step != kWarmupStep) {
        r.sched_us += delay_us;
      }
      Clock::time_point due =
          origin + std::chrono::nanoseconds(static_cast<int64_t>(r.sched_us * 1000));
      // Sleep most of the gap, then yield-spin the rest: sleeps overshoot by
      // tens of microseconds, and the yield hands the core to the server.
      std::this_thread::sleep_until(due - std::chrono::microseconds(60));
      while (Clock::now() < due) {
        std::this_thread::yield();
      }
      r.sent_us = MicrosSince(origin, Clock::now());
      r.tag = ++next_tag[r.conn];
      try {
        waiters[r.conn]->Push(&r, clients[r.conn]->Submit(r.starts, r.conn));
        ++submitted;
      } catch (const std::exception&) {
        r.done_us = r.sent_us;
      }
    }
    for (auto& waiter : waiters) {
      waiter->Finish();
    }
  }
  phase.wall_s = SecondsSince(origin);
  phase.after = ParseScrape(clients[0]->FetchStats());
  if (phase.peak_rss_mb == 0) {
    phase.peak_rss_mb = server.PeakRssMb();
  }
  for (auto& client : clients) {
    client->Close();
  }
  phase.server_ok = server.Stop();
  report.Check(phase.server_ok, "server child exited 0 after stdin EOF");
  return phase;
}

struct StepStats {
  size_t sent = 0;
  size_t failed = 0;
  double p50 = 0;
  double p99 = 0;         // median over windows of ~1000 requests of each window's p99
  double pooled_p99 = 0;  // p99 over the whole level
  size_t windows = 0;
  double late_p99 = 0;  // generator lateness: median of window p99s, like p99
  double late_max = 0;
  double drained_share = 0;  // median over steps of the share done by step end + the limit
  double steps_per_s = 0;
  bool meets = false;        // p99 within the limit, no failures, no backlog
};

// Latency of level `level` (and connection `conn`, or all), pooled over
// its steps, each request timed from its scheduled send. The level's p99 is
// the median of per-window p99s over windows of ~1000 requests: a box-wide
// stall of a few ms lands in one window instead of moving the whole tail.
StepStats AnalyzeLevel(const ServePhase& phase, uint32_t level, int conn = -1) {
  const std::vector<double>& begin = phase.step_begin_us;
  StepStats st;
  std::vector<double> rtt;
  std::map<std::pair<uint32_t, int64_t>, std::vector<double>> windows;
  std::map<std::pair<uint32_t, int64_t>, std::vector<double>> late_windows;
  std::map<uint32_t, double> last_done;
  std::map<uint32_t, std::pair<size_t, size_t>> drained;  // per step: drained, sent
  double late_max = 0;
  uint64_t steps = 0;
  for (const Request& r : phase.requests) {
    if (r.step == kWarmupStep || phase.ladder[r.step].level != level ||
        (conn >= 0 && r.conn != static_cast<uint32_t>(conn))) {
      continue;
    }
    const Step& step = phase.ladder[r.step];
    double end = begin[r.step] + step.seconds * 1e6;
    double window_us = std::min(step.seconds * 1e6, 1e9 / step.rate);
    ++st.sent;
    st.failed += r.ok ? 0 : 1;
    rtt.push_back(r.RttUs());
    std::pair<uint32_t, int64_t> window{
        r.step, static_cast<int64_t>((r.sched_us - begin[r.step]) / window_us)};
    windows[window].push_back(r.RttUs());
    late_windows[window].push_back(r.sent_us - r.sched_us);
    late_max = std::max(late_max, r.sent_us - r.sched_us);
    drained[r.step].first += r.ok && r.done_us <= end + kLatencyLimitUs ? 1 : 0;
    ++drained[r.step].second;
    if (r.ok) {
      last_done[r.step] = std::max(last_done[r.step], r.done_us);
      steps += CountSteps(r.result.paths, r.result.path_stride);
    }
  }
  std::vector<double> window_p99;
  for (auto& [index, values] : windows) {
    window_p99.push_back(Percentile(values, 0.99));
  }
  std::vector<double> late_p99;
  for (auto& [index, values] : late_windows) {
    late_p99.push_back(Percentile(values, 0.99));
  }
  // Delivery time: each step's length, or longer when its last response
  // came after the step ended.
  double delivery_us = 0;
  for (uint32_t s = 0; s < phase.ladder.size(); ++s) {
    if (phase.ladder[s].level == level) {
      double length = phase.ladder[s].seconds * 1e6;
      auto done = last_done.find(s);
      delivery_us += done == last_done.end() ? length
                                             : std::max(done->second - begin[s], length);
    }
  }
  st.windows = window_p99.size();
  st.p50 = Percentile(rtt, 0.5);
  st.p99 = Median(window_p99);
  st.pooled_p99 = Percentile(rtt, 0.99);
  st.late_p99 = Median(late_p99);
  st.late_max = late_max;
  std::vector<double> drained_share;
  for (auto& [step, counts] : drained) {
    drained_share.push_back(static_cast<double>(counts.first) / counts.second);
  }
  st.drained_share = drained_share.empty() ? 1 : Median(drained_share);
  st.steps_per_s = steps / (delivery_us / 1e6);
  st.meets = st.failed == 0 && st.p99 <= kLatencyLimitUs && st.drained_share >= 0.99;
  return st;
}

// Every served row must be a walk over SK edges and equal a one-shot engine
// replay of the same starts keyed by service-global query id.
void CheckServedRows(const ServePhase& phase, const Graph& sk, uint64_t seed, Report& report,
                     const std::string& label) {
  for (uint32_t conn = 0; conn < 2; ++conn) {
    std::vector<const Request*> rows;
    uint64_t ids = 0;
    for (const Request& r : phase.requests) {
      if (r.conn == conn && r.ok) {
        rows.push_back(&r);
        ids = std::max<uint64_t>(ids, r.result.first_query_id + r.result.num_queries);
      }
    }
    std::vector<NodeId> starts(ids, 0);
    size_t bad = 0;
    for (const Request* r : rows) {
      std::copy(r->starts.begin(), r->starts.end(), starts.begin() + r->result.first_query_id);
      bad += r->result.num_queries == r->starts.size()
                 ? BadRows(r->result.paths, r->result.path_stride, r->starts, false,
                           [&sk](NodeId u, NodeId v) { return sk.HasEdge(u, v); })
                 : 1;
    }
    FlexiWalkerOptions options;
    options.cache_static_tables = true;  // as the CLI's --static-cache
    std::unique_ptr<WalkLogic> logic;
    if (conn == 0) {
      logic = std::make_unique<flexi::DeepWalk>(kServeLength);
    } else {
      logic = std::make_unique<flexi::Node2VecWalk>(2.0, 0.5, kServeLength);
    }
    // The CLI seeds the extra workload with id i at seed + i.
    WalkResult replay = FlexiWalkerEngine(options).Run(sk, *logic, starts, seed + conn);
    size_t mismatched = 0;
    for (const Request* r : rows) {
      std::span<const NodeId> served(r->result.paths);
      std::span<const NodeId> oracle(
          replay.paths.data() + r->result.first_query_id * replay.path_stride,
          r->result.num_queries * replay.path_stride);
      mismatched += r->result.path_stride == replay.path_stride &&
                            std::equal(served.begin(), served.end(), oracle.begin(), oracle.end())
                        ? 0
                        : 1;
    }
    std::string name = conn == 0 ? "deepwalk" : "node2vec";
    report.Check(bad == 0, label + " " + name + ": every served row walks real edges (" +
                               std::to_string(rows.size()) + " responses)");
    report.Check(mismatched == 0, label + " " + name +
                                      ": served rows == one-shot replay by global query id");
  }
}

struct Span {
  std::string name;
  uint64_t start = 0;
  uint64_t dur = 0;
  uint64_t tag = 0;
  uint32_t workload = 0;
};

std::vector<Span> ReadTrace(const std::string& path) {
  std::vector<Span> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    char name[32] = {0};
    unsigned long long ts = 0;
    unsigned long long dur = 0;
    unsigned tid = 0;
    unsigned long long tag = 0;
    unsigned workload = 0;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%31[^\"]\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":%llu,\"dur\":"
                    "%llu,\"pid\":1,\"tid\":%u,\"args\":{\"tag\":%llu,\"workload\":%u}}",
                    name, &ts, &dur, &tid, &tag, &workload) == 6) {
      spans.push_back({name, ts, dur, tag, workload});
    }
  }
  return spans;
}

// Net-layer metrics of a traced served phase: server spans from the trace
// ring, wire time (client RTT from send minus the server's request span,
// matched by workload and tag), and --stats counter diffs.
void ReportNet(const ServePhase& phase, Report& report, const std::string& source) {
  std::vector<Span> spans = ReadTrace(phase.trace_path);
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::pair<uint32_t, uint64_t>, double> request_span;
  for (const Span& s : spans) {
    by_name[s.name].push_back(static_cast<double>(s.dur));
    if (s.name == "request") {
      request_span[{s.workload, s.tag}] = static_cast<double>(s.dur);
    }
  }
  for (const char* name :
       {"decode", "admit", "coalesce", "schedule", "complete", "flush", "request"}) {
    const std::vector<double>& d = by_name[name];
    std::string base = std::to_string(d.size()) + " spans, " + source;
    report.Metric(std::string("net.span.") + name + ".p50", BinnedQuantile(d, 0.5), "us", base);
    report.Metric(std::string("net.span.") + name + ".p99", BinnedQuantile(d, 0.99), "us", base);
  }
  const Scrape& b = phase.before;
  const Scrape& a = phase.after;
  std::vector<double> wire;
  std::vector<double> rtt[2];
  for (const Request& r : phase.requests) {
    if (!r.ok) {
      continue;
    }
    if (r.step != kWarmupStep) {
      rtt[r.conn].push_back(r.RttUs());
    }
    auto it = request_span.find({r.conn, r.tag});
    if (it != request_span.end()) {
      wire.push_back(r.done_us - r.sent_us - it->second);
    }
  }
  report.Check(wire.size() * 2 >= std::min<size_t>(phase.requests.size(), 8000),
               "trace ring spans match client requests by tag (" + std::to_string(wire.size()) +
                   " matched)");
  std::string wire_base = std::to_string(wire.size()) + " requests, " + source;
  report.Metric("net.wire_us.p50", Percentile(wire, 0.5), "us", wire_base);
  report.Metric("net.wire_us.p99", Percentile(wire, 0.99), "us", wire_base);
  // The per-workload split: DeepWalk is the server's workload "default".
  for (uint32_t conn = 0; conn < 2; ++conn) {
    std::string name = conn == 0 ? "deepwalk" : "node2vec";
    report.Metric("net.rtt_p99_us." + name, Percentile(rtt[conn], 0.99), "us",
                  std::to_string(rtt[conn].size()) + " requests, " + source);
    std::string label = conn == 0 ? "{workload=\"default\"}" : "{workload=\"node2vec\"}";
    double batches = Delta(b, a, "flexi_coalescer_batch_queries_count" + label);
    double queries = Delta(b, a, "flexi_coalescer_batch_queries_sum" + label);
    report.Metric(conn == 0 ? "net.queries_per_batch" : "net.queries_per_batch.node2vec",
                  batches > 0 ? queries / batches : 0.0, "queries",
                  std::to_string(static_cast<uint64_t>(batches)) + " " + name + " batches, " +
                      source);
  }
  std::string flushes = "flexi_coalescer_flushes_total";
  double total = SumFamily(a, flushes, "workload=\"default\"") -
                 SumFamily(b, flushes, "workload=\"default\"");
  for (const char* reason : {"size", "deadline", "sparse", "single"}) {
    std::string needle = std::string("workload=\"default\",reason=\"") + reason + "\"";
    double n = SumFamily(a, flushes, needle) - SumFamily(b, flushes, needle);
    report.Metric(std::string("net.flush_share.") + reason, total > 0 ? n / total : 0.0, "share",
                  std::to_string(static_cast<uint64_t>(total)) + " deepwalk flushes, " + source);
  }
  std::string blocked = "flexi_coalescer_requests_would_block_total";
  report.Metric("net.would_block", SumFamily(a, blocked, "") - SumFamily(b, blocked, ""),
                "count", "admissions that waited, " + source);
}

// Walker-layer counters over a phase, from registry scrapes (in-process for
// offline workloads, the server's --stats for served ones).
// `batches` is the phase's engine runs offline, scheduler batches served.
void ReportWalkerCounters(const Scrape& b, const Scrape& a, unsigned threads, double wall_s,
                          uint64_t steps, uint64_t batches, Report& report,
                          const std::string& source) {
  double busy_us = Delta(b, a, "flexi_worker_busy_us_total");
  std::string base = std::to_string(steps) + " steps, " + source;
  report.Metric("walker.busy_share", busy_us / (threads * wall_s * 1e6), "share",
                "busy us / (" + std::to_string(threads) + " threads x wall), " + source);
  report.Metric("walker.wavefront_passes", Delta(b, a, "flexi_scheduler_wavefront_passes_total"),
                "count", base);
  report.Metric("walker.steals", Delta(b, a, "flexi_scheduler_steals_total"), "count", base);
  report.Metric("walker.wakes_per_batch",
                batches > 0 ? Delta(b, a, "flexi_worker_wakes_total") / batches : 0.0, "wakes",
                std::to_string(batches) + " batches, " + source);
}

// The net layer while an offline workload runs (they never touch it): a
// short traced serve-mixed run at the nominal rate, its rows checked.
void ProbeNetFromOffline(const Options& opt, Report& report) {
  Graph sk = MakeSk();
  ServePhase probe = RunServePhase(opt, {{kNominalRate, 2.0}}, true, sk.num_nodes(),
                                   opt.seed + 1000, report);
  if (probe.server_ok) {
    CheckServedRows(probe, sk, opt.seed, report, "net probe");
    ReportNet(probe, report, "2 s serve-mixed probe");
  }
}

// ------------------------------------------------------ served workloads --
std::vector<Step> MixedLadder(double seconds) {
  // 30% of the run at the nominal rate and 3% at the top rate; the knee
  // steps share the rest. Every sweep after the first, and the top step,
  // waits for the last sweep's backlog to drain.
  std::vector<Step> ladder{{kNominalRate, seconds * 0.3}};
  double knee = seconds * (1 - 0.3 - 0.03) / (kKneeCycles * std::size(kKneeRates));
  for (int cycle = 0; cycle < kKneeCycles; ++cycle) {
    for (uint32_t i = 0; i < std::size(kKneeRates); ++i) {
      ladder.push_back({kKneeRates[i], knee, i + 1, cycle > 0 && i == 0});
    }
  }
  ladder.push_back({kTopRate, seconds * 0.03, kTopLevel, true});
  return ladder;
}

double LevelRate(uint32_t level) {
  return level == kNominalLevel ? kNominalRate
         : level == kTopLevel   ? kTopRate
                                : kKneeRates[level - 1];
}

// Rate at which the levels' p99 crosses the limit: the highest passing
// level, refined by log-linear interpolation of p99 toward the first failing
// level (a continuous reading of "highest rate that meets the limit").
double SloQps(const std::vector<StepStats>& levels) {
  size_t pass = 0;
  while (pass < levels.size() && levels[pass].meets) {
    ++pass;
  }
  if (pass == 0) {
    return kNominalRate * kLatencyLimitUs / std::max(levels[0].p99, 1.0);
  }
  if (pass == levels.size()) {
    return kTopRate;
  }
  const StepStats& lo = levels[pass - 1];
  const StepStats& hi = levels[pass];
  double lo_p99 = std::max(lo.p99, 1.0);
  double hi_p99 = std::isfinite(hi.p99) ? std::max(hi.p99, lo_p99 * 1.0001) : lo_p99 * 1e6;
  double f = std::clamp(std::log(kLatencyLimitUs / lo_p99) / std::log(hi_p99 / lo_p99), 0.0, 1.0);
  return LevelRate(pass - 1) + f * (LevelRate(pass) - LevelRate(pass - 1));
}

int ServeMixed(const Options& opt, Report& report) {
  if (opt.setup_only) {
    Clock::time_point t0 = Clock::now();
    ServerChild server;
    std::vector<std::unique_ptr<flexi::WalkClient>> clients;
    std::string error;
    bool ok = StartServing(opt, "", server, clients, &error);
    double setup_s = SecondsSince(t0);
    clients.clear();
    ok = server.Stop() && ok;
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    return ok ? 0 : 1;
  }
  std::vector<Step> ladder = MixedLadder(opt.seconds);
  Clock::time_point g0 = Clock::now();
  Graph sk = MakeSk();  // the replay oracle's copy of the served graph
  double generate_s = SecondsSince(g0);
  ServePhase phase = RunServePhase(opt, ladder, false, sk.num_nodes(), opt.seed, report);
  if (!phase.server_ok) {
    return 1;
  }
  std::vector<StepStats> levels;
  for (uint32_t level = kNominalLevel; level <= kTopLevel; ++level) {
    StepStats st = AnalyzeLevel(phase, level);
    int repeats = 0;
    double seconds = 0;
    for (const Step& step : ladder) {
      repeats += step.level == level ? 1 : 0;
      seconds = step.level == level ? step.seconds : seconds;
    }
    char line[320];
    std::snprintf(line, sizeof(line),
                  "level %u: %.0f req/s x %d x %.2fs | sent %zu ok %zu failed %zu | p50 %.0f us "
                  "| p99 %.0f us (median of %zu windows; pooled %.0f) | drained %.3f | late p99 "
                  "%.0f max %.0f us | %s",
                  level, LevelRate(level), repeats, seconds,
                  st.sent, st.sent - st.failed, st.failed, st.p50, st.p99, st.windows,
                  st.pooled_p99, st.drained_share, st.late_p99, st.late_max,
                  st.meets ? "meets limit" : "over limit");
    report.Note(line);
    // A late generator offers less than the level's rate, which could only
    // make a level look better: every level that meets the limit (and the
    // nominal one) must show the sender kept its schedule. Over the limit,
    // lateness is the overload itself (admission backpressure stalls sends).
    if (st.meets || level == kNominalLevel) {
      report.Check(st.late_p99 <= kMaxLatenessP99Us && st.late_max <= kMaxLatenessUs,
                   "level " + std::to_string(level) + " generator lateness within bounds");
    }
    levels.push_back(st);
  }
  size_t attempted = phase.requests.size();
  size_t failed = 0;
  for (const Request& r : phase.requests) {
    failed += r.ok ? 0 : 1;
  }
  report.Note(std::to_string(attempted) + " requests attempted (warm-up included), " +
              std::to_string(attempted - failed) + " ok, " + std::to_string(failed) + " failed");
  report.Count(attempted, failed);
  CheckServedRows(phase, sk, opt.seed, report, "untraced");
  const StepStats& nominal = levels[kNominalLevel];
  StepStats dw = AnalyzeLevel(phase, kNominalLevel, 0);
  StepStats nv = AnalyzeLevel(phase, kNominalLevel, 1);
  report.Check(dw.sent > 0 && nv.sent > 0 && dw.failed == 0 && nv.failed == 0,
               "both workloads served at the nominal step");
  report.Check(!levels.back().meets, "top ladder step breaches the p99 limit");
  if (!opt.trace) {
    report.Metric("setup_s", phase.setup_s, "s", "server child start -> listening + connected");
    report.Metric("peak_rss_mb", phase.peak_rss_mb, "MB",
                  "server child VmHWM by the end of the nominal step");
    report.Metric("steps_per_s", nominal.steps_per_s, "1/s",
                  "delivered steps/s at the nominal rate");
    report.Metric("rtt_p50_us", nominal.p50, "us",
                  std::to_string(nominal.sent) + " requests from scheduled send");
    report.Metric("rtt_p99_us", nominal.p99, "us",
                  "median of " + std::to_string(nominal.windows) + " window p99s, " +
                      std::to_string(nominal.sent) + " requests");
    report.Metric("slo_qps", SloQps(levels), "1/s",
                  "ladder rate where p99 crosses the limit, " + std::to_string(kKneeCycles) +
                      " sweeps pooled");
    report.Metric("ok_share", 1.0 - static_cast<double>(failed) / std::max<size_t>(attempted, 1),
                  "share", std::to_string(attempted) + " requests");
    return 0;
  }

  // Traced run: the nominal step for the whole run, to a server writing its
  // trace ring, with --stats scrapes around it.
  ServePhase traced = RunServePhase(opt, {{kNominalRate, opt.seconds}}, true,
                                    sk.num_nodes(), opt.seed, report);
  if (!traced.server_ok) {
    return 1;
  }
  CheckServedRows(traced, sk, opt.seed, report, "traced");
  std::string source = "serve-mixed nominal step";
  ReportNet(traced, report, source);
  ReportWalkerCounters(
      traced.before, traced.after, std::max(1u, Nproc() - 2), traced.wall_s,
      static_cast<uint64_t>(Delta(traced.before, traced.after, "flexi_scheduler_steps_total")),
      static_cast<uint64_t>(Delta(traced.before, traced.after, "flexi_scheduler_batches_total")),
      report, source);
  report.Metric("obs.trace_overhead_share",
                (AnalyzeLevel(traced, kNominalLevel).p50 - nominal.p50) / nominal.p50, "share",
                "traced vs untraced rtt p50 at the nominal rate");

  // In-process layer probes on the served graph: the runtime and kernels
  // on node2vec (DeepWalk's static tables skip the selector), the service
  // and coalescer on DeepWalk with static tables, as the server runs it.
  report.Metric("graph.generate_s", generate_s, "s", "SK stand-in, in-process");
  std::vector<NodeId> probe_starts = SeededStrided(sk.num_nodes(), 128, opt.seed);
  flexi::Node2VecWalk node2vec(2.0, 0.5, kServeLength);
  ProbeGraphTier(sk, probe_starts, opt.seed, opt.work_dir, report);
  ProbeRuntimeAndKernels(sk, node2vec, probe_starts, opt.seed, report);
  ProbeCompiler(sk, probe_starts, opt.seed, opt.work_dir + "/jit_probe", std::nullopt, report);
  ProbeScaling(sk, node2vec, probe_starts, opt.seed, report);
  flexi::DeepWalk deepwalk(kServeLength);
  FlexiWalkerOptions service_options;
  service_options.cache_static_tables = true;
  service_options.host_threads = std::max(1u, Nproc() - 2);
  ProbeServiceAndCoalescer(sk, deepwalk, service_options, probe_starts, opt.seed, report);
  return 0;
}

// ----------------------------------------------------- offline workloads --
struct OfflinePhase {
  std::vector<std::vector<double>> batch_rtt_us;  // per batch: each Run's wall time
  std::vector<double> cycle_steps_per_s;  // per full cycle: steps / walk wall time
  std::vector<double> cycle_walks_per_s;  // per full cycle: walks / Run wall time
  size_t runs = 0;
  uint64_t steps = 0;
  uint64_t queries = 0;
  size_t failed = 0;          // runs that threw
  uint64_t failed_walks = 0;  // their walks
  double wall_s = 0;
  Scrape before;
  Scrape after;
  flexi::OutOfCoreStats ooc;
  bool repeat_ok = true;  // every repeated batch matched its first run
  double peak_rss_mb = 0;  // VmHWM at the end of the phase, before any checks

  // Throughput as the median over full cycles (every batch once), so a
  // stall of the host lands in one cycle instead of the whole reading.
  double StepsPerS() const { return Median(cycle_steps_per_s); }
  // Each batch's latency is its median Run; quantiles are over batches.
  double RttUs(double q) const {
    std::vector<double> per_batch;
    for (const std::vector<double>& runs_of_batch : batch_rtt_us) {
      if (!runs_of_batch.empty()) {
        per_batch.push_back(Median(runs_of_batch));
      }
    }
    return Percentile(per_batch, q);
  }
};

struct BatchRecord {
  std::vector<NodeId> paths;
  double sim_ms = 0;
  flexi::SelectionCounters selection;
  bool seen = false;
};

// Runs whole cycles of the batches, round-robin, until `seconds` have
// passed (at least one cycle). The first cycle's rows are kept; every later
// run of a batch must repeat its rows, sim_ms and selection counts exactly.
template <typename Batch, typename RunBatch>
OfflinePhase RunOfflinePhase(size_t num_batches, double seconds, bool traced,
                             std::vector<BatchRecord>& first, const Batch& batch,
                             const RunBatch& run_batch) {
  OfflinePhase phase;
  phase.batch_rtt_us.resize(num_batches);
  first.resize(num_batches);
  phase.before = InProcessScrape();
  Clock::time_point t0 = Clock::now();
  uint64_t cycle_steps = 0;
  uint64_t cycle_walks = 0;
  double cycle_walk_s = 0;
  double cycle_run_s = 0;
  // At least one full cycle, then whole cycles until `seconds` have passed.
  for (size_t i = 0; i % num_batches != 0 || i == 0 || SecondsSince(t0) < seconds; ++i) {
    size_t b = i % num_batches;
    flexi::OutOfCoreStats stats;
    uint64_t begin_us = flexi::obs::NowMicros();
    Clock::time_point r0 = Clock::now();
    WalkResult result;
    try {
      result = run_batch(b, &stats);
    } catch (const std::exception& e) {
      std::printf("  batch %zu failed: %s\n", b, e.what());
      ++phase.failed;
      phase.failed_walks += batch(b).size();
      continue;
    }
    double rtt_us = MicrosSince(r0, Clock::now());
    if (traced) {
      flexi::obs::TraceRing::Global().Record("bench.run", i + 1, 0, begin_us,
                                             flexi::obs::NowMicros());
    }
    uint64_t steps = CountSteps(result.paths, result.path_stride);
    ++phase.runs;
    phase.batch_rtt_us[b].push_back(rtt_us);
    phase.steps += steps;
    phase.queries += result.num_queries;
    cycle_steps += steps;
    cycle_walks += result.num_queries;
    cycle_walk_s += result.wall_ms / 1000.0;
    cycle_run_s += rtt_us / 1e6;
    if (b + 1 == num_batches) {
      phase.cycle_steps_per_s.push_back(cycle_steps / cycle_walk_s);
      phase.cycle_walks_per_s.push_back(cycle_walks / cycle_run_s);
      cycle_steps = cycle_walks = 0;
      cycle_walk_s = cycle_run_s = 0;
    }
    phase.ooc.block_loads += stats.block_loads;
    phase.ooc.block_evictions += stats.block_evictions;
    phase.ooc.cache_hits += stats.cache_hits;
    phase.ooc.bytes_read += stats.bytes_read;
    phase.ooc.parks += stats.parks;
    BatchRecord& rec = first[b];
    if (!rec.seen) {
      rec.seen = true;
      rec.paths = std::move(result.paths);
      rec.sim_ms = result.sim_ms;
      rec.selection = result.selection;
    } else if (rec.paths != result.paths || rec.sim_ms != result.sim_ms ||
               rec.selection.chose_rjs != result.selection.chose_rjs ||
               rec.selection.chose_rvs != result.selection.chose_rvs) {
      phase.repeat_ok = false;
    }
  }
  phase.wall_s = SecondsSince(t0);
  phase.after = InProcessScrape();
  phase.peak_rss_mb = PeakRssMb("self");
  return phase;
}

void ReportOfflineEndToEnd(const OfflinePhase& phase, double setup_s,
                           const std::string& peak_base, Report& report) {
  report.Metric("setup_s", setup_s, "s", "process start -> first timed run");
  report.Metric("peak_rss_mb", phase.peak_rss_mb, "MB", peak_base);
  std::string cycles = std::to_string(phase.cycle_steps_per_s.size()) + " cycles";
  report.Metric("steps_per_s", phase.StepsPerS(), "1/s",
                "median over " + cycles + " of steps / walk wall time (" +
                    std::to_string(phase.steps) + " steps)");
  std::string runs = std::to_string(phase.runs) + " engine runs, per-batch median";
  report.Metric("rtt_p50_us", phase.RttUs(0.5), "us", runs);
  report.Metric("rtt_p99_us", phase.RttUs(0.99), "us", runs);
  report.Metric("slo_qps", Median(phase.cycle_walks_per_s), "1/s",
                "median over " + cycles + " of walks / Run wall time");
  double attempted = static_cast<double>(phase.queries + phase.failed_walks);
  report.Metric("ok_share", 1.0 - phase.failed_walks / std::max(attempted, 1.0), "share",
                std::to_string(static_cast<uint64_t>(attempted)) + " walks");
}

void ReportOfflineChecks(const OfflinePhase& phase, Report& report) {
  report.Note(std::to_string(phase.runs + phase.failed) + " runs attempted, " +
              std::to_string(phase.runs) + " ok, " + std::to_string(phase.failed) +
              " failed | " + std::to_string(phase.queries + phase.failed_walks) +
              " walks attempted, " + std::to_string(phase.failed_walks) + " failed");
  report.Count(phase.queries + phase.failed_walks, phase.failed_walks);
  report.Check(phase.failed == 0, "no engine run failed");
  report.Check(phase.repeat_ok, "repeated batches repeat rows, sim_ms and selection counts");
}

// The traced half of an offline run: the same cycles again with the
// in-process trace ring on and a span around every engine call, checked
// against the untraced rows, plus the walker counters over it.
template <typename Batch, typename RunBatch>
OfflinePhase RunTracedOfflinePhase(const Options& opt, const OfflinePhase& untraced,
                                   const std::vector<BatchRecord>& first, size_t num_batches,
                                   const Batch& batch, const RunBatch& run_batch,
                                   Report& report) {
  flexi::obs::TraceRing::Global().Enable(1 << 16);
  std::vector<BatchRecord> traced_first;
  OfflinePhase traced =
      RunOfflinePhase(num_batches, opt.seconds, true, traced_first, batch, run_batch);
  flexi::obs::TraceRing::Global().Disable();
  bool same = traced.repeat_ok;
  for (size_t b = 0; b < num_batches; ++b) {
    same = same && traced_first[b].paths == first[b].paths;
  }
  report.Check(same, "traced run repeats the untraced rows");
  report.Metric("obs.trace_overhead_share",
                (untraced.StepsPerS() - traced.StepsPerS()) / untraced.StepsPerS(), "share",
                "steps/s lost with the trace ring on");
  ReportWalkerCounters(traced.before, traced.after, Nproc(), traced.wall_s, traced.steps,
                       traced.runs, report, opt.workload);
  return traced;
}

int OfflineNode2Vec(const Options& opt, Clock::time_point process_start, Report& report) {
  Clock::time_point g0 = Clock::now();
  Graph graph = MakeRmat(opt.seed, flexi::WeightDistribution::kPareto);
  double generate_s = SecondsSince(g0);
  flexi::Node2VecWalk logic(2.0, 0.5, kWalkLength);
  FlexiWalkerOptions options;
  options.host_threads = Nproc();
  {
    flexi::DeviceContext device(options.device);
    options.edge_cost_ratio =
        flexi::PrepareFlexiWalker(graph, logic, options, device).params.edge_cost_ratio;
  }
  double setup_s = SecondsSince(process_start);
  if (opt.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    return 0;
  }
  std::vector<NodeId> starts = SeededStrided(graph.num_nodes(), kNode2VecStride, opt.seed);
  size_t num_batches = NumBatches(starts, kNode2VecBatch);
  auto batch = [&](size_t b) { return BatchOf(starts, kNode2VecBatch, b); };
  uint64_t walk_seed = opt.seed + 7;
  FlexiWalkerEngine engine(options);
  auto run_batch = [&](size_t b, flexi::OutOfCoreStats*) {
    return engine.Run(graph, logic, batch(b), walk_seed);
  };
  std::vector<BatchRecord> first;
  OfflinePhase phase = RunOfflinePhase(num_batches, opt.seconds, false, first, batch, run_batch);
  ReportOfflineChecks(phase, report);

  size_t bad = 0;
  uint64_t rjs = 0;
  uint64_t rvs = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    bad += BadRows(first[b].paths, kWalkLength + 1, batch(b), false,
                   [&graph](NodeId u, NodeId v) { return graph.HasEdge(u, v); });
    rjs += first[b].selection.chose_rjs;
    rvs += first[b].selection.chose_rvs;
  }
  report.Check(bad == 0, "every node2vec row walks real edges (" + std::to_string(starts.size()) +
                             " rows)");
  FlexiWalkerOptions single = options;
  single.host_threads = 1;
  WalkResult reference =
      FlexiWalkerEngine(single).Run(graph, logic, batch(0).first(kParityRows), walk_seed);
  report.Check(RowsEqual(first[0].paths, reference.paths, kParityRows, kWalkLength + 1),
               "first " + std::to_string(kParityRows) + " rows == 1-thread run");
  report.Check(Delta(phase.before, phase.after, "flexi_scheduler_wavefront_passes_total") > 0,
               "wavefront loop engaged (passes > 0)");
  report.Check(rjs > 0 && rvs > 0, "cost model chose both kernels (eRJS " + std::to_string(rjs) +
                                       ", eRVS " + std::to_string(rvs) + ")");
  if (!opt.trace) {
    ReportOfflineEndToEnd(phase, setup_s, "benchmark process VmHWM", report);
    return 0;
  }

  RunTracedOfflinePhase(opt, phase, first, num_batches, batch, run_batch, report);
  report.Metric("graph.generate_s", generate_s, "s", "GenerateRmat + Pareto weights");
  std::vector<NodeId> probe_starts = SeededStrided(graph.num_nodes(), 512, opt.seed);
  ProbeGraphTier(graph, probe_starts, opt.seed, opt.work_dir, report);
  std::span<const NodeId> few = std::span<const NodeId>(probe_starts).first(256);
  ProbeRuntimeAndKernels(graph, logic, few, walk_seed, report);
  ProbeCompiler(graph, probe_starts, walk_seed, opt.work_dir + "/jit_probe", std::nullopt, report);
  ProbeScaling(graph, logic, std::span<const NodeId>(probe_starts).first(1024), walk_seed, report);
  FlexiWalkerOptions service_options = options;
  ProbeServiceAndCoalescer(graph, logic, service_options, probe_starts, walk_seed, report);
  ProbeNetFromOffline(opt, report);
  return 0;
}

int OfflinePprOoc(const Options& opt, Clock::time_point process_start, Report& report) {
  std::string block_path = opt.work_dir + "/ppr.blocks";
  std::string jit_dir = opt.work_dir + "/jit";
  Clock::time_point g0 = Clock::now();
  std::optional<Graph> graph = MakeRmat(opt.seed, flexi::WeightDistribution::kUniform);
  double generate_s = SecondsSince(g0);
  Clock::time_point p0 = Clock::now();
  flexi::PartitionToBlockFile(*graph, block_path, kBlockBytes);
  double partition_s = SecondsSince(p0);
  NodeId num_nodes = graph->num_nodes();
  if (!opt.trace) {
    graph.reset();  // out of core: the edges live on disk from here on
  }
  flexi::BlockStore store = flexi::BlockStore::Open(block_path);
  std::filesystem::remove_all(jit_dir);  // a fresh cache: set-up pays one compile
  double compile_s = CompilePprKernel(jit_dir);
  double setup_s = SecondsSince(process_start);
  if (opt.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    std::filesystem::remove(block_path);
    return 0;
  }
  flexi::PersonalizedPageRankWalk ppr(0.15, kWalkLength);
  FlexiWalkerOptions options;
  options.host_threads = Nproc();
  options.edge_cost_ratio = kPinnedEdgeCostRatio;
  options.jit = flexi::jit::JitMode::kOn;
  options.jit_cache_dir = jit_dir;
  std::vector<NodeId> starts = SeededStrided(num_nodes, kPprStride, opt.seed);
  size_t num_batches = NumBatches(starts, kPprBatch);
  auto batch = [&](size_t b) { return BatchOf(starts, kPprBatch, b); };
  uint64_t walk_seed = opt.seed + 7;
  auto run_batch = [&](size_t b, flexi::OutOfCoreStats* stats) {
    return flexi::RunFlexiWalkerOutOfCore(store, ppr, options, kCacheBlocks, batch(b), walk_seed,
                                          stats);
  };
  std::vector<BatchRecord> first;
  ResetPeakRss();  // the in-memory graph used for partitioning is gone
  OfflinePhase phase = RunOfflinePhase(num_batches, opt.seconds, false, first, batch, run_batch);
  ReportOfflineChecks(phase, report);

  // Edge check against the block file, reading each block once per pass:
  // pass 1 looks up every step from its previous node; steps that fail it
  // must pass 2, an edge from the row's start (a PPR teleport).
  struct Hop {
    NodeId from;
    NodeId to;
    NodeId start;
  };
  std::vector<Hop> hops;
  size_t bad_rows = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    std::span<const NodeId> s = batch(b);
    const std::vector<NodeId>& paths = first[b].paths;
    for (size_t row = 0; row < s.size(); ++row) {
      const NodeId* p = paths.data() + row * (kWalkLength + 1);
      bad_rows += p[0] == s[row] ? 0 : 1;
      for (uint32_t i = 1; i <= kWalkLength && p[i] != flexi::kInvalidNode; ++i) {
        hops.push_back({p[i - 1], p[i], s[row]});
      }
    }
  }
  size_t checked = hops.size();
  for (int pass = 0; pass < 2 && !hops.empty(); ++pass) {
    std::vector<std::vector<Hop>> by_block(store.num_blocks());
    for (const Hop& h : hops) {
      by_block[store.BlockOf(h.from)].push_back(h);
    }
    hops.clear();
    flexi::BlockData data;
    for (size_t blk = 0; blk < store.num_blocks(); ++blk) {
      if (by_block[blk].empty()) {
        continue;
      }
      store.ReadBlock(blk, data);
      Graph view = store.MakeBlockView(blk, data);
      for (const Hop& h : by_block[blk]) {
        if (!view.HasEdge(h.from, h.to)) {
          hops.push_back({h.start, h.to, h.start});
        }
      }
    }
  }
  report.Check(bad_rows == 0 && hops.empty(),
               "every PPR row walks real edges (" + std::to_string(checked) +
                   " steps checked against the block file)");
  FlexiWalkerOptions single = options;
  single.host_threads = 1;
  WalkResult reference = flexi::RunFlexiWalkerOutOfCore(
      store, ppr, single, kCacheBlocks, batch(0).first(kParityRows), walk_seed);
  report.Check(RowsEqual(first[0].paths, reference.paths, kParityRows, kWalkLength + 1),
               "first " + std::to_string(kParityRows) + " rows == 1-thread run");
  report.Check(phase.ooc.block_evictions > 0,
               "block cache evicts (" + std::to_string(phase.ooc.block_evictions) + ")");
  Scrape now = InProcessScrape();
  report.Check(
      Get(now, "jit_compiles_total") == 1 && SumFamily(now, "jit_fallbacks_total", "") == 0,
      "compiled kernel installed: jit_compiles_total = 1, no fallbacks");
  if (!opt.trace) {
    ReportOfflineEndToEnd(phase, setup_s, "benchmark process VmHWM from the first run on",
                          report);
    std::filesystem::remove(block_path);
    return 0;
  }

  OfflinePhase traced =
      RunTracedOfflinePhase(opt, phase, first, num_batches, batch, run_batch, report);
  report.Metric("graph.generate_s", generate_s, "s", "GenerateRmat + uniform weights");
  report.Metric("graph.partition_s", partition_s, "s", "1 MiB blocks, set-up");
  ReportBlockRead(store, report);
  ReportOutOfCore(traced.ooc, traced.steps, "offline-ppr-ooc", report);
  std::vector<NodeId> probe_starts = SeededStrided(num_nodes, 256, opt.seed);
  std::span<const NodeId> few = std::span<const NodeId>(probe_starts).first(256);
  ProbeRuntimeAndKernels(*graph, ppr, few, walk_seed, report);
  ProbeCompiler(*graph, probe_starts, walk_seed, jit_dir, compile_s, report);
  ProbeScaling(*graph, ppr, probe_starts, walk_seed, report);
  FlexiWalkerOptions service_options;
  service_options.host_threads = Nproc();
  service_options.edge_cost_ratio = kPinnedEdgeCostRatio;
  ProbeServiceAndCoalescer(*graph, ppr, service_options, probe_starts, walk_seed, report);
  ProbeNetFromOffline(opt, report);
  std::filesystem::remove(block_path);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      return false;
    }
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (arg == "--cli") {
      opt.cli = v;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && !opt.work_dir.empty() && opt.seconds > 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Clock::time_point process_start = pb::Clock::now();
  pb::Options opt;
  if (!pb::ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--cli <flexiwalker_cli> --work-dir <dir> [--setup-only]\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  // The served workloads write to sockets of children that may exit first.
  ::signal(SIGPIPE, SIG_IGN);
  flexi::SetDefaultWorkerThreads(pb::Nproc());
  pb::Report report;
  if (!opt.setup_only) {
    std::printf("workload %s | seed %llu | %.1f s | %s | %u hardware threads\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced", pb::Nproc());
  }
  int rc = 2;
  try {
    if (opt.workload == "offline-node2vec") {
      rc = pb::OfflineNode2Vec(opt, process_start, report);
    } else if (opt.workload == "offline-ppr-ooc") {
      rc = pb::OfflinePprOoc(opt, process_start, report);
    } else if (opt.workload == "serve-mixed") {
      rc = pb::ServeMixed(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  if (rc == 0 && !opt.setup_only) {
    report.PrintJson();
  }
  return rc;
}
