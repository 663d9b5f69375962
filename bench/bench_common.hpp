// Shared plumbing for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure of the paper's §6: it runs
// the experiment driver over the paper's parameter sweep and prints the
// measured series next to the paper's reported shape. Absolute numbers
// differ (the paper ran Python on EC2; we run C++ with from-scratch crypto
// on one machine) — the *shape* is the reproduction target, as recorded in
// EXPERIMENTS.md.
//
// Environment knobs:
//   FIDES_BENCH_TXNS   client requests per data point   (default 200;
//                      paper used 1000 — set 1000 for full fidelity)
//   FIDES_BENCH_SEEDS  runs averaged per point          (default 2; paper 3)
//   FIDES_THREADS      threads for the round engine (default 1 = sequential)
//   FIDES_PIPELINE     commit rounds in flight (default 1 = lock-step)
//   FIDES_NET          "sim" routes commit rounds through the deterministic
//                      SimNet (seeded by FIDES_SIM_SEED, default 1)
//   FIDES_ARRIVAL      "fixed" / "poisson" switches the driver to open-loop
//                      load (requires FIDES_NET=sim); default closed loop
//   FIDES_RATE         open-loop offered load in txns/sec (default 2000)
//   FIDES_CLIENTS      open-loop client population (default 4)
//   FIDES_BATCH_VERIFY "1" verifies inbox/request signatures through the RLC
//                      aggregate path (ClusterConfig::batch_verify)
//   FIDES_BENCH_JSON   write a machine-readable fides-bench-v1 report to
//                      this path (same as passing --json <path>)
// See the README's "engine knobs" table for the full semantics.
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <filesystem>

#include "net/process.hpp"
#include "net/socket_round.hpp"
#include "sim/simnet.hpp"
#include "workload/driver.hpp"

namespace fides::bench {

// Env knobs parse strictly: a malformed value (trailing junk, overflow,
// non-finite, non-positive) aborts the bench instead of silently running the
// fallback configuration — a sweep mislabelled by a typo'd knob is worse
// than no sweep.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::size_t parsed = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  if (ec != std::errc{} || ptr != end || v == end || parsed == 0) {
    std::fprintf(stderr, "bench: %s=\"%s\" is not a positive integer\n", name, v);
    std::exit(2);
  }
  return parsed;
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    std::fprintf(stderr, "bench: %s=\"%s\" is not a positive finite number\n", name, v);
    std::exit(2);
  }
  return parsed;
}

inline std::size_t bench_txns() { return env_size("FIDES_BENCH_TXNS", 200); }

/// Worker threads for commit rounds: FIDES_THREADS, default 1 (sequential).
inline std::uint32_t bench_threads() {
  return static_cast<std::uint32_t>(env_size("FIDES_THREADS", 1));
}

/// Commit rounds in flight: FIDES_PIPELINE, default 1 (lock-step).
inline std::uint32_t bench_pipeline() {
  return static_cast<std::uint32_t>(env_size("FIDES_PIPELINE", 1));
}

/// Speculative voting: FIDES_SPEC=1 drops the apply-watermark gate on round
/// openings (TFCommit; see ClusterConfig::speculate). Default off.
inline bool bench_speculate() {
  const char* v = std::getenv("FIDES_SPEC");
  return v != nullptr && std::string(v) != "0";
}

/// Batched signature verification: FIDES_BATCH_VERIFY=1 routes inbox and
/// request opens through the RLC aggregate path (ClusterConfig::batch_verify).
/// Default off.
inline bool bench_batch_verify() {
  const char* v = std::getenv("FIDES_BATCH_VERIFY");
  return v != nullptr && std::string(v) != "0";
}

inline std::vector<std::uint64_t> bench_seeds() {
  const std::size_t n = env_size("FIDES_BENCH_SEEDS", 2);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n; ++i) seeds.push_back(42 + i);
  return seeds;
}

inline void print_header(const char* title, const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("txns/point=%zu, runs averaged=%zu, threads=%u, pipeline=%u\n",
              bench_txns(), bench_seeds().size(), bench_threads(), bench_pipeline());
  std::printf("==============================================================\n");
}

/// Applies the FIDES_NET knob: "sim" switches the cluster onto the
/// discrete-event simulated network (direct delivery otherwise).
inline void apply_network_env(ClusterConfig& cluster) {
  const char* v = std::getenv("FIDES_NET");
  if (v != nullptr && std::string(v) == "sim") {
    cluster.network.mode = sim::NetworkMode::kSimulated;
    cluster.network.sim.seed = env_size("FIDES_SIM_SEED", 1);
  }
}

/// Applies the open-loop knobs: FIDES_ARRIVAL ("fixed" / "poisson" /
/// anything else = closed), FIDES_RATE, FIDES_CLIENTS. Only takes effect
/// when the cluster runs on the simulated network.
inline void apply_arrival_env(workload::ExperimentConfig& cfg) {
  const char* v = std::getenv("FIDES_ARRIVAL");
  if (v != nullptr) {
    const std::string s(v);
    if (s == "fixed") {
      cfg.arrival.process = workload::ArrivalProcess::kFixedRate;
    } else if (s == "poisson") {
      cfg.arrival.process = workload::ArrivalProcess::kPoisson;
    } else {
      cfg.arrival.process = workload::ArrivalProcess::kClosed;
    }
  }
  cfg.arrival.rate_tps = env_double("FIDES_RATE", cfg.arrival.rate_tps);
  cfg.arrival.num_clients =
      static_cast<std::uint32_t>(env_size("FIDES_CLIENTS", cfg.arrival.num_clients));
}

inline workload::ExperimentResult run_point(workload::ExperimentConfig cfg) {
  cfg.total_txns = bench_txns();
  cfg.cluster.sign_data_path = false;  // §6 measures from end-transaction on
  cfg.cluster.num_threads = bench_threads();
  cfg.cluster.pipeline_depth = bench_pipeline();
  cfg.cluster.speculate = bench_speculate();
  cfg.cluster.batch_verify = bench_batch_verify();
  apply_network_env(cfg.cluster);
  apply_arrival_env(cfg);
  const auto seeds = bench_seeds();
  return workload::run_averaged(cfg, seeds);
}

// --- Machine-readable reports (schema "fides-bench-v1") -------------------------
//
// Every bench binary can write its sweep as JSON: `--json <path>` or
// FIDES_BENCH_JSON=<path>. tools/bench_diff.py compares these against the
// committed bench/baseline/ to gate the performance trajectory in CI.
//
// Metrics are grouped by how they may be compared:
//   exact  — deterministic given seed + config: protocol counts (txns,
//            blocks, messages, bytes, signatures) and anything measured on
//            the virtual clock (open-loop percentiles, spans, virtual tps).
//            bench_diff compares these byte-for-byte.
//   approx — measured wall/CPU time; compared directionally with a noise
//            tolerance (*_tps may not drop, *_ms may not rise).
//   info   — context only (wall seconds, threads); never compared.

struct MetricGroup {
  std::vector<std::pair<std::string, double>> values;
  void set(const std::string& key, double v) { values.emplace_back(key, v); }
};

struct BenchPoint {
  std::string label;
  MetricGroup exact;
  MetricGroup approx;
  MetricGroup info;
};

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Records a config knob (emitted as a string so exact values survive).
  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void config(const std::string& key, std::size_t value) {
    config(key, std::to_string(value));
  }

  BenchPoint& point(const std::string& label) {
    points_.emplace_back();
    points_.back().label = label;
    return points_.back();
  }

  /// Writes the report; returns false (with a note on stderr) on I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const char* commit = std::getenv("GITHUB_SHA");
    if (commit == nullptr) commit = std::getenv("FIDES_COMMIT");
    std::fprintf(f, "{\n  \"schema\": \"fides-bench-v1\",\n");
    std::fprintf(f, "  \"name\": %s,\n", quoted(name_).c_str());
    std::fprintf(f, "  \"commit\": %s,\n",
                 quoted(commit != nullptr ? commit : "unknown").c_str());
    std::fprintf(f, "  \"config\": {");
    for (std::size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\n    %s: %s", i ? "," : "", quoted(config_[i].first).c_str(),
                   quoted(config_[i].second).c_str());
    }
    std::fprintf(f, "%s},\n", config_.empty() ? "" : "\n  ");
    std::fprintf(f, "  \"points\": [");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const BenchPoint& p = points_[i];
      std::fprintf(f, "%s\n    {\n      \"label\": %s,\n", i ? "," : "",
                   quoted(p.label).c_str());
      write_group(f, "exact", p.exact);
      std::fprintf(f, ",\n");
      write_group(f, "approx", p.approx);
      std::fprintf(f, ",\n");
      write_group(f, "info", p.info);
      std::fprintf(f, "\n    }");
    }
    std::fprintf(f, "%s]\n}\n", points_.empty() ? "" : "\n  ");
    std::fclose(f);
    return true;
  }

 private:
  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  static void write_group(std::FILE* f, const char* name, const MetricGroup& g) {
    std::fprintf(f, "      \"%s\": {", name);
    for (std::size_t i = 0; i < g.values.size(); ++i) {
      // %.17g round-trips doubles exactly; non-finite values (a point that
      // never completed) become null so the file stays valid JSON.
      char buf[40];
      if (std::isfinite(g.values[i].second)) {
        std::snprintf(buf, sizeof buf, "%.17g", g.values[i].second);
      } else {
        std::snprintf(buf, sizeof buf, "null");
      }
      std::fprintf(f, "%s\n        %s: %s", i ? "," : "",
                   quoted(g.values[i].first).c_str(), buf);
    }
    std::fprintf(f, "%s}", g.values.empty() ? "" : "\n      ");
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<BenchPoint> points_;
};

/// Resolves the report path: `--json <path>` beats FIDES_BENCH_JSON; empty
/// string means "don't write a report".
inline std::string bench_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  const char* env = std::getenv("FIDES_BENCH_JSON");
  return env != nullptr ? std::string(env) : std::string();
}

/// Stamps the shared env knobs into the report so a baseline diff can tell a
/// perf change from a config change.
inline void stamp_config(BenchReport& report) {
  report.config("txns", bench_txns());
  report.config("seeds", bench_seeds().size());
  report.config("threads", bench_threads());
  report.config("pipeline", bench_pipeline());
  report.config("speculate", bench_speculate() ? "1" : "0");
  report.config("batch_verify", bench_batch_verify() ? "1" : "0");
  const char* net = std::getenv("FIDES_NET");
  report.config("net", net != nullptr ? net : "direct");
  const char* arrival = std::getenv("FIDES_ARRIVAL");
  report.config("arrival", arrival != nullptr ? arrival : "closed");
}

/// Splits one experiment result into exact/approx/info groups. Open-loop
/// percentiles and throughput live on the virtual clock, so they move to the
/// exact group; closed-loop latency folds in measured compute time and stays
/// approximate.
inline void add_experiment_point(BenchReport& report, const std::string& label,
                                 const workload::ExperimentResult& r) {
  BenchPoint& p = report.point(label);
  p.exact.set("committed_txns", static_cast<double>(r.committed_txns));
  p.exact.set("aborted_txns", static_cast<double>(r.aborted_txns));
  p.exact.set("blocks", static_cast<double>(r.blocks));
  p.exact.set("net_messages", static_cast<double>(r.net.messages));
  p.exact.set("net_bytes", static_cast<double>(r.net.bytes));
  p.exact.set("signatures_created", static_cast<double>(r.net.signatures_created));
  p.exact.set("signatures_verified", static_cast<double>(r.net.signatures_verified));
  // Closed-loop percentiles derive from per-block measured wall time — their
  // tails (one stray slow round) are far too noisy to gate, so they land in
  // info. Open-loop percentiles and throughput are pure virtual time and
  // gate exactly.
  MetricGroup& timing = r.open_loop ? p.exact : p.info;
  timing.set("p50_ms", r.p50_ms);
  timing.set("p99_ms", r.p99_ms);
  timing.set("p999_ms", r.p999_ms);
  timing.set("max_ms", r.max_ms);
  if (r.open_loop) {
    p.exact.set("throughput_tps", r.throughput_tps);
    p.exact.set("offered_tps", r.offered_tps);
    p.exact.set("span_ms", r.span_ms);
    p.exact.set("client_sends", static_cast<double>(r.client_sends));
    p.exact.set("client_retries", static_cast<double>(r.client_retries));
    p.exact.set("dup_responses", static_cast<double>(r.dup_responses));
  }
  p.approx.set("avg_measured_ms", r.avg_measured_ms);
  p.approx.set("measured_throughput_tps", r.measured_throughput_tps);
  p.approx.set("avg_mht_ms", r.avg_mht_ms);
  p.info.set("wall_seconds", r.wall_seconds);
  p.info.set("threads", static_cast<double>(r.threads));
  p.info.set("pipeline_depth", static_cast<double>(r.pipeline_depth));
}

/// Writes the report if a path was requested. Call at the end of main().
inline void finish_report(const BenchReport& report, int argc, char** argv) {
  const std::string path = bench_json_path(argc, argv);
  if (path.empty()) return;
  if (report.write(path)) std::printf("wrote %s\n", path.c_str());
}

// --- Pipeline depth sweep -----------------------------------------------------
//
// Mints a fixed stream of signed batches once (client transactions executed
// against a pristine cluster, blocks never run), then replays the identical
// stream on fresh clusters at pipeline depths 1, 2, and 4. Client keys are
// deterministic per id, so the replay clusters verify the same signatures.
// Reports measured throughput per depth and **exits non-zero** if any
// depth's decisions or ledger diverge from depth 1 — the depth-equivalence
// gate CI runs in Release mode.

struct DepthRun {
  std::vector<ledger::Decision> decisions;
  std::vector<crypto::Digest> log_heads;     // per server
  std::vector<crypto::Digest> merkle_roots;  // per server
  std::size_t committed_txns{0};
  double wall_us{0};

  bool same_ledger(const DepthRun& o) const {
    return decisions == o.decisions && log_heads == o.log_heads &&
           merkle_roots == o.merkle_roots;
  }
};

/// Fingerprints a finished run: each round's decision, the committed count,
/// and the ledger of the cluster's first `servers` servers.
inline DepthRun fingerprint(const Cluster& cluster, const std::vector<RoundMetrics>& rounds,
                            double wall_us, std::uint32_t servers) {
  DepthRun run;
  run.wall_us = wall_us;
  for (const RoundMetrics& m : rounds) {
    run.decisions.push_back(m.decision);
    if (m.decision == ledger::Decision::kCommit) run.committed_txns += m.txns_in_block;
  }
  for (std::uint32_t i = 0; i < servers; ++i) {
    const Server& s = cluster.server(ServerId{i});
    run.log_heads.push_back(s.log().head_hash());
    run.merkle_roots.push_back(s.shard().merkle_root());
  }
  return run;
}

/// Mints a fixed stream of `blocks` signed batches of cfg.max_batch_size
/// YCSB transactions, executed by one client against a pristine cluster
/// whose blocks never run. Client keys are deterministic per id, so a fresh
/// cluster with one client verifies the same signatures.
inline std::vector<std::vector<commit::SignedEndTxn>> mint_batches(const ClusterConfig& cfg,
                                                                   std::size_t blocks) {
  Cluster mint(cfg);
  Client& client = mint.make_client();
  workload::YcsbWorkload workload(
      {}, static_cast<std::uint64_t>(cfg.num_servers) * cfg.items_per_shard, cfg.seed);
  commit::BatchBuilder batcher(cfg.max_batch_size);
  for (std::size_t b = 0; b < blocks; ++b) {
    workload.begin_batch();
    for (std::size_t i = 0; i < cfg.max_batch_size; ++i) {
      batcher.enqueue(workload.run_transaction(client));
    }
  }
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  while (!batcher.empty()) batches.push_back(batcher.next_batch());
  return batches;
}

inline void pipeline_depth_section(std::uint32_t servers, std::size_t txns_per_block,
                                   std::size_t blocks,
                                   BenchReport* report = nullptr) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.items_per_shard = 10000;
  cfg.max_batch_size = txns_per_block;
  cfg.sign_data_path = false;
  // The depth > 1 gain is tail work (decision apply, next-round assembly)
  // overlapping across rounds — visible only when every server has its own
  // thread, so this section never runs below n+1 executors.
  cfg.num_threads = std::max<std::uint32_t>(servers + 1, bench_threads());

  const std::vector<std::vector<commit::SignedEndTxn>> batches = mint_batches(cfg, blocks);

  std::printf("\nPipelined engine: %u servers, %zu blocks x %zu txns, %u threads\n",
              servers, batches.size(), txns_per_block, cfg.num_threads);
  std::printf("%-8s %-6s %-14s %-16s %-10s %s\n", "depth", "spec", "wall_ms",
              "throughput_tps", "speedup", "ledger");

  std::vector<DepthRun> runs;
  for (const bool speculate : {false, true}) {
    for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
      ClusterConfig run_cfg = cfg;
      run_cfg.pipeline_depth = depth;
      run_cfg.speculate = speculate;
      Cluster cluster(run_cfg);
      cluster.make_client();  // registers the deterministic client key
      const PipelineResult result = cluster.run_blocks(batches);
      runs.push_back(fingerprint(cluster, result.rounds, result.wall_us, servers));

      const DepthRun& base = runs.front();
      const DepthRun& cur = runs.back();
      const bool identical = cur.same_ledger(base);
      std::printf("%-8u %-6s %-14.2f %-16.0f %-10.2f %s\n", depth,
                  speculate ? "on" : "off", cur.wall_us / 1000.0,
                  cur.committed_txns / (cur.wall_us / 1e6),
                  cur.wall_us > 0 ? base.wall_us / cur.wall_us : 0.0,
                  identical ? "identical" : "DIVERGED");
      if (!identical) {
        std::printf("ERROR: pipeline depth %u (spec %s) diverged from depth 1\n",
                    depth, speculate ? "on" : "off");
        std::exit(1);
      }
      if (report != nullptr) {
        BenchPoint& p = report->point("pipeline/direct/depth" + std::to_string(depth) +
                                      "/spec_" + (speculate ? "on" : "off"));
        p.exact.set("committed_txns", static_cast<double>(cur.committed_txns));
        p.approx.set("wall_ms", cur.wall_us / 1000.0);
        p.approx.set("throughput_tps", cur.committed_txns / (cur.wall_us / 1e6));
      }
    }
  }

  // The same stream over SimNet, measured in deterministic *virtual* time:
  // at depth > 1, round k+1's opening legs overlap round k's decision/apply
  // legs on the simulated wire, so the virtual span shrinks — a
  // seed-reproducible measurement of protocol-level pipelining, independent
  // of host core count. Gated runs plateau at ~1.2x past depth 2 (the
  // vote-needs-previous-apply data dependency); speculative voting breaks
  // that cap, and the sweep *asserts* depth-4 speculation beats the gated
  // depth-1 baseline by >= 1.5x on the virtual clock.
  std::printf("%-8s %-6s %-14s %-16s %-10s %s\n", "depth", "spec", "virtual_ms",
              "virtual_tps", "speedup", "ledger (SimNet)");
  std::vector<DepthRun> sim_runs;
  double lockstep_d1_us = 0;
  double spec_d4_us = 0;
  for (const bool speculate : {false, true}) {
    for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
      ClusterConfig run_cfg = cfg;
      run_cfg.pipeline_depth = depth;
      run_cfg.speculate = speculate;
      run_cfg.network.mode = sim::NetworkMode::kSimulated;
      run_cfg.network.sim.seed = env_size("FIDES_SIM_SEED", 1);
      Cluster cluster(run_cfg);
      cluster.make_client();
      const PipelineResult result = cluster.run_blocks(batches);
      // wall_us holds the virtual span: a fresh net starts at 0.
      sim_runs.push_back(fingerprint(cluster, result.rounds, cluster.simnet()->now_us(), servers));
      const DepthRun& cur = sim_runs.back();
      if (!speculate && depth == 1) lockstep_d1_us = cur.wall_us;
      if (speculate && depth == 4) spec_d4_us = cur.wall_us;

      // Gate against the *direct* depth-1 run too: the simulated schedule must
      // reproduce the exact same ledger as direct delivery at every depth.
      const bool identical =
          cur.same_ledger(sim_runs.front()) && cur.same_ledger(runs.front());
      std::printf("%-8u %-6s %-14.2f %-16.0f %-10.2f %s\n", depth,
                  speculate ? "on" : "off", cur.wall_us / 1000.0,
                  cur.committed_txns / (cur.wall_us / 1e6),
                  cur.wall_us > 0 ? sim_runs.front().wall_us / cur.wall_us : 0.0,
                  identical ? "identical" : "DIVERGED");
      if (!identical) {
        std::printf("ERROR: simulated pipeline depth %u (spec %s) diverged\n",
                    depth, speculate ? "on" : "off");
        std::exit(1);
      }
      if (report != nullptr) {
        // Virtual-time sweep: fully deterministic given the SimNet seed, so
        // the whole point is exact — CI catches any drift in the pipelined
        // schedule itself, not just throughput regressions.
        BenchPoint& p = report->point("pipeline/sim/depth" + std::to_string(depth) +
                                      "/spec_" + (speculate ? "on" : "off"));
        p.exact.set("committed_txns", static_cast<double>(cur.committed_txns));
        p.exact.set("virtual_ms", cur.wall_us / 1000.0);
        p.exact.set("virtual_tps", cur.committed_txns / (cur.wall_us / 1e6));
      }
    }
  }
  const double spec_speedup = spec_d4_us > 0 ? lockstep_d1_us / spec_d4_us : 0.0;
  std::printf("speculative depth-4 virtual speedup over lock-step depth-1: %.2fx\n",
              spec_speedup);
  if (spec_speedup < 1.5) {
    std::printf("ERROR: speculation failed the 1.5x virtual-time bar\n");
    std::exit(1);
  }
  if (report != nullptr) {
    report->point("pipeline/sim/summary").exact.set("spec_d4_speedup", spec_speedup);
  }

  // The same stream a third time, over real loopback sockets: this process
  // keeps server 0 and the client, every other server runs as a
  // fides_serverd child speaking length-framed envelopes on unix-domain
  // sockets. wall_ms here is genuine multi-process wall clock — the column
  // to read next to SimNet's virtual one — and the committed ledger must be
  // bit-identical to both single-process sweeps (remote state arrives as
  // signed-state digests at shutdown).
  std::printf("%-8s %-6s %-14s %-16s %s\n", "depth", "spec", "wall_ms",
              "throughput_tps", "ledger (sockets)");
  const std::string serverd = net::serverd_binary_path();
  for (const bool speculate : {false, true}) {
    for (const std::uint32_t depth : {1u, 2u, 4u}) {
      char dir_template[] = "/tmp/fides_bench_socket_XXXXXX";
      if (::mkdtemp(dir_template) == nullptr) {
        std::printf("ERROR: mkdtemp failed for the socket sweep\n");
        std::exit(1);
      }
      const std::string dir = dir_template;
      std::vector<std::string> addrs;
      for (std::uint32_t i = 0; i < servers; ++i) {
        addrs.push_back("unix:" + dir + "/s" + std::to_string(i) + ".sock");
      }
      std::vector<pid_t> children;
      for (std::uint32_t i = 1; i < servers; ++i) {
        std::vector<std::string> child_argv = {
            serverd,
            "--self", std::to_string(i),
            "--servers", std::to_string(servers),
            "--rounds", std::to_string(batches.size()),
            "--clients", "1",
            "--items", std::to_string(cfg.items_per_shard),
            "--batch", std::to_string(cfg.max_batch_size),
            "--no-data-sigs",
            "--pipeline", std::to_string(depth),
            "--seed", std::to_string(cfg.seed),
            "--log-dir", dir};
        if (speculate) child_argv.push_back("--spec");
        for (const auto& a : addrs) child_argv.push_back(a);
        children.push_back(
            net::spawn(child_argv, dir + "/serverd-" + std::to_string(i) + ".log"));
      }

      ClusterConfig run_cfg = cfg;
      run_cfg.pipeline_depth = depth;
      run_cfg.speculate = speculate;
      run_cfg.round_log_dir = dir;
      Cluster cluster(run_cfg);
      cluster.make_client();
      net::SocketOptions sopts;
      sopts.addrs = addrs;
      sopts.self = 0;
      auto batch_copy = batches;
      const net::SocketRunResult sock = net::run_commit_rounds_over_sockets(
          cluster, run_cfg.protocol, std::move(batch_copy), sopts);

      // Server 0 runs here; the others report their ledgers as digests.
      DepthRun run = fingerprint(cluster, sock.pipeline.rounds, sock.pipeline.wall_us, 1);
      for (const net::PeerDigest& d : sock.digests) {
        run.log_heads.push_back(d.log_head);
        run.merkle_roots.push_back(d.shard_root);
      }

      bool clean = sock.digests.size() == static_cast<std::size_t>(servers) - 1;
      for (std::size_t c = 0; c < children.size(); ++c) {
        const int code = net::wait_exit(children[c]);
        if (code != 0) {
          std::printf("ERROR: serverd %zu exited %d (logs in %s)\n", c + 1, code,
                      dir.c_str());
          clean = false;
        }
      }
      const bool identical =
          clean && run.same_ledger(runs.front()) && run.same_ledger(sim_runs.front());
      std::printf("%-8u %-6s %-14.2f %-16.0f %s\n", depth, speculate ? "on" : "off",
                  run.wall_us / 1000.0, run.committed_txns / (run.wall_us / 1e6),
                  identical ? "identical" : "DIVERGED");
      if (!identical) {
        std::printf("ERROR: socket pipeline depth %u (spec %s) diverged from the "
                    "single-process runs (logs in %s)\n",
                    depth, speculate ? "on" : "off", dir.c_str());
        std::exit(1);
      }
      if (report != nullptr) {
        BenchPoint& p = report->point("pipeline/socket/depth" + std::to_string(depth) +
                                      "/spec_" + (speculate ? "on" : "off"));
        p.exact.set("committed_txns", static_cast<double>(run.committed_txns));
        p.approx.set("wall_ms", run.wall_us / 1000.0);
        p.approx.set("throughput_tps", run.committed_txns / (run.wall_us / 1e6));
      }
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);  // keep the dir only on failure paths
    }
  }
}

}  // namespace fides::bench
