// perfbench: the repository's wall-clock benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// One closed-loop client per workload: it generates a window of
// transactions from the seed, executes them through the client data path,
// hands the window to the commit engine, waits for the decisions, checks
// them, and only then generates the next window. After the measured phase
// it audits the final state and crash-recovers a server several times.
// Every timed quantity is a median over repetitions within the run.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call the driver makes into the system (kept in memory, written to
// DIR/trace-<workload>.jsonl at exit) and prints per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "audit/auditor.hpp"
#include "bench_util.hpp"
#include "engine/pipeline.hpp"
#include "fides/cluster.hpp"
#include "net/process.hpp"
#include "net/socket_scheduler.hpp"
#include "ordserv/group_engine.hpp"

namespace perfbench {
namespace {

using namespace fides;

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  std::uint32_t servers;
  std::uint32_t threads;
  std::uint32_t depth;
  bool speculate;
  bool batch_verify;
  bool signed_data;
  std::uint32_t block_txns;
  std::uint32_t ops_per_txn;
  double read_only_op_frac;  ///< share of operations that only read
  bool zipfian;              ///< zipfian θ = 0.99 item choice, else uniform
  std::uint32_t groups;      ///< > 0: group commit over this many disjoint groups
  double bridge_frac;        ///< group commit: share of blocks bridging two groups
  bool socket;               ///< servers 1.. run as fides_serverd processes
  /// Measured windows per requested second (socket: measured deployments
  /// per second). Fixed per workload, so a seed and a --seconds value give
  /// identical work — and identical exact counts — on any host.
  double windows_per_s;
  std::uint32_t socket_blocks;  ///< socket: blocks per measured deployment
};

constexpr std::uint32_t kItemsPerShard = 10000;

const Workload kWorkloads[] = {
    // name, servers, threads, depth, spec, bv, signed, block, ops, ro, zipf,
    // groups, bridge, socket, windows/s, socket blocks
    {"tfc-wide", 9, 2, 4, true, true, false, 100, 5, 0.0, false, 0, 0.0, false, 2.0, 0},
    {"group-4x2", 8, 1, 4, true, false, false, 10, 5, 0.0, false, 4, 0.1, false, 2.5, 0},
    {"socket-3", 3, 1, 4, true, false, false, 100, 5, 0.0, false, 0, 0.0, true, 0.6, 12},
    {"signed-read-audit", 5, 1, 1, false, false, true, 20, 5, 0.9, true, 0, 0.0, false, 6.0, 0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ClusterConfig cluster_config(const Workload& w) {
  ClusterConfig cfg;
  cfg.num_servers = w.servers;
  cfg.items_per_shard = kItemsPerShard;
  cfg.max_batch_size = w.block_txns;
  cfg.num_threads = w.threads;
  cfg.pipeline_depth = w.depth;
  cfg.speculate = w.speculate;
  cfg.batch_verify = w.batch_verify;
  cfg.sign_data_path = w.signed_data;
  return cfg;
}

// --- Generated inputs ---------------------------------------------------------

struct Op {
  ItemId item;
  bool write;
};
using TxnSpec = std::vector<Op>;
using BlockSpec = std::vector<TxnSpec>;

/// Makes windows of transactions from the seed. Items never repeat within
/// a window, so no transaction of a window conflicts with another and
/// nothing aborts; the next window is generated after the previous one
/// committed, so its reads see committed state.
class InputGen {
 public:
  InputGen(const Workload& w, std::uint64_t seed)
      : w_(w), rng_(seed), total_(static_cast<std::uint64_t>(w.servers) * kItemsPerShard) {
    if (w.zipfian) zipf_.emplace(total_, 0.99);
  }

  std::vector<BlockSpec> window() {
    used_.clear();
    const std::uint32_t blocks = w_.groups > 0 ? w_.depth * w_.groups : w_.depth;
    std::vector<BlockSpec> out(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      std::vector<std::uint32_t> members;
      if (w_.groups > 0) {
        const std::uint32_t width = w_.servers / w_.groups;
        const std::uint32_t g = b % w_.groups;
        for (std::uint32_t s = g * width; s < (g + 1) * width; ++s) members.push_back(s);
        if (rng_.unit() < w_.bridge_frac) {
          const std::uint32_t h = (g + 1) % w_.groups;
          for (std::uint32_t s = h * width; s < (h + 1) * width; ++s) members.push_back(s);
        }
      }
      out[b].resize(w_.block_txns);
      std::size_t op_index = 0;
      for (TxnSpec& txn : out[b]) {
        txn.resize(w_.ops_per_txn);
        for (Op& op : txn) {
          // Group blocks cycle through their member servers so every member
          // is touched and no other server is.
          const std::optional<std::uint32_t> server =
              members.empty() ? std::nullopt
                              : std::optional<std::uint32_t>(members[op_index++ % members.size()]);
          op.item = fresh_item(server);
          op.write = w_.read_only_op_frac <= 0.0 || rng_.unit() >= w_.read_only_op_frac;
        }
      }
    }
    return out;
  }

  /// `blocks` blocks over all-distinct items (a seeded walk through a
  /// permutation of the item space): the socket workload's whole stream,
  /// executed up front, must never read an item an earlier block wrote.
  std::vector<BlockSpec> distinct_stream(std::uint32_t blocks) {
    std::vector<std::uint64_t> perm(total_);
    for (std::uint64_t i = 0; i < total_; ++i) perm[i] = i;
    for (std::uint64_t i = total_ - 1; i > 0; --i) std::swap(perm[i], perm[rng_.below(i + 1)]);
    std::size_t next = 0;
    std::vector<BlockSpec> out(blocks);
    for (BlockSpec& block : out) {
      block.resize(w_.block_txns);
      for (TxnSpec& txn : block) {
        txn.resize(w_.ops_per_txn);
        for (Op& op : txn) {
          if (next == perm.size()) throw std::logic_error("socket stream exceeds the item space");
          op.item = ItemId{perm[next++]};
          op.write = true;
        }
      }
    }
    return out;
  }

 private:
  ItemId fresh_item(std::optional<std::uint32_t> server) {
    for (;;) {
      std::uint64_t item = 0;
      if (server.has_value()) {
        item = *server + static_cast<std::uint64_t>(w_.servers) * rng_.below(kItemsPerShard);
      } else if (zipf_.has_value()) {
        item = zipf_->next(rng_);
      } else {
        item = rng_.below(total_);
      }
      if (used_.insert(item).second) return ItemId{item};
    }
  }

  const Workload& w_;
  Rng rng_;
  std::uint64_t total_;
  std::optional<Zipf> zipf_;
  std::unordered_set<std::uint64_t> used_;
};

// --- Results ---------------------------------------------------------------------

struct Counts {
  std::uint64_t messages{0}, bytes{0}, sigs_created{0}, sigs_verified{0}, rejected{0};
  static Counts of(const Transport::Stats& s) {
    return Counts{s.messages.load(), s.bytes.load(), s.signatures_created.load(),
                  s.signatures_verified.load(), s.rejected.load()};
  }
  Counts minus(const Counts& o) const {
    return Counts{messages - o.messages, bytes - o.bytes, sigs_created - o.sigs_created,
                  sigs_verified - o.sigs_verified, rejected - o.rejected};
  }
  void add(const Counts& o) {
    messages += o.messages;
    bytes += o.bytes;
    sigs_created += o.sigs_created;
    sigs_verified += o.sigs_verified;
    rejected += o.rejected;
  }
};

struct Result {
  bool correct{true};
  std::vector<std::string> errors;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t committed{0};

  std::vector<double> setup_s;
  /// One per block where the engine times each round (RoundMetrics::
  /// measured_latency_us); one per window on group-4x2, whose engine does not.
  std::vector<double> commit_ms;
  std::vector<double> exec_ms;    ///< one per transaction
  std::vector<double> audit_s;
  std::vector<double> recover_ms;
  double commit_wall_us{0};

  // Per-layer inputs.
  std::vector<double> round_ms, coordinator_ms, cohort_ms, mht_ms;
  double round_sum_us{0};
  std::uint64_t spec_revotes{0};
  double cpu_us{0};       ///< driver process CPU time inside commit calls
  double peer_cpu_us{0};  ///< serverd CPU time inside commit calls
  Counts counts;
  std::uint64_t audit_blocks{0}, audit_items{0};
  std::vector<double> audit_select_s, audit_history_s, audit_datastore_s;
  std::uint64_t recovered_height{0};
  std::uint64_t sequenced{0}, refused{0};
  std::vector<commit::SignedEndTxn> sample_requests;  ///< all from the one client
  double verify_us{0}, sign_us{0}, batch_verify_us{0};
  double host_ref_start_ms{0}, host_ref_end_ms{0};
  std::string ledger_head;  ///< S0's final log head: one seed, one ledger

  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

double process_cpu_us(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// utime + stime of a live child, from /proc (RUSAGE_CHILDREN only covers
/// reaped children, and would fold in their set-up).
double child_cpu_us(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::vector<std::string> fields;
  std::size_t pos = close + 2;
  while (pos < stat.size()) {
    const std::size_t end = stat.find(' ', pos);
    fields.push_back(stat.substr(pos, end - pos));
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  // fields[0] is the state (field 3); utime and stime are fields 14 and 15.
  if (fields.size() < 13) return 0.0;
  const double ticks = std::stod(fields[11]) + std::stod(fields[12]);
  return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// --- Shared steps -------------------------------------------------------------------

// Set-ups, audits and recoveries repeat at least their minimum count, and
// more (up to the maximum) while their phase is shorter than its target
// length: the host's speed drifts over seconds, so a median over a short
// phase reads whichever host phase it happened to land in.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 20;
constexpr double kSetupPhaseUs = 4e6;
constexpr int kMinAuditReps = 3;
constexpr int kMinRecoverReps = 11;
constexpr int kMaxCheckReps = 40;
constexpr double kCheckPhaseUs = 10e6;
constexpr std::size_t kCryptoSamples = 200;

commit::SignedEndTxn execute(Client& client, const TxnSpec& spec, std::uint64_t txn_no,
                             Tracer& tr) {
  Scoped txn_span(tr, "data.txn", txn_no);
  ClientTxn txn = [&] {
    Scoped s(tr, "data.begin", txn_no);
    return client.begin();
  }();
  for (const Op& op : spec) {
    {
      Scoped s(tr, "data.read", txn_no);
      client.read(txn, op.item);
    }
    if (op.write) {
      Scoped s(tr, "data.write", txn_no);
      client.write(txn, op.item, to_bytes("v" + std::to_string(txn_no)));
    }
  }
  Scoped s(tr, "data.end", txn_no);
  return client.end(std::move(txn));
}

/// Executes blocks through the data path, one exec sample per transaction.
std::vector<std::vector<commit::SignedEndTxn>> execute_blocks(
    Client& client, const std::vector<BlockSpec>& blocks, std::uint64_t& txn_no, Tracer& tr,
    Result* res) {
  std::vector<std::vector<commit::SignedEndTxn>> batches(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    batches[b].reserve(blocks[b].size());
    for (const TxnSpec& spec : blocks[b]) {
      const double t0 = now_us();
      batches[b].push_back(execute(client, spec, txn_no++, tr));
      if (res != nullptr) res->exec_ms.push_back((now_us() - t0) / 1000.0);
    }
  }
  return batches;
}

void keep_samples(Result& res, const std::vector<std::vector<commit::SignedEndTxn>>& batches) {
  for (const auto& batch : batches) {
    for (const auto& req : batch) {
      if (res.sample_requests.size() >= kCryptoSamples) return;
      res.sample_requests.push_back(req);
    }
  }
}

/// The newest committed root the log records for `server`, if any.
std::optional<crypto::Digest> latest_root(const ledger::TamperProofLog& log, ServerId server) {
  for (std::size_t i = log.size(); i-- > 0;) {
    const ledger::Block& b = log.at(i);
    if (!b.committed()) continue;
    for (const ledger::ShardRoot& r : b.roots) {
      if (r.server == server) return r.root;
    }
  }
  return std::nullopt;
}

/// Every server's log head must agree, and every shard's Merkle root must
/// equal the root its latest committed block co-signed (every workload
/// writes to every shard, so each has one).
void check_replicas(Cluster& cluster, Result& res) {
  const Server& s0 = cluster.server(ServerId{0});
  res.ledger_head = s0.log().head_hash().hex();
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(ServerId{i});
    if (s.log().size() != s0.log().size() || !(s.log().head_hash() == s0.log().head_hash())) {
      res.fail("server " + std::to_string(i) + " log head differs from server 0");
    }
    const auto root = latest_root(s0.log(), ServerId{i});
    if (!root.has_value()) {
      res.fail("no committed block carries server " + std::to_string(i) + "'s root");
    } else if (!(*root == s.shard().merkle_root())) {
      res.fail("server " + std::to_string(i) + " Merkle root differs from its co-signed root");
    }
  }
}

/// Full exhaustive audits of the final state. A group-commit ledger is
/// co-signed per group, not by every server, so its selection step is
/// OrdServ's own stream validation (per-entry group co-sign, hash chain,
/// dependency order) in place of Auditor::collect_and_select; history and
/// datastore checks run unchanged over the validated stream.
void audit_once(Cluster& cluster, const ordserv::Sequencer* seq, int rep, Result& res,
                Tracer& tr) {
  const auto id = static_cast<std::uint64_t>(rep);
  audit::Auditor auditor(cluster);
  audit::AuditReport report;
  const double t0 = now_us();
  if (tr.enabled() || seq != nullptr) {
    Scoped all(tr, "audit.run", id);
    double t = now_us();
    std::vector<ledger::Block> log;
    {
      Scoped s(tr, "audit.select", id);
      if (seq == nullptr) {
        log = auditor.collect_and_select(report);
      } else {
        const std::vector<ordserv::SequencedBlock> stream(seq->stream().begin(),
                                                          seq->stream().end());
        const auto bad = ordserv::validate_stream(stream, cluster.server_keys());
        if (bad.has_value()) res.fail("OrdServ stream invalid at entry " + std::to_string(*bad));
        for (const ordserv::SequencedBlock& e : stream) log.push_back(e.block);
        report.blocks_audited = log.size();
      }
    }
    res.audit_select_s.push_back((now_us() - t) / 1e6);
    t = now_us();
    {
      Scoped s(tr, "audit.history", id);
      auditor.check_history(log, report);
    }
    res.audit_history_s.push_back((now_us() - t) / 1e6);
    t = now_us();
    {
      Scoped s(tr, "audit.datastore", id);
      auditor.check_datastores(log, report);
    }
    res.audit_datastore_s.push_back((now_us() - t) / 1e6);
    if (log.empty()) res.fail("audit adopted an empty log");
  } else {
    report = auditor.run();
  }
  res.audit_s.push_back((now_us() - t0) / 1e6);
  if (!report.clean()) res.fail("audit found violations: " + report.to_string());
  res.audit_blocks = report.blocks_audited;
  res.audit_items = report.items_authenticated;
}

/// One crash + recover cycle of a server; it must restore the exact
/// pre-crash log head and shard root.
void recover_once(Cluster& cluster, ServerId sid, int rep, Result& res, Tracer& tr) {
  const crypto::Digest head = cluster.server(sid).log().head_hash();
  const std::size_t height = cluster.server(sid).log().size();
  const crypto::Digest root = cluster.server(sid).shard().merkle_root();
  const double t0 = now_us();
  bool ok = false;
  {
    Scoped s(tr, "recover.cycle", static_cast<std::uint64_t>(rep));
    cluster.crash_server(sid);
    ok = cluster.recover_server(sid);
  }
  res.recover_ms.push_back((now_us() - t0) / 1000.0);
  res.recovered_height = height;
  if (!ok) {
    res.fail("recover_server refused server " + std::to_string(sid.value) + "'s log");
    throw std::runtime_error("server " + std::to_string(sid.value) + " stayed down");
  }
  const Server& s = cluster.server(sid);
  if (s.log().size() != height || !(s.log().head_hash() == head) ||
      !(s.shard().merkle_root() == root)) {
    res.fail("recovered server " + std::to_string(sid.value) + " differs from its pre-crash state");
  }
}

/// Audits and crash-recovery cycles of the final state, alternated so the
/// repetitions of each spread over the whole phase and their medians ride
/// out short host slowdowns. Neither mutates the committed state.
void audit_and_recover(Cluster& cluster, const ordserv::Sequencer* seq, ServerId sid,
                       Result& res, Tracer& tr) {
  const double t0 = now_us();
  for (int rep = 0; rep < kMaxCheckReps; ++rep) {
    const bool more = now_us() - t0 < kCheckPhaseUs;
    if (rep >= std::max(kMinAuditReps, kMinRecoverReps) && !more) break;
    if (rep < kMinAuditReps || more) audit_once(cluster, seq, rep, res, tr);
    if (rep < kMinRecoverReps || more) recover_once(cluster, sid, rep, res, tr);
  }
}

/// Times schnorr sign / verify over the run's own end-transaction requests,
/// and one RLC batch verification of a 100-request block.
void time_crypto(Result& res, const Client& client) {
  if (res.sample_requests.empty()) return;
  const crypto::PublicKey& key = client.keypair().public_key();
  std::vector<double> verify, sign;
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < res.sample_requests.size(); ++i) {
    const commit::SignedEndTxn& req = res.sample_requests[i];
    messages.push_back(req.request.serialize());
    double t0 = now_us();
    const bool ok = crypto::verify(key, messages.back(), req.signature);
    verify.push_back(now_us() - t0);
    if (!ok) res.fail("a committed request's signature does not verify");
    t0 = now_us();
    const crypto::Signature sig = client.keypair().sign(messages.back());
    sign.push_back(now_us() - t0);
    if (!crypto::verify(key, messages.back(), sig)) {
      res.fail("a fresh signature does not verify");
    }
  }
  res.verify_us = median(verify);
  res.sign_us = median(sign);

  const std::size_t n = std::min<std::size_t>(100, res.sample_requests.size());
  std::vector<crypto::BatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(crypto::BatchItem{&key, messages[i], &res.sample_requests[i].signature});
  }
  std::vector<double> per_sig;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_us();
    const std::vector<unsigned char> verdicts = crypto::batch_verify(items);
    per_sig.push_back((now_us() - t0) / static_cast<double>(n));
    for (const unsigned char v : verdicts) {
      if (v == 0) res.fail("batch verification rejected a committed request");
    }
  }
  res.batch_verify_us = median(per_sig);
}

/// Folds the engine's per-round metrics into the per-layer samples.
void record_rounds(Result& res, const std::vector<RoundMetrics>& rounds) {
  for (const RoundMetrics& m : rounds) {
    res.round_ms.push_back(m.measured_latency_us / 1000.0);
    res.coordinator_ms.push_back(m.coordinator_us / 1000.0);
    res.cohort_ms.push_back(m.cohort_critical_us / 1000.0);
    res.mht_ms.push_back(m.mht_us / 1000.0);
    res.round_sum_us += m.measured_latency_us;
    res.spec_revotes += m.spec_revotes;
  }
}

// --- In-process workloads ------------------------------------------------------------

struct Session {
  std::unique_ptr<Cluster> cluster;
  Client* client{nullptr};
  std::unique_ptr<ordserv::Sequencer> sequencer;
};

/// Hands one window to the engine and checks every decision. Returns whether
/// every transaction of the window committed and every check passed.
bool commit_window(const Workload& w, Session& ses,
                            std::vector<std::vector<commit::SignedEndTxn>> batches,
                            Result* res, std::uint64_t window_no, Tracer& tr) {
  std::size_t submitted = 0;
  for (const auto& b : batches) submitted += b.size();
  std::uint64_t committed = 0;
  bool ok = true;
  std::string why;
  const double cpu0 = process_cpu_us(RUSAGE_SELF);
  const double t0 = now_us();
  if (w.groups > 0) {
    ordserv::GroupRunResult r;
    {
      Scoped s(tr, "commit.window", window_no);
      r = ses.cluster->run_group_blocks(*ses.sequencer, std::move(batches));
    }
    const double wall = now_us() - t0;
    for (const ordserv::GroupRoundResult& g : r.rounds) {
      if (!g.fault.empty()) {
        ok = false;
        why = "group round fault: " + g.fault;
        if (res != nullptr) ++res->refused;
      } else if (g.decision != ledger::Decision::kCommit || !g.cosign_valid) {
        ok = false;
        why = "a group round did not commit";
      }
    }
    for (const auto& refusal : r.delivery_refusals) {
      if (refusal.has_value()) {
        ok = false;
        why = "delivery refused at height " + std::to_string(refusal->height) + ": " +
              refusal->reason;
        if (res != nullptr) ++res->refused;
      }
    }
    if (ok) committed = submitted;
    if (res != nullptr) {
      res->commit_ms.push_back(wall / 1000.0);
      res->commit_wall_us += wall;
      res->spec_revotes += r.spec_revotes;
    }
  } else {
    PipelineResult r;
    {
      Scoped s(tr, "commit.window", window_no);
      r = ses.cluster->run_blocks(std::move(batches));
    }
    const double wall = now_us() - t0;
    for (const RoundMetrics& m : r.rounds) {
      if (m.decision == ledger::Decision::kCommit && m.cosign_valid) {
        committed += m.txns_in_block;
      } else {
        ok = false;
        why = "a round did not commit";
      }
    }
    if (committed != submitted) ok = false;
    if (res != nullptr) {
      record_rounds(*res, r.rounds);
      for (const RoundMetrics& m : r.rounds) {
        res->commit_ms.push_back(m.measured_latency_us / 1000.0);
      }
      res->commit_wall_us += wall;
    }
  }
  if (res != nullptr) {
    res->cpu_us += process_cpu_us(RUSAGE_SELF) - cpu0;
    res->attempted += submitted;
    if (!ok) {
      res->fail("window " + std::to_string(window_no) + ": " +
                (why.empty() ? std::string("not every transaction committed") : why));
      res->failed += submitted;
    } else {
      res->committed += committed;
    }
  }
  return ok;
}

void run_inproc(const Workload& w, std::uint64_t seed, double seconds, Tracer& tr,
                Result& res) {
  const ClusterConfig cfg = cluster_config(w);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(w.windows_per_s * seconds + 0.5));

  // Set-up, several times over: cluster construction (keys, shards, Merkle
  // trees), the client, and one untimed warm-up window, so lazy
  // initialisation and first-touch pages land here and not in the samples.
  // Every repetition builds the identical cluster and warm-up window; the
  // last one is kept for the measured phase.
  const double t_begin = now_us();
  Session ses;
  std::optional<InputGen> gen;
  std::uint64_t txn_no = 0;
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && now_us() - t_begin >= kSetupPhaseUs) break;
    ses = Session{};
    const double t0 = now_us();
    {
      Scoped s(tr, "setup", static_cast<std::uint64_t>(rep));
      {
        Scoped c(tr, "setup.cluster", static_cast<std::uint64_t>(rep));
        ses.cluster = std::make_unique<Cluster>(cfg);
        ses.client = &ses.cluster->make_client();
        if (w.groups > 0) ses.sequencer = std::make_unique<ordserv::Sequencer>();
      }
      Scoped warm(tr, "setup.warmup", static_cast<std::uint64_t>(rep));
      gen.emplace(w, seed);
      txn_no = 0;
      Tracer off;
      auto batches = execute_blocks(*ses.client, gen->window(), txn_no, off, nullptr);
      if (!commit_window(w, ses, std::move(batches), nullptr, 0, off)) {
        res.fail("warm-up window did not commit");
      }
    }
    res.setup_s.push_back((now_us() - t0) / 1e6);
  }

  const double t_setup = now_us();
  Cluster& cluster = *ses.cluster;
  const Counts before = Counts::of(cluster.transport().stats());
  for (std::size_t k = 1; k <= windows; ++k) {
    auto batches = execute_blocks(*ses.client, gen->window(), txn_no, tr, &res);
    keep_samples(res, batches);
    commit_window(w, ses, std::move(batches), &res, k, tr);
  }
  res.counts.add(Counts::of(cluster.transport().stats()).minus(before));

  const double t_measured = now_us();
  check_replicas(cluster, res);
  if (w.groups > 0) res.sequenced = ses.sequencer->size();
  audit_and_recover(cluster, ses.sequencer.get(), ServerId{1}, res, tr);
  std::fprintf(stderr, "phases: set-up %.2f s, measured %.2f s, audits and recoveries %.2f s\n",
               (t_setup - t_begin) / 1e6, (t_measured - t_setup) / 1e6,
               (now_us() - t_measured) / 1e6);
  if (tr.enabled()) time_crypto(res, *ses.client);
}

// --- socket-3 ------------------------------------------------------------------------

struct Deployment {
  std::string dir;
  std::vector<std::string> addrs;
  std::vector<pid_t> children;
  std::unique_ptr<Cluster> cluster;
  Client* client{nullptr};
  std::unique_ptr<net::SocketScheduler> sched;
};

/// Spawns the serverds, builds the driver's own cluster (hosting S0 and the
/// client) and its socket scheduler, and waits until every peer listens.
/// Peers dial S0 as soon as they listen and retry every 20 ms while S0 is
/// still provisioning, hence the final grace period.
void teardown(Deployment& d) {
  for (const pid_t pid : d.children) net::kill_process(pid);
  d.children.clear();
  d.sched.reset();
  d.cluster.reset();
  std::error_code ec;
  std::filesystem::remove_all(d.dir, ec);
}

Deployment deploy(const Workload& w, const std::string& dir, std::size_t rounds) {
  Deployment d;
  d.dir = dir;
  try {
    std::filesystem::create_directories(dir);
    for (std::uint32_t i = 0; i < w.servers; ++i) {
      d.addrs.push_back("unix:" + dir + "/s" + std::to_string(i) + ".sock");
    }
    const std::string serverd = net::serverd_binary_path();
    for (std::uint32_t i = 1; i < w.servers; ++i) {
      std::vector<std::string> argv = {serverd,
                                       "--self", std::to_string(i),
                                       "--servers", std::to_string(w.servers),
                                       "--rounds", std::to_string(rounds),
                                       "--clients", "1",
                                       "--items", std::to_string(kItemsPerShard),
                                       "--batch", std::to_string(w.block_txns),
                                       "--no-data-sigs",
                                       "--pipeline", std::to_string(w.depth),
                                       "--threads", std::to_string(w.threads),
                                       "--seed", "42",
                                       "--log-dir", dir};
      if (w.speculate) argv.push_back("--spec");
      for (const std::string& a : d.addrs) argv.push_back(a);
      d.children.push_back(net::spawn(argv, dir + "/serverd-" + std::to_string(i) + ".log"));
    }
    ClusterConfig cfg = cluster_config(w);
    cfg.round_log_dir = dir;
    d.cluster = std::make_unique<Cluster>(cfg);
    d.client = &d.cluster->make_client();
    net::SocketOptions opts;
    opts.addrs = d.addrs;
    opts.self = 0;
    opts.connect_timeout_s = 60.0;
    opts.stall_timeout_s = 60.0;
    d.sched = std::make_unique<net::SocketScheduler>(*d.cluster, opts);
    const double deadline = now_us() + 60e6;
    for (std::uint32_t i = 1; i < w.servers; ++i) {
      const std::string path = dir + "/s" + std::to_string(i) + ".sock";
      struct stat st{};
      while (::stat(path.c_str(), &st) != 0) {
        int code = 0;
        if (net::try_wait(d.children[i - 1], &code)) {
          throw std::runtime_error("serverd " + std::to_string(i) + " exited " +
                                   std::to_string(code) + " during set-up");
        }
        if (now_us() > deadline) throw std::runtime_error("serverd never started listening");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  } catch (...) {
    teardown(d);
    throw;
  }
  return d;
}

/// One deployment's commit stream through the socket scheduler — the body
/// of net::run_commit_rounds_over_sockets, with the scheduler constructed
/// in set-up — then every peer digest checked against S0's state.
void socket_stream(const Workload& w, Deployment& d,
                   std::vector<std::vector<commit::SignedEndTxn>> batches, Result* res,
                   std::uint64_t deployment_no, Tracer& tr) {
  std::size_t submitted = 0;
  for (const auto& b : batches) submitted += b.size();
  std::vector<double> peer0(d.children.size());
  for (std::size_t c = 0; c < d.children.size(); ++c) peer0[c] = child_cpu_us(d.children[c]);
  const double cpu0 = process_cpu_us(RUSAGE_SELF);
  const double t0 = now_us();
  PipelineResult pipeline;
  std::vector<net::PeerDigest> digests;
  {
    Scoped s(tr, "commit.stream", deployment_no);
    pipeline = engine::run_commit_rounds(*d.cluster, Protocol::kTfCommit, std::move(batches),
                                         *d.sched);
    digests = d.sched->finish();
  }
  const double wall = now_us() - t0;
  double peer_cpu = 0;
  for (std::size_t c = 0; c < d.children.size(); ++c) {
    peer_cpu += child_cpu_us(d.children[c]) - peer0[c];
  }
  const double cpu = process_cpu_us(RUSAGE_SELF) - cpu0;

  bool ok = true;
  std::string why;
  std::uint64_t committed = 0;
  for (const RoundMetrics& m : pipeline.rounds) {
    if (m.decision == ledger::Decision::kCommit && m.cosign_valid) {
      committed += m.txns_in_block;
    } else {
      ok = false;
      why = "a round did not commit";
    }
  }
  if (committed != submitted) ok = false;
  const Server& s0 = d.cluster->server(ServerId{0});
  if (digests.size() != w.servers - 1) {
    ok = false;
    why = "missing peer digests";
  }
  for (const net::PeerDigest& dg : digests) {
    const auto root = latest_root(s0.log(), ServerId{dg.server});
    if (dg.log_height != s0.log().size() || !(dg.log_head == s0.log().head_hash()) ||
        !root.has_value() || !(*root == dg.shard_root)) {
      ok = false;
      why = "peer " + std::to_string(dg.server) + " digest differs from S0's state";
    }
  }
  for (std::size_t c = 0; c < d.children.size(); ++c) {
    const int code = net::wait_exit(d.children[c]);
    if (code != 0) {
      ok = false;
      why = "serverd " + std::to_string(c + 1) + " exited " + std::to_string(code);
    }
  }
  d.children.clear();

  if (res == nullptr) {
    if (!ok) throw std::runtime_error("warm-up deployment failed: " + why);
    return;
  }
  // The engine cannot resume a speculative socket stream across calls, so a
  // deployment is one call; as in-process, each block is one latency sample.
  for (const RoundMetrics& m : pipeline.rounds) {
    res->commit_ms.push_back(m.measured_latency_us / 1000.0);
  }
  record_rounds(*res, pipeline.rounds);
  res->commit_wall_us += wall;
  res->cpu_us += cpu;
  res->peer_cpu_us += peer_cpu;
  res->attempted += submitted;
  if (ok) {
    res->committed += committed;
  } else {
    res->failed += submitted;
    res->fail("deployment " + std::to_string(deployment_no) + ": " + why);
  }
}

/// Confines this process, and the serverds it spawns after the call, to one
/// CPU: the last it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) throw std::runtime_error("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

void run_socket(const Workload& w, std::uint64_t seed, double seconds,
                const std::string& workdir, Tracer& tr, Result& res) {
  // The three processes share one CPU. Spread over several, each message
  // hop waits for the host to wake a sleeping vCPU, and that wake-up
  // latency, not the code, set the commit figures: unpinned, tps moved
  // 1025-1238 over four seeds, pinned 442-467.
  pin_to_one_cpu();
  const std::size_t deployments =
      std::max<std::size_t>(1, static_cast<std::size_t>(w.windows_per_s * seconds + 0.5));
  const std::string base = workdir + "/sock-" + std::to_string(::getpid());
  // Deployment 0 is the warm-up, and the run's first process spawn (cold
  // binary, cold page cache): neither its set-up time nor its short stream
  // counts.
  for (std::size_t k = 0; k <= deployments; ++k) {
    const bool warmup = k == 0;
    const std::uint32_t blocks = warmup ? w.depth : w.socket_blocks;
    InputGen gen(w, seed * 1000003ULL + k);
    const std::vector<BlockSpec> stream = gen.distinct_stream(blocks);
    Deployment d;
    const double t0 = now_us();
    {
      Scoped s(tr, "setup", k);
      d = deploy(w, base + "-" + std::to_string(k), blocks);
    }
    if (!warmup) res.setup_s.push_back((now_us() - t0) / 1e6);
    try {
      std::uint64_t txn_no = 0;
      Tracer off;
      auto batches =
          execute_blocks(*d.client, stream, txn_no, warmup ? off : tr, warmup ? nullptr : &res);
      if (!warmup) keep_samples(res, batches);
      const Counts before = Counts::of(d.cluster->transport().stats());
      socket_stream(w, d, std::move(batches), warmup ? nullptr : &res, k, warmup ? off : tr);
      if (!warmup) res.counts.add(Counts::of(d.cluster->transport().stats()).minus(before));

      if (k == deployments) {
        // The peers' replicas in this process are inert; rebuild them from
        // the round logs their serverds left on disk, then check, audit and
        // recover the full cluster state.
        Cluster& cluster = *d.cluster;
        for (std::uint32_t i = 1; i < w.servers; ++i) {
          cluster.crash_server(ServerId{i});
          if (!cluster.recover_server(ServerId{i})) {
            throw std::runtime_error("server " + std::to_string(i) +
                                     "'s file-backed round log failed to replay");
          }
        }
        check_replicas(cluster, res);
        audit_and_recover(cluster, nullptr, ServerId{0}, res, tr);
        if (tr.enabled()) time_crypto(res, *d.client);
      }
    } catch (...) {
      teardown(d);
      throw;
    }
    teardown(d);
  }
}

// --- Output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

std::vector<Metric> end_to_end(const Result& r) {
  const double peak_kib = [] {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
  }();
  const int tail = tail_percentile(r.commit_ms.size());
  return {
      {"tps", ratio(static_cast<double>(r.committed), r.commit_wall_us / 1e6), "txn/s"},
      {"commit_p50_ms", median(r.commit_ms), "ms"},
      {"commit_tail_ms", percentile(r.commit_ms, tail), "ms"},
      {"exec_p50_ms", median(r.exec_ms), "ms"},
      {"audit_s", median(r.audit_s), "s"},
      {"recover_ms", median(r.recover_ms), "ms"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mb", peak_kib / 1024.0, "MiB"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Result& r, const Tracer& tr) {
  const double committed = static_cast<double>(r.committed);
  auto med_us = [&](const char* span) { return median(tr.durations(span)); };
  auto per_txn = [&](std::uint64_t count) { return ratio(static_cast<double>(count), committed); };
  const double threads = static_cast<double>(w.threads);
  return {
      {"engine.round_ms", median(r.round_ms), "ms"},
      {"engine.coordinator_ms", median(r.coordinator_ms), "ms"},
      {"engine.cohort_critical_ms", median(r.cohort_ms), "ms"},
      {"engine.overlap", ratio(r.round_sum_us, r.commit_wall_us), "ratio"},
      {"engine.spec_revotes", static_cast<double>(r.spec_revotes), "count"},
      {"engine.committed_txns", committed, "count"},
      {"merkle.mht_ms", median(r.mht_ms), "ms"},
      {"crypto.verify_us", r.verify_us, "us"},
      {"crypto.sign_us", r.sign_us, "us"},
      {"crypto.batch_verify_us_per_sig", r.batch_verify_us, "us"},
      {"transport.sigs_verified_per_txn", per_txn(r.counts.sigs_verified), "sigs/txn"},
      {"transport.sigs_created_per_txn", per_txn(r.counts.sigs_created), "sigs/txn"},
      {"transport.msgs_per_txn", per_txn(r.counts.messages), "msgs/txn"},
      {"transport.bytes_per_txn", per_txn(r.counts.bytes), "B/txn"},
      {"transport.rejected", static_cast<double>(r.counts.rejected), "count"},
      {"data.exec_p99_ms", percentile(r.exec_ms, 99.0), "ms"},
      {"data.begin_us", med_us("data.begin"), "us"},
      {"data.read_us", med_us("data.read"), "us"},
      {"data.write_us", med_us("data.write"), "us"},
      {"data.end_us", med_us("data.end"), "us"},
      {"audit.select_s", median(r.audit_select_s), "s"},
      {"audit.history_s", median(r.audit_history_s), "s"},
      {"audit.datastore_s", median(r.audit_datastore_s), "s"},
      {"audit.blocks", static_cast<double>(r.audit_blocks), "count"},
      {"audit.items_authenticated", static_cast<double>(r.audit_items), "count"},
      {"recovery.ms_per_block",
       ratio(median(r.recover_ms), static_cast<double>(r.recovered_height)), "ms"},
      {"ordserv.sequenced", static_cast<double>(r.sequenced), "count"},
      {"ordserv.refused", static_cast<double>(r.refused), "count"},
      {"pool.busy_frac", ratio(r.cpu_us, r.commit_wall_us * threads), "ratio"},
      {"net.peer_busy_frac", ratio(r.peer_cpu_us, r.commit_wall_us * (w.servers - 1)), "ratio"},
      {"host.ref_ms", (r.host_ref_start_ms + r.host_ref_end_ms) / 2.0, "ms"},
      {"trace.tps", ratio(committed, r.commit_wall_us / 1e6), "txn/s"},
  };
}

double host_reference_median() {
  std::vector<double> v;
  for (int i = 0; i < 3; ++i) v.push_back(host_reference_ms());
  return median(v);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench";
  if (argc % 2 == 0) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value == "1";
      } else if (flag == "--workdir") {
        workdir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::logic_error&) {  // stoull / stod on a malformed number
    return usage();
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr || seconds <= 0) return usage();
  std::filesystem::create_directories(workdir);

  Tracer tr;
  if (trace) tr.enable();
  Result res;
  res.host_ref_start_ms = host_reference_median();
  try {
    if (w->socket) {
      run_socket(*w, seed, seconds, workdir, tr, res);
    } else {
      run_inproc(*w, seed, seconds, tr, res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  res.host_ref_end_ms = host_reference_median();
  if (res.committed + res.failed != res.attempted) res.fail("transaction accounting mismatch");
  // A failed check of the final state (replicas, audit, recovery) implicates
  // every transaction of the run.
  if (!res.correct) res.failed = res.attempted;

  for (const std::string& e : res.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const std::vector<Metric> metrics = trace ? per_layer(*w, res, tr) : end_to_end(res);

  std::printf("workload %s seed %llu trace %d\n", w->name, static_cast<unsigned long long>(seed),
              trace ? 1 : 0);
  std::printf("samples: commit %zu (tail = p%d), exec %zu, setup reps %zu, audit reps %zu, "
              "recover reps %zu\n",
              res.commit_ms.size(), tail_percentile(res.commit_ms.size()), res.exec_ms.size(),
              res.setup_s.size(), res.audit_s.size(), res.recover_ms.size());
  std::printf("committed %llu of %llu attempted, failed_frac %.6f\n",
              static_cast<unsigned long long>(res.committed),
              static_cast<unsigned long long>(res.attempted),
              ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted)));
  std::printf("host.ref_ms start %.3f end %.3f\n", res.host_ref_start_ms, res.host_ref_end_ms);
  std::printf("ledger head %s\n", res.ledger_head.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (trace) {
    const std::string path = workdir + "/trace-" + w->name + ".jsonl";
    if (!tr.write(path, stdout)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::printf("spans %zu written to %s\n", tr.spans().size(), path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
