// Wall-clock gates: the Schnorr fast paths (§3.1 crypto hot path) and
// batched signature opens in commit rounds.
//
// Every gate times its path against a reference that the path's own
// optimization does not change, and every gate times through one rule
// (time_pairs): the two sides run back to back, alternating which goes
// first, each call (or round) timed on its own, and the gate reads the
// median of the per-pair ratios, so a burst of load from another process
// strikes both sides of a pair alike. The ratio of two paths timed back to
// back on one host holds across hosts where their absolute times do not.
//
//   mul_add    verify(PublicKey): one GLV-split Strauss ladder over a key
//              table built for the call (a key seen once).
//   cached     verify(KeyTable): the same ladder over the key's width-8
//              table, built once at registration (every check under a
//              registered key).
//   sign       KeyPair::sign: k·G on the fixed-base comb plus one inverse
//              for the affine R.
//   batched_N  schnorr::batch_verify of N signatures (one RLC aggregate
//              MSM), reported per signature; informational, not gated.
//     Each of these is timed against the plain double-and-add
//     Curve::mul(s, G) on the signature's s.
//   batched opens
//              9-server TFCommit rounds of 100 transactions with
//              ClusterConfig::batch_verify on, against the same minted
//              rounds with it off (per-signature opens), round by round on
//              two clusters at 1 thread: the gain gated is the aggregate's
//              CPU saving, not the pool's fan-out. The two ledgers must be
//              identical.
//
// The bench exits 1 if a path is wrong or if its median ratio to the
// reference exceeds its bar. The readings quoted at the bars below come from
// a 4-core Xeon host, gcc 12, each path run alone and beside a ctest -j3 of
// the other suites.
//
// Emits a fides-bench-v1 report (--json <path> / FIDES_BENCH_JSON); every
// figure lands in the info group.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "crypto/schnorr.hpp"

namespace {

using namespace fides;
using Clock = std::chrono::steady_clock;

// Bars on the median ratio of a gated path's time to its reference's, set
// from the default (RelWithDebInfo) build: each sits between the path's
// worst reading and the best reading of the implementation it replaced.
// mul_add reads 0.56-0.60; as two separate multiplications, 1.12-1.17.
constexpr double kMulAddBar = 0.80;
// cached reads 0.47-0.52; routed through verify(PublicKey), 0.55-0.63.
constexpr double kCachedBar = 0.535;
// sign reads 0.13-0.17; with k·G computed as Curve::mul(k, G), 1.01-1.03.
constexpr double kSignBar = 0.18;
// Batched rounds read 0.62-0.69 of per-signature rounds (1.44-1.62x faster);
// with the per-signature path on both clusters, 0.98-1.02.
constexpr double kBatchedBar = 1 / 1.3;

// Pairs per crypto path and per batch size (odd, so the median is one
// pair's ratio), and rounds per engine side.
constexpr std::size_t kPairs = 401;
constexpr std::size_t kBatchPairs = 51;
constexpr std::size_t kRounds = 31;

struct Pairing {
  double ratio{0};         ///< median over pairs of gated / reference time
  double gated_us{0};      ///< median gated call
  double reference_us{0};  ///< median reference call
};

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

/// Runs gated(i) and reference(i) back to back for i in [0, pairs),
/// alternating which runs first, and times each call on its own. Either
/// returning false ends the bench.
template <typename Gated, typename Reference>
Pairing time_pairs(const char* name, std::size_t pairs, Gated&& gated,
                   Reference&& reference) {
  std::vector<double> ratios, gated_s, reference_s;
  for (std::size_t i = 0; i < pairs; ++i) {
    double secs[2];
    for (int side = 0; side < 2; ++side) {
      const bool is_gated = (side == 0) == (i % 2 == 0);
      const auto t0 = Clock::now();
      const bool ok = is_gated ? gated(i) : reference(i);
      secs[is_gated ? 0 : 1] = std::chrono::duration<double>(Clock::now() - t0).count();
      if (!ok) {
        std::printf("ERROR: %s %s call %zu failed\n", name,
                    is_gated ? "gated" : "reference", i);
        std::exit(1);
      }
    }
    gated_s.push_back(secs[0]);
    reference_s.push_back(secs[1]);
    ratios.push_back(secs[0] / secs[1]);
  }
  return Pairing{median(ratios), 1e6 * median(gated_s), 1e6 * median(reference_s)};
}

struct Signed {
  crypto::KeyPair kp;
  Bytes message;
  crypto::Signature sig;
  std::unique_ptr<crypto::KeyTable> table;  ///< pk's, as a registry holds it

  const crypto::PublicKey& pk() const { return kp.public_key(); }
};

std::vector<Signed> make_corpus(std::size_t n) {
  std::vector<Signed> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::KeyPair kp = crypto::KeyPair::deterministic(1000 + i);
    Writer w;
    w.str("ablation-verify-msg");
    w.u64(i);
    Bytes msg = std::move(w).take();
    const crypto::Signature sig = kp.sign(msg);
    out.push_back(Signed{kp, std::move(msg), sig,
                         std::make_unique<crypto::KeyTable>(kp.public_key())});
  }
  return out;
}

/// Per-signature and batched opens on the same minted rounds, paired round
/// by round; exits 1 if the two ledgers differ.
Pairing batched_opens() {
  ClusterConfig cfg;
  cfg.num_servers = 9;
  cfg.items_per_shard = 10000;
  cfg.max_batch_size = 100;
  cfg.num_threads = 1;
  cfg.sign_data_path = false;
  std::vector<std::vector<commit::SignedEndTxn>> on_batches = bench::mint_batches(cfg, kRounds);
  std::vector<std::vector<commit::SignedEndTxn>> off_batches = on_batches;

  Cluster off(cfg);
  cfg.batch_verify = true;
  Cluster on(cfg);
  off.make_client();  // registers the deterministic client key
  on.make_client();
  std::vector<RoundMetrics> off_rounds, on_rounds;
  const Pairing p = time_pairs(
      "batched opens", on_batches.size(),
      [&](std::size_t i) {
        on_rounds.push_back(on.run_block(std::move(on_batches[i])));
        return true;
      },
      [&](std::size_t i) {
        off_rounds.push_back(off.run_block(std::move(off_batches[i])));
        return true;
      });
  const bench::DepthRun off_run = bench::fingerprint(off, off_rounds, 0, cfg.num_servers);
  const bench::DepthRun on_run = bench::fingerprint(on, on_rounds, 0, cfg.num_servers);
  if (!on_run.same_ledger(off_run)) {
    std::printf("ERROR: batched opens diverged from per-signature opens\n");
    std::exit(1);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Signed> corpus = make_corpus(64);
  const crypto::Curve& curve = crypto::Curve::instance();
  const auto at = [&](std::size_t i) -> const Signed& { return corpus[i % corpus.size()]; };
  const auto reference_mul = [&](std::size_t i) {
    return !curve.mul(at(i).sig.s, curve.generator()).is_infinity();
  };

  bench::BenchReport report("gates");
  bench::stamp_config(report);
  report.config("pairs", kPairs);
  report.config("rounds", kRounds);

  std::printf("%-14s %-12s %-14s %-10s %s\n", "path", "us/call", "reference_us", "ratio",
              "bar");
  bool pass = true;
  // Prints and reports a path's reading; a bar of 0 reports it ungated.
  const auto record = [&](const std::string& label, const Pairing& p, double bar) {
    std::printf("%-14s %-12.1f %-14.1f %-10.3f ", label.c_str(), p.gated_us, p.reference_us,
                p.ratio);
    bench::BenchPoint& point = report.point(label);
    point.info.set("us_per_call", p.gated_us);
    point.info.set("us_per_reference", p.reference_us);
    point.info.set("ratio_to_reference", p.ratio);
    if (bar <= 0) {
      std::printf("-\n");
      return;
    }
    point.info.set("bar", bar);
    std::printf("<= %.3f %s\n", bar, p.ratio <= bar ? "ok" : "FAIL");
    pass &= p.ratio <= bar;
  };

  record("mul_add",
         time_pairs(
             "mul_add", kPairs,
             [&](std::size_t i) { return crypto::verify(at(i).pk(), at(i).message, at(i).sig); },
             reference_mul),
         kMulAddBar);
  record("cached",
         time_pairs(
             "cached", kPairs,
             [&](std::size_t i) {
               return crypto::verify(*at(i).table, at(i).message, at(i).sig);
             },
             reference_mul),
         kCachedBar);
  record("sign",
         time_pairs(
             "sign", kPairs,
             [&](std::size_t i) { return at(i).kp.sign(at(i).message).s == at(i).sig.s; },
             reference_mul),
         kSignBar);
  for (const std::size_t n : {16UL, 64UL}) {
    std::vector<crypto::BatchItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(crypto::BatchItem{
          &at(i).pk(), BytesView(at(i).message.data(), at(i).message.size()), &at(i).sig});
    }
    Pairing p = time_pairs(
        "batched", kBatchPairs,
        [&](std::size_t) {
          const auto verdicts = crypto::batch_verify(items);
          return std::all_of(verdicts.begin(), verdicts.end(),
                             [](unsigned char v) { return v != 0; });
        },
        reference_mul);
    p.ratio /= static_cast<double>(n);
    p.gated_us /= static_cast<double>(n);
    record("batched_" + std::to_string(n), p, 0);
  }
  record("batched_opens", batched_opens(), kBatchedBar);

  bench::finish_report(report, argc, argv);
  if (!pass) {
    std::printf("FAIL: a path is slower than its bar allows\n");
    return 1;
  }
  return 0;
}
