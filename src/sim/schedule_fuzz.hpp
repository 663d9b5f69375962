// Seeded schedule fuzzing of TFCommit/2PC rounds over SimNet.
//
// One seed = one fully determined scenario: cluster shape, network fault
// profile (delays, loss, duplication, reorder, partition window), an
// optional Byzantine deviation from the existing FaultConfig menu, and the
// message schedule itself. run_schedule executes the scenario and checks
// the paper's safety story as machine invariants:
//
//   * Agreement  — every honest server ends with the same log (sizes, head
//     hashes, per-block digests), no matter how the schedule interleaved.
//   * Durability — no committed transaction is lost: the last committed
//     write of every item is present in the owning honest server's store.
//   * Detection  — every injected Byzantine deviation leaves evidence:
//     commit-layer faults surface in-round (invalid co-sign, attributed
//     faulty cosigners, refusals — Lemmas 4 & 5); data/log-layer faults are
//     flagged by the auditor (Lemmas 1, 2, 6, 7).
//   * Honest runs audit clean (no false accusations), and a checkpoint
//     co-sign forms whenever all honest logs agree.
//
// Determinism: two calls with the same seed produce identical trace hashes,
// decisions, and result hashes — so any failure reproduces from the one
// seed printed by the runner (FIDES_SIM_SEED workflow, see README).
#pragma once

#include <string>

#include "crypto/sha256.hpp"

namespace fides::sim {

struct FuzzOutcome {
  std::uint64_t seed{0};
  bool ok{true};
  std::string failure;   ///< first violated invariant (empty when ok)
  std::string scenario;  ///< human-readable description of the scenario

  crypto::Digest trace_hash;   ///< SimNet event trace (schedule identity),
                               ///< up to the stall when the run stalled
  crypto::Digest result_hash;  ///< decisions + honest ledger fingerprint

  bool byzantine{false};  ///< a Byzantine deviation was injected
  bool detected{false};   ///< the deviation left the expected evidence

  bool crashed{false};     ///< a crash/recover cycle was injected
  bool terminated{false};  ///< a round finished via cohort-driven termination

  bool speculative{false};     ///< the scenario ran with speculative voting on
  std::size_t spec_revotes{0}; ///< mis-speculated vote variants discarded
};

struct FuzzOptions {
  /// Force a pipelined scenario (pipeline_depth in 2..4) even for seeds
  /// that would organically draw depth 1 — the pipelined smoke sweep. The
  /// agreement/durability/detection oracles are unchanged: pipelining must
  /// be invisible to every safety property.
  bool force_pipeline{false};

  /// Add a seeded crash/recover cycle to every scenario: one server loses
  /// all volatile state at a drawn virtual time and restores from its
  /// durable round log after a drawn downtime — composable with the
  /// existing network faults and Byzantine deviations. Coordinator crashes
  /// under TFCommit sometimes arm the cooperative-termination timeout. The
  /// oracles gain: recovered servers agree bit-for-bit with survivors, no
  /// committed write is lost across the crash, and no server ever sends two
  /// different votes for one round (vote-once across restarts).
  bool with_crash{false};

  /// Force ClusterConfig::speculate on for every TFCommit scenario (with
  /// pipeline_depth drawn from 2..8). Without it, speculation is still a
  /// fuzzed dimension — roughly half of the TFCommit seeds draw it, with
  /// depth 1..8 and an extra abort-heavy scripted stream that reliably
  /// forces mis-speculated bases and re-votes. The oracles are unchanged:
  /// speculation must be invisible to every safety property.
  bool force_speculation{false};
};

/// Executes the scenario derived from `seed` and checks all invariants. A
/// schedule that stalls the round dispatcher (the engine's std::logic_error)
/// returns ok=false with the exception's message as `failure` — the stuck
/// round and its phase counts — and the trace hash reached at the stall.
FuzzOutcome run_schedule(std::uint64_t seed, const FuzzOptions& options = {});

}  // namespace fides::sim
