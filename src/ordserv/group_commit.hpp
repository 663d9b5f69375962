// Group commit: scaled TFCommit (§4.6).
//
// Instead of one global coordinator and all-server participation, each batch
// is terminated by the group of servers it actually touches; the group's
// coordinator runs TFCommit among the members only, then publishes the
// co-signed block to OrdServ, which broadcasts one consistently ordered,
// hash-chained stream to every server.
//
// Note on what the co-sign covers: the group signs the block with
// height 0 / zero prev-hash (OrdServ fills those afterwards — "the
// coordinators of the groups do not fill in the hash of the previous block,
// rather it is filled by the OrdServ"). Verifiers therefore check the inner
// co-sign over the *unchained* bytes (ledger::unchained_signing_bytes) plus
// the outer OrdServ hash chain.
//
// Two drivers share this module's validation and epoch rules:
//   GroupCommitRunner (below) — the sequential lock-step reference,
//     kept as the test oracle; it calls the TFCommit cohort/coordinator
//     state machines directly.
//   run_group_rounds (group_engine.hpp) — the engine-routed path: the group
//     placement of the round dispatcher, running engine::TfCommitRound (the
//     reactor global rounds run) under a Scheduler, with pipelining,
//     speculation, durable round logs, and crash/recovery. The two produce
//     bit-identical sequenced streams.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "fides/cluster.hpp"
#include "ordserv/sequencer.hpp"

namespace fides::ordserv {

/// Group rounds draw their CoSi round ids / durable-log epochs from the
/// *sequencer's* counter OR-ed with this bit. Both the sequencer's and the
/// cluster engine's counters hand out 1, 2, 3, ... — without the domain tag a
/// cluster running both kinds of rounds against one durable round log would
/// collide on the (epoch, base) vote key. Bit 63 is already the engine's
/// termination domain, so group commit takes bit 62.
inline constexpr std::uint64_t kGroupEpochDomain = 1ULL << 62;

inline std::uint64_t group_epoch(std::uint64_t sequencer_epoch) {
  return sequencer_epoch | kGroupEpochDomain;
}

struct GroupRoundResult {
  ledger::Decision decision{ledger::Decision::kAbort};
  ServerGroup group;
  std::uint64_t global_height{0};
  bool cosign_valid{false};
  std::size_t group_size{0};
  /// Why the round never reached OrdServ (empty when it was sequenced):
  /// refused batches, mismatched challenge fan-outs, unsignable blocks.
  std::string fault;
  /// Cohort refusals surfaced by the coordinator (evidence for detection).
  std::vector<std::pair<ServerId, std::string>> refusals;
  /// Cohorts whose co-sign shares failed attribution (Lemma 4).
  std::vector<ServerId> faulty_cosigners;
  /// Members seen sending two different authentic votes for one speculated
  /// base (engine runs; see RoundMetrics::vote_equivocators).
  std::vector<ServerId> vote_equivocators;
};

/// Evidence a delivering server records when a sequenced entry fails
/// validation: the stream halts at that height, nothing later is applied.
struct DeliveryRefusal {
  std::uint64_t height{0};
  std::string reason;
};

/// Incremental stream validation state: the expected chain position plus the
/// item→height map dependencies are recomputed from. One instance per
/// consumer (a delivering server, or a whole-stream scan); feed it entries in
/// height order via check().
///
/// check() verifies, against the running state:
///   - outer chain: entry height == next expected, prev_hash == running head;
///   - inner co-sign: present, signers in range, valid over the *unchained*
///     block bytes under the entry's group;
///   - dependency metadata: every dependency height precedes this entry, and
///     — because `depends_on` is sequencer-computed and covered by no
///     signature — the dependencies recomputed from the block's own touched
///     items must all be declared. A lying OrdServ that under-reports a
///     cross-group dependency is flagged here, not trusted.
/// On success the state advances and nullopt is returned; on failure the
/// state is left unchanged and the refusal reason is returned.
struct StreamValidator {
  std::uint64_t next_height{0};
  crypto::Digest expected_prev = crypto::Digest::zero();
  std::unordered_map<ItemId, std::uint64_t> last_touch;

  std::optional<std::string> check(const SequencedBlock& entry,
                                   const crypto::KeyRegistry& keys);
};

/// Validates an OrdServ stream from genesis: inner co-sign per entry (over
/// the unchained block bytes, under the entry's group), outer hash chain, and
/// dependency completeness + order (see StreamValidator). Returns the index
/// of the first bad entry, or nullopt when clean.
std::optional<std::size_t> validate_stream(
    std::span<const SequencedBlock> stream,
    const crypto::KeyRegistry& keys);

class GroupCommitRunner {
 public:
  GroupCommitRunner(Cluster& cluster, Sequencer& sequencer)
      : cluster_(&cluster), sequencer_(&sequencer),
        delivered_(cluster.num_servers()), validators_(cluster.num_servers()),
        refusals_(cluster.num_servers()) {}

  /// Runs TFCommit for `batch` inside its group, publishes to OrdServ, and
  /// delivers + applies the stream at every server. Empty batches, mismatched
  /// coordinator fan-outs, and unsignable blocks are refused (result.fault
  /// says why) and never reach the sequencer.
  GroupRoundResult run_group_block(std::vector<commit::SignedEndTxn> batch);

  /// Delivers anything sequenced since the last delivery to every server —
  /// each entry is validated (StreamValidator) before its transactions touch
  /// a shard. Normally run_group_block calls this; exposed so tests can
  /// tamper with the sequencer directly and watch delivery refuse.
  void deliver_pending() { deliver_all(); }

  /// The globally replicated (group-mode) log as seen by one server: the
  /// entries that server accepted. Stops at the first refused entry.
  const std::vector<SequencedBlock>& log_of(ServerId server) const {
    return delivered_.at(server.value);
  }

  /// The refusal that halted delivery at `server`, if any.
  const std::optional<DeliveryRefusal>& refusal_of(ServerId server) const {
    return refusals_.at(server.value);
  }

 private:
  void deliver_all();

  Cluster* cluster_;
  Sequencer* sequencer_;
  std::vector<std::vector<SequencedBlock>> delivered_;      // per server
  std::vector<StreamValidator> validators_;                 // per server
  std::vector<std::optional<DeliveryRefusal>> refusals_;    // per server
};

}  // namespace fides::ordserv
