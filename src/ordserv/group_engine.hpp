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
// Group rounds are the group placement policy of the one round dispatcher
// (engine/round_dispatcher.hpp); global rounds (engine/pipeline.hpp) are the
// other policy. Each batch's ServerGroup runs its own engine::TfCommitRound
// — placed on the group's members with unchained blocks, the same reactor
// global rounds run — under any Scheduler, with no single global
// coordinator. The dispatcher core supplies routing and dedup, the
// touch-order opening gates and depth-window admission (so pipeline_depth
// and speculate compose *independently per server* while overlapping groups
// serialize), completion, the decided prefix, and the crash/recover
// skeleton. The group policy adds only OrdServ's part: per-group epochs,
// refusal at admission and a depth cap of 8, the round-order sequencing
// barrier and gtf_refuse, validated delivery of the sequenced stream
// (gtf_seq, buffered by height), and its replay on recovery.
//
// Votes, CoSi responses, and delivered entries go through the servers'
// durable RoundLogs (vote_once / the CosiWitness / record_decision), so
// recovery replays the sequenced stream plus any in-flight rounds and
// converges on the stream the uncrashed run produces. The reference every
// run is compared against is the same engine at pipeline_depth 1 on one
// thread under the in-process scheduler: the stream is bit-identical at
// every scheduler, depth, speculation setting and crash schedule.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "engine/scheduler.hpp"
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
  /// base (see RoundMetrics::vote_equivocators).
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

/// Result of an engine run over a sequence of group batches.
struct GroupRunResult {
  /// One per batch, in submission order.
  std::vector<GroupRoundResult> rounds;
  /// Per server: the refusal that halted delivery there, if any.
  std::vector<std::optional<DeliveryRefusal>> delivery_refusals;
  double wall_us{0};
  /// Votes discarded for a mis-speculated base across all rounds. Telemetry:
  /// the count depends on delivery interleaving (streams do not).
  std::size_t spec_revotes{0};
};

/// Runs every batch as a group-local TFCommit round on the engine reactors
/// under `sched`, sequencing valid outcomes through `sequencer` and
/// delivering the hash-chained stream to every server (validated, durable).
/// Empty batches are refused at submission (result.fault says why) and draw
/// no epoch. Delivery validators are seeded from the servers' logs, so
/// successive runs on one cluster+sequencer extend one stream. Throws
/// std::logic_error if the schedule stalls before completion.
GroupRunResult run_group_rounds(Cluster& cluster, Sequencer& sequencer,
                                std::vector<std::vector<commit::SignedEndTxn>> batches,
                                engine::Scheduler& sched);

}  // namespace fides::ordserv
