// Two-Phase Commit baseline (§6.1).
//
// The trusted-infrastructure counterpart TFCommit is measured against:
// identical block/log plumbing (blocks are produced sequentially, the log
// has no forks) but no Merkle roots, no collective signing, and one fewer
// round. Comparing the two isolates the overhead of trust-freedom, exactly
// as Figure 12 does.
#pragma once

#include <span>

#include "commit/messages.hpp"
#include "store/shard.hpp"

namespace fides::commit {

class TwoPhaseCommitCohort {
 public:
  TwoPhaseCommitCohort(ServerId id, store::Shard& shard) : id_(id), shard_(&shard) {}

  PrepareVoteMsg handle_prepare(const PrepareMsg& msg);

 private:
  ServerId id_;
  store::Shard* shard_;
};

struct TwoPhaseCommitOutcome {
  Block block;
  Decision decision{Decision::kAbort};
};

class TwoPhaseCommitCoordinator {
 public:
  PrepareMsg start(Block partial_block, std::vector<SignedEndTxn> requests);

  TwoPhaseCommitOutcome on_votes(std::span<const PrepareVoteMsg> votes);

 private:
  Block block_;
};

}  // namespace fides::commit
