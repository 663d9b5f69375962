// Byzantine behaviour injection (§3.2 failure model, §5 failure examples).
//
// A Fides server "can behave arbitrarily": this struct enumerates, layer by
// layer, the concrete deviations the paper analyses, each mapping to a lemma
// or scenario the auditor must catch. All flags default to honest.
#pragma once

#include <optional>

#include "commit/tfcommit.hpp"

namespace fides {

/// How a malicious execution layer corrupts read responses (Scenario 1).
enum class ReadFault : std::uint8_t {
  kNone,
  /// Return the previous version's value with up-to-date timestamps — the
  /// paper's Figure 10 example (stale $1000 instead of $900).
  kStaleValue,
  /// Return arbitrary garbage.
  kGarbageValue,
};

struct FaultConfig {
  // --- Execution layer (Lemma 1) -------------------------------------------
  ReadFault read_fault{ReadFault::kNone};
  /// Restrict the read fault to one item (nullopt = every read).
  std::optional<ItemId> read_fault_item;

  // --- Datastore layer (Lemma 2, Scenario 3) -------------------------------
  /// Skip applying committed writes for this item (datastore silently keeps
  /// the old value while the signed Merkle root reflects the new one).
  std::optional<ItemId> skip_write_item;
  /// After commit, corrupt the stored value of this item to garbage.
  std::optional<ItemId> corrupt_after_commit_item;

  // --- Commit layer (Lemmas 4 & 5, Scenario 2) ------------------------------
  commit::CohortFaults cohort;
  commit::CoordinatorFaults coordinator;

  // --- Log layer (Lemmas 6 & 7) ---------------------------------------------
  // Log tampering is applied after the fact via TamperProofLog's malicious
  // mutators (tamper_block / reorder / truncate_tail), driven by tests and
  // examples rather than per-round flags.
};

}  // namespace fides
