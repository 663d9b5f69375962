// The durable per-server round log — what a server may lose and re-find.
//
// The tamper-proof block log (ledger/log.hpp) is the *replicated* ledger;
// this file is the *local* durable state a server writes at each commit-round
// transition so that it can crash, lose every in-memory structure, and
// rejoin mid-round without equivocating:
//
//   * kVote     — the exact vote bytes the server sent for one engine epoch
//                 (TFCommit VoteMsg / 2PC PrepareVoteMsg). Written before the
//                 vote leaves the node: on restart the server re-sends these
//                 bytes, never a recomputed (possibly different) vote.
//   * kDecision — the finalized block the server appended and applied. The
//                 replay of these records rebuilds the ledger, the datastore
//                 shard, and the pipeline apply watermark.
//   * kResponse — a CoSi challenge the server's witness answered
//                 (commit/cosi_witness.hpp), keyed by nonce round.
//
// Records are framed by the engine epoch and chained by a running SHA-256
// (h_i = H(h_{i-1} ‖ record_i)); replay() verifies the chain and refuses a
// log whose bytes were altered — a crashed server must restore exactly what
// it promised or not restore at all (the vote-once / no-equivocation
// guarantee across restarts).
//
// Two implementations behind one interface: MemRoundLog (default — survives
// the Server object, not the process) and FileRoundLog (append-only file,
// one per server, re-readable across process restarts).
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"

namespace fides::ledger {

struct RoundRecord {
  enum class Type : std::uint8_t {
    kVote = 1,      ///< payload = serialized vote message bytes
    kDecision = 2,  ///< payload = serialized finalized Block
    kResponse = 3,  ///< payload = the CoSi challenge answered. Written by
                    ///< the CosiWitness for TFCommit, termination and
                    ///< checkpoint nonces alike (respond-once: the
                    ///< deterministic nonce must never sign two distinct
                    ///< challenges, even across a crash/restore)
  };

  Type type{Type::kVote};
  std::uint64_t epoch{0};    ///< engine epoch the record belongs to
  /// Speculated-base discriminator of a vote (VoteMsg::base_key; 0 for a
  /// vote on fully-applied state and for every decision). A re-vote after a
  /// mis-speculated base is a distinct logical vote: it gets its own
  /// (epoch, base) record, and the vote-once guarantee is per (epoch, base).
  std::uint64_t base{0};
  std::string msg_type;      ///< wire type tag ("tf_vote", "2pc_vote", ...)
  Bytes payload;

  Bytes encode() const;
  static std::optional<RoundRecord> decode(BytesView b);

  friend bool operator==(const RoundRecord&, const RoundRecord&) = default;
};

class RoundLog {
 public:
  virtual ~RoundLog() = default;

  /// Appends one record durably (in-memory logs: beyond the Server's
  /// lifetime; file logs: beyond the process's).
  virtual void append(const RoundRecord& record) = 0;

  virtual std::size_t size() const = 0;

  /// All records in append order, or nullopt if the chained integrity check
  /// fails — a tampered log must refuse to restore (it could otherwise make
  /// the server equivocate on a replayed vote).
  virtual std::optional<std::vector<RoundRecord>> replay() const = 0;
};

/// Chain hash step shared by both implementations (and by replay
/// verification): h' = SHA-256(h ‖ record bytes).
crypto::Digest chain_record(const crypto::Digest& head, BytesView record_bytes);

class MemRoundLog final : public RoundLog {
 public:
  void append(const RoundRecord& record) override;
  std::size_t size() const override { return records_.size(); }
  std::optional<std::vector<RoundRecord>> replay() const override;

  /// Fault injection for tests: flip one byte of record i's stored bytes.
  /// replay() must subsequently refuse.
  void tamper(std::size_t i, std::size_t byte_offset);

 private:
  struct Entry {
    Bytes bytes;
    crypto::Digest chain;  ///< running hash up to and including this record
  };
  std::vector<Entry> records_;
  crypto::Digest head_;  ///< chain head (zero digest for an empty log)
};

/// Append-only file log: [u32 length][record bytes][32-byte chain hash]*.
/// The chain hash after each record makes truncation-to-a-prefix the only
/// undetectable mutation — and a truncated log restores a shorter (strict
/// prefix) state, which the recovery protocol then tops up from survivors,
/// so even that cannot cause equivocation.
class FileRoundLog final : public RoundLog {
 public:
  explicit FileRoundLog(std::string path);
  ~FileRoundLog() override;

  FileRoundLog(const FileRoundLog&) = delete;
  FileRoundLog& operator=(const FileRoundLog&) = delete;

  void append(const RoundRecord& record) override;
  std::size_t size() const override { return count_; }
  std::optional<std::vector<RoundRecord>> replay() const override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t count_{0};
  crypto::Digest head_;
  std::FILE* out_{nullptr};  ///< append handle, held for the log's lifetime
};

}  // namespace fides::ledger
