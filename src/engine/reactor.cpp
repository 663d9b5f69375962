#include "engine/reactor.hpp"

#include <algorithm>

#include "common/cpu_time.hpp"

namespace fides::engine {

namespace {

/// Wire type of a TFCommit vote. Speculative re-votes are distinct logical
/// messages: the base key lands in the type tag so the engine's at-most-once
/// filter (keyed on sender/receiver/type/epoch) admits one copy of *each*
/// vote variant instead of swallowing the corrected vote as a duplicate.
std::string tf_vote_type(std::uint64_t base) {
  if (base == 0) return "tf_vote";
  char buf[32];
  std::snprintf(buf, sizeof buf, "tf_vote~%016llx",
                static_cast<unsigned long long>(base));
  return buf;
}

bool is_tf_vote_type(const std::string& type) {
  return type == "tf_vote" || type.compare(0, 8, "tf_vote~") == 0;
}

/// Position of `server` in the ascending id list `ids`, or nullopt.
std::optional<std::size_t> position_of(std::span<const ServerId> ids, std::uint32_t server) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), ServerId{server},
                                   [](ServerId a, ServerId b) { return a.value < b.value; });
  if (it == ids.end() || it->value != server) return std::nullopt;
  return static_cast<std::size_t>(it - ids.begin());
}

}  // namespace

RoundPlacement RoundPlacement::global(const Cluster& cluster) {
  // §4.1: every server, the coordinator included, votes and co-signs.
  RoundPlacement p;
  p.members.reserve(cluster.num_servers());
  for (std::uint32_t i = 0; i < cluster.num_servers(); ++i) p.members.push_back(ServerId{i});
  p.coordinator = cluster.coordinator_id();
  return p;
}

RoundReactor::RoundReactor(Cluster& cluster, RoundPlacement placement, std::uint64_t epoch,
                           RoundObserver* observer)
    : cluster_(&cluster),
      transport_(&cluster.transport()),
      n_(cluster.num_servers()),
      placement_(std::move(placement)),
      coord_node_(NodeId::server(placement_.coordinator)),
      epoch_(epoch),
      observer_(observer),
      cohort_us_(n_, 0),
      cohort_mht_us_(n_, 0),
      vote_bytes_seen_(n_) {}

Envelope RoundReactor::seal_framed(const Server& sender, const char* type,
                                   BytesView payload) const {
  return transport_->seal(sender.keypair(), NodeId::server(sender.id()), type,
                          frame_payload(epoch_, payload));
}

void RoundReactor::broadcast(Outbox& out, const Envelope& env,
                             std::span<const ServerId> to) {
  if (to.empty()) to = placement_.members;
  for (std::size_t i = 0; i < to.size(); ++i) {
    if (i > 0) transport_->count_copy(env);
    out.send(env.sender, server_node(to[i].value), env);
  }
}

void RoundReactor::note_vote_bytes(std::uint32_t src, std::uint64_t base,
                                   BytesView payload) {
  if (src >= n_) return;
  const auto [it, fresh] = vote_bytes_seen_[src].emplace(
      base, Bytes(payload.begin(), payload.end()));
  if (fresh) return;
  const Bytes& first = it->second;
  const bool same = first.size() == payload.size() &&
                    std::equal(first.begin(), first.end(), payload.begin());
  if (!same) {
    const ServerId id{src};
    auto& eq = metrics_.vote_equivocators;
    if (std::find(eq.begin(), eq.end(), id) == eq.end()) eq.push_back(id);
  }
}

void RoundReactor::decision_processed(Server& server, const char* msg_type,
                                      const ledger::Block& block,
                                      Server::ApplyResult result,
                                      const std::function<void()>& on_resolved) {
  if (result == Server::ApplyResult::kApplied) {
    server.record_decision(epoch_, msg_type, block);
  }
  // kApplied and kRejected are this round's decision being *processed* (an
  // invalid co-sign is refused, but the round is over at this server).
  // kStale was counted when the block was first applied; kFuture is an
  // out-of-order straggler the recovery replay will re-supply in order —
  // counting either would advance the watermark for work not done.
  if (result != Server::ApplyResult::kApplied &&
      result != Server::ApplyResult::kRejected) {
    return;
  }
  // Speculation re-votes (when any) must leave before the observer runs:
  // advancing the watermark can flush the *next* held decision into this
  // server inline, and the re-votes must reflect this round's state, not a
  // later one's.
  if (on_resolved) on_resolved();
  if (observer_ != nullptr) {
    observer_->on_decision_processed(epoch_, server.id().value);
  }
}

void RoundReactor::finalize() {
  metrics_.coordinator_us = coord_us_;
  metrics_.cohort_critical_us =
      *std::max_element(cohort_us_.begin(), cohort_us_.end());
  metrics_.mht_us = *std::max_element(cohort_mht_us_.begin(), cohort_mht_us_.end());
}

// --- TFCommit -----------------------------------------------------------------

TfCommitRound::TfCommitRound(Cluster& cluster, RoundPlacement placement,
                             std::uint64_t epoch, std::vector<commit::SignedEndTxn> batch,
                             RoundObserver* observer, SpecContext* spec)
    : RoundReactor(cluster, std::move(placement), epoch, observer),
      batch_(std::move(batch)),
      pristine_batch_(batch_),
      coordinator_(placement_.members, cluster.server_keys()),
      spec_(spec),
      votes_(placement_.members.size()),
      buffered_votes_(placement_.members.size()),
      responses_(placement_.members.size()),
      term_votes_(0),
      term_waiting_(n_, 0),
      term_shares_(0) {
  metrics_.txns_in_block = batch_.size();
}

std::optional<std::size_t> TfCommitRound::slot_of(std::uint32_t server) const {
  return position_of(placement_.members, server);
}


void TfCommitRound::start(Outbox& out) {
  // A dead coordinator opens nothing; its recovery restarts the round.
  if (cluster_->is_crashed(placement_.coordinator)) return;
  commit::order_batch(batch_);
  Server& coord = coord_server();

  // Phase 1 <GetVote, SchAnnouncement> — assembled against the
  // coordinator's current log head (or, speculating, the projected chain
  // position; unchained, height 0 and a zero prev-hash); everything after
  // reacts to deliveries. The partial is cached so a restart after a
  // coordinator crash re-broadcasts the identical opening even though the
  // chain may have moved on since.
  const auto t0 = Clock::now();
  if (!first_partial_.has_value()) {
    SpecContext::ChainPos base{0, crypto::Digest::zero()};
    if (!placement_.unchained) {
      base = spec_ != nullptr ? spec_->opening_base(epoch_)
                              : SpecContext::ChainPos{coord.log().size(), coord.log().head_hash()};
    }
    first_partial_ = commit::TfCommitCoordinator::make_partial_block(
        base.height, base.prev_hash, commit::batch_txns(batch_), placement_.members);
  }
  commit::Block partial = *first_partial_;
  height_ = partial.height;
  commit::GetVoteMsg get_vote = coordinator_.start(std::move(partial), std::move(batch_));
  // The engine's CoSi round id is the epoch, not the height: aborted rounds
  // reuse heights, and nonce domains (and cohort round state) must never
  // collide across rounds.
  get_vote.round = epoch_;
  get_vote.spec = spec_ != nullptr;
  opening_env_ = seal_framed(coord, "tf_get_vote", get_vote.serialize());
  opening_sent_ = true;
  coord_us_ += since_us(t0);

  broadcast(out, opening_env_);
}

void TfCommitRound::handle_get_vote(NodeId dst, BytesView body, bool authentic,
                                    Outbox& out) {
  // Phase 2 <Vote, SchCommitment> at cohort dst.
  if (!slot_of(dst.id).has_value()) return;
  Server& server = cluster_->server(ServerId{dst.id});
  const double tc = common::thread_cpu_time_us();
  commit::VoteMsg empty_vote;
  Bytes vote_bytes = empty_vote.serialize();
  std::uint64_t base = 0;
  bool respond = true;
  if (authentic) {
    if (const auto msg = commit::GetVoteMsg::deserialize(body)) {
      // Only a chained round can tell from the log that it already decided
      // here; unchained partials all sit at height 0, and the group engine
      // drops openings for rounds a member has finished before they arrive.
      const bool already_decided =
          !placement_.unchained && server.log().size() > msg->partial_block.height;
      const Bytes* logged = server.logged_vote(epoch_);
      if (already_decided && logged == nullptr) {
        // The round closed without this server's vote (cohort termination
        // while it was down); nobody needs one now.
        respond = false;
      } else if (!already_decided &&
                 !server.tf_cohort().has_pending(msg->round, msg->partial_block)) {
        // First sight — or a rebuild after a crash wiped the volatile round
        // state. Recomputation is deterministic against the restored durable
        // state, and vote_once is idempotent per (epoch, base): replaying
        // yields the logged bytes, so no base ever equivocates. Keying on the
        // *recomputed* base matters after a crash: the latest pre-crash vote
        // may stack on speculative assumptions that have since been decided
        // differently — re-sending it would leave the coordinator waiting
        // forever for a corrected re-vote the wiped pending stack can no
        // longer produce.
        commit::CohortFaults faults = server.faults().cohort;
        if (!verify_touching_requests(*transport_, server, msg->requests)) {
          faults.always_vote_abort = true;  // refuse forged requests
        }
        commit::VoteMsg vote = server.tf_cohort().handle_get_vote(*msg, faults);
        server.add_mht_time_us(server.tf_cohort().last_root_compute_us());
        cohort_mht_us_[dst.id] =
            std::max(cohort_mht_us_[dst.id], server.tf_cohort().last_root_compute_us());
        base = vote.base_key();
        vote_bytes = server.vote_once(epoch_, base, "tf_vote", vote.serialize());
      } else if (logged != nullptr) {
        // A duplicate opening for a live round, or a decided one replayed to
        // a restored cohort: re-send the latest logged vote verbatim.
        vote_bytes = *logged;
        if (const auto prev = commit::VoteMsg::deserialize(*logged)) {
          base = prev->base_key();
        }
      }
    }
  }
  if (respond) {
    Envelope vote_env = seal_framed(server, tf_vote_type(base).c_str(), vote_bytes);
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    out.send(NodeId::server(server.id()), coord_node_, std::move(vote_env));
  } else {
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
  }
  // A termination query arrived before this cohort had voted: settle the
  // deferred reply now that it has.
  if (term_leader_ && term_waiting_[dst.id] && server.logged_vote(epoch_) != nullptr) {
    term_waiting_[dst.id] = 0;
    send_term_vote(server, out);
  }
}

void TfCommitRound::resolve_speculation(
    Transport& transport, Server& server, std::uint64_t epoch, bool applied,
    const std::function<std::optional<NodeId>(std::uint64_t)>& coordinator_of,
    Outbox& out) {
  auto revotes = server.tf_cohort().resolve_decision(epoch, applied);
  for (auto& rv : revotes) {
    const std::uint64_t base = rv.vote.base_key();
    const Bytes vb = server.vote_once(rv.round, base, "tf_vote", rv.vote.serialize());
    const std::optional<NodeId> coord = coordinator_of(rv.round);
    if (!coord.has_value()) continue;
    Envelope env = transport.seal(server.keypair(), NodeId::server(server.id()),
                                  tf_vote_type(base), frame_payload(rv.round, vb));
    out.send(NodeId::server(server.id()), *coord, std::move(env));
  }
}

void TfCommitRound::on_deliver(NodeId src, NodeId dst, const Envelope& env,
                               bool authentic, Outbox& out) {
  const BytesView body = unframe_payload(env.payload);

  if (env.type == "tf_get_vote") {
    handle_get_vote(dst, body, authentic, out);

  } else if (is_tf_vote_type(env.type)) {
    // Phase 3 <null, SchChallenge> at the coordinator, once the last vote is
    // in. Votes land in cohort order regardless of arrival order. Under
    // speculation a vote is first parked per (sender, base) and only counts
    // once its base assumptions survive the decided chain.
    const auto t = Clock::now();
    const auto slot = slot_of(src.id);
    if (slot.has_value() && dst == coord_node_) {
      // An unauthenticated or malformed vote is never ingested; the slot is
      // conservatively filled with an involved abort so the round still
      // terminates — with a deny.
      commit::VoteMsg vote;
      vote.cohort = ServerId{src.id};
      vote.involved = true;
      vote.abort_reason = "vote envelope failed authentication";
      bool parsed = false;
      if (authentic) {
        if (const auto msg = commit::VoteMsg::deserialize(body)) {
          vote = *msg;
          parsed = true;
        }
        note_vote_bytes(src.id, parsed ? vote.base_key() : 0, body);
      }
      ingest_vote(*slot, std::move(vote), out);
    }
    coord_us_ += since_us(t);

  } else if (env.type == "tf_challenge") {
    // Phase 4 <null, SchResponse> at cohort dst.
    if (!slot_of(dst.id).has_value()) return;
    Server& server = cluster_->server(ServerId{dst.id});
    const double tc = common::thread_cpu_time_us();
    commit::ResponseMsg resp;
    resp.cohort = server.id();
    if (authentic) {
      if (const auto msg = commit::ChallengeMsg::deserialize(body)) {
        if (server.tf_cohort().partial_of(epoch_) == nullptr &&
            server.logged_vote(epoch_) != nullptr) {
          // Recovering cohort: a stray duplicate challenge outran the
          // replayed opening that rebuilds its round state. Stay silent —
          // the replay stream re-sends the challenge in causal order.
          cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
          return;
        }
        resp = server.tf_cohort().handle_challenge(epoch_, *msg, server.faults().cohort);
      } else {
        resp.refused = true;
        resp.refusal_reason = "malformed challenge payload";
      }
    } else {
      resp.refused = true;
      resp.refusal_reason = "challenge envelope failed authentication";
    }
    Envelope resp_env = seal_framed(server, "tf_response", resp.serialize());
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    out.send(NodeId::server(server.id()), coord_node_, std::move(resp_env));

  } else if (env.type == "tf_response") {
    // Phase 5 <Decision, null> at the coordinator, once all responses are
    // in: aggregate the co-sign and decide.
    const auto t = Clock::now();
    const auto slot = slot_of(src.id);
    if (slot.has_value() && dst == coord_node_ && !responses_.has(*slot)) {
      commit::ResponseMsg resp;
      resp.cohort = ServerId{src.id};
      resp.refused = true;
      resp.refusal_reason = "response envelope failed authentication";
      if (authentic) {
        if (const auto msg = commit::ResponseMsg::deserialize(body)) resp = *msg;
      }
      responses_.fill(*slot, std::move(resp));
    }
    if (responses_.full() && !outcome_.has_value()) {
      decide(coordinator_.on_responses(responses_.values()), out);
    }
    coord_us_ += since_us(t);

  } else if (env.type == "tf_decision" || env.type == "tf_term_decision") {
    // Log append + datastore update at server dst (steps 6-7). The apply
    // step rebuilds Merkle leaves — folded into mht_us.
    Server& server = cluster_->server(ServerId{dst.id});
    const double tc = common::thread_cpu_time_us();
    const double mht_before = server.mht_time_us();
    bool processed = false;
    ledger::Block block;
    Server::ApplyResult result = Server::ApplyResult::kRejected;
    if (authentic) {
      if (const auto msg = commit::DecisionMsg::deserialize(body)) {
        result = server.apply_decision(msg->final_block, Server::CosignView::kChained,
                                       cluster_->server_keys());
        block = msg->final_block;
        processed = true;
      }
    }
    cohort_mht_us_[dst.id] =
        std::max(cohort_mht_us_[dst.id], server.mht_time_us() - mht_before);
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    if (processed) {
      // Speculation truth feed: this decision may contradict the base of
      // later in-flight votes at this cohort — those are recomputed on the
      // corrected state and re-sent as new logical votes.
      decision_processed(server, env.type.c_str(), block, result, [&] {
        if (spec_ == nullptr) return;
        const bool applied = result == Server::ApplyResult::kApplied && block.committed();
        resolve_speculation(*transport_, server, epoch_, applied,
                            [this](std::uint64_t) { return std::optional(coord_node_); }, out);
      });
    }
  } else if (env.type == "tf_term_query") {
    // Termination step 1: the backup asks every surviving cohort for its
    // recorded vote plus a fresh CoSi commitment.
    if (!authentic || !term_leader_) return;
    Server& server = cluster_->server(ServerId{dst.id});
    if (server.logged_vote(epoch_) == nullptr) {
      term_waiting_[dst.id] = 1;  // reply once the opening reaches us
      return;
    }
    send_term_vote(server, out);

  } else if (env.type == "tf_term_vote") {
    // Termination step 2, at the backup: collect votes from the live set.
    if (!authentic || !term_leader_ || dst.id != term_backup_) return;
    const auto slot = position_of(term_leader_->signers(), src.id);
    if (!slot || term_votes_.has(*slot)) return;
    try {
      Reader r(body);
      const Bytes vote_bytes = r.bytes();
      const Bytes commit_bytes = r.bytes();
      r.expect_done();
      const auto vote = commit::VoteMsg::deserialize(vote_bytes);
      const auto point = crypto::AffinePoint::deserialize(commit_bytes);
      if (!vote || !point) return;
      note_vote_bytes(src.id, vote->base_key(), vote_bytes);
      term_votes_.fill(*slot, {*vote, *point});
    } catch (const DecodeError&) {
      return;
    }
    if (term_votes_.full() && !term_block_ && !term_decided_) {
      // All survivors reported. The coordinator's vote is unknowable, so the
      // only safe decision is abort — and no commit block can exist, because
      // a TFCommit decision needs every signer's co-sign response.
      Server& backup = cluster_->server(ServerId{term_backup_});
      const ledger::Block* partial = backup.tf_cohort().partial_of(epoch_);
      if (partial == nullptr) return;  // backup never saw the opening: wait for recovery
      ledger::Block block = *partial;
      if (spec_ != nullptr) {
        // A speculative opening carried a projected chain position; the
        // termination abort must extend the decided chain for real (the
        // pipeline sequences terminations in round order, so the decided
        // head already covers every round below this one).
        const SpecContext::ChainPos base = spec_->decided_base();
        block.height = base.height;
        block.prev_hash = base.prev_hash;
        height_ = base.height;
      }
      block.decision = ledger::Decision::kAbort;
      block.roots.clear();
      std::vector<crypto::AffinePoint> commitments;
      for (const TermVote& tv : term_votes_.values()) {
        commitments.push_back(tv.commitment);
        if (tv.vote.involved && tv.vote.root) block.set_root(tv.vote.cohort, *tv.vote.root);
      }
      block.signers = term_leader_->signers();
      const auto [v, c] = term_leader_->challenge(commitments, block.signing_bytes());
      term_block_ = std::move(block);
      const commit::ChallengeMsg challenge{c, v, *term_block_};
      broadcast(out, seal_framed(backup, "tf_term_challenge", challenge.serialize()),
                term_leader_->signers());
    }

  } else if (env.type == "tf_term_challenge") {
    // Termination step 3: survivors verify the abort block and co-sign it
    // with their fresh termination nonces.
    if (!authentic) return;
    Server& server = cluster_->server(ServerId{dst.id});
    const auto msg = commit::ChallengeMsg::deserialize(body);
    if (!msg) return;
    commit::ResponseMsg resp;
    resp.cohort = server.id();
    if (server.log().size() > height_) {
      // This server already holds a decided block at this height — it must
      // never co-sign a second variant.
      resp.refused = true;
      resp.refusal_reason = "already decided this height";
    } else {
      resp = server.tf_cohort().handle_term_challenge(epoch_, *msg);
    }
    Envelope resp_env = seal_framed(server, "tf_term_response", resp.serialize());
    out.send(NodeId::server(server.id()), server_node(term_backup_),
             std::move(resp_env));

  } else if (env.type == "tf_term_response") {
    // Termination step 4, at the backup: aggregate, validate, broadcast.
    if (!authentic || !term_leader_ || dst.id != term_backup_) return;
    const auto slot = position_of(term_leader_->signers(), src.id);
    if (!slot || term_shares_.has(*slot)) return;
    const auto msg = commit::ResponseMsg::deserialize(body);
    if (!msg) return;
    if (msg->refused) return;  // a survivor holds a decided block: stand down
    term_shares_.fill(*slot, msg->sch_response);
    if (term_shares_.full() && term_block_ && !term_decided_) {
      // A co-sign that fails leaves the round undecided, with no attribution.
      const commit::CosiLeader::Seal seal = term_leader_->seal(term_shares_.values());
      if (!seal.valid) return;
      term_decided_ = true;
      metrics_.terminated_by_cohorts = true;
      term_block_->cosign = seal.signature;
      const commit::DecisionMsg decision{*term_block_};
      term_decision_env_ = seal_framed(cluster_->server(ServerId{term_backup_}),
                                       "tf_term_decision", decision.serialize());
      broadcast(out, term_decision_env_);
      if (observer_ != nullptr) {
        observer_->on_outcome(epoch_, *term_block_, /*appended=*/true, out);
      }
    }
  }
}

void TfCommitRound::ingest_vote(std::size_t slot, commit::VoteMsg vote, Outbox& out) {
  if (votes_.has(slot)) return;  // a validated vote already holds the slot
  if (spec_ == nullptr) {
    votes_.fill(slot, std::move(vote));
    maybe_fire_challenge(out);
    return;
  }
  buffered_votes_[slot][vote.base_key()] = std::move(vote);
  try_accept_votes(out);
}

bool TfCommitRound::spec_base_valid(const commit::VoteMsg& vote) const {
  for (const commit::SpecAssumption& a : vote.spec_assumed) {
    const std::optional<bool> actual = spec_->applied(a.epoch);
    if (!actual.has_value() || *actual != a.applied) return false;
  }
  if (vote.spec_base_root.has_value()) {
    // The "(epoch, root)" base identity: the decided chain must actually
    // have produced the shard root the cohort voted on top of.
    const crypto::Digest* root = spec_->shard_root(vote.cohort.value);
    if (root != nullptr && !(*root == *vote.spec_base_root)) return false;
  }
  return true;
}

void TfCommitRound::try_accept_votes(Outbox& out) {
  if (spec_ == nullptr || !spec_->base_resolved(epoch_)) return;
  for (std::size_t i = 0; i < buffered_votes_.size(); ++i) {
    auto& candidates = buffered_votes_[i];
    if (votes_.has(i)) {
      candidates.clear();
      continue;
    }
    for (auto it = candidates.begin(); it != candidates.end();) {
      if (spec_base_valid(it->second)) {
        votes_.fill(i, std::move(it->second));
        candidates.clear();
        break;
      }
      // Mis-speculated base: the decided chain contradicts what this vote
      // was computed on. Discard it — the cohort's decision handler will
      // have produced (or will produce) the corrected re-vote.
      ++metrics_.spec_revotes;
      it = candidates.erase(it);
    }
  }
  maybe_fire_challenge(out);
}

void TfCommitRound::maybe_fire_challenge(Outbox& out) {
  const std::size_t m = placement_.members.size();
  if (!votes_.full() || !challenges_.empty() || outcome_.has_value()) return;
  if (spec_ != nullptr && !placement_.unchained) {
    // Pin the true chain position before the challenge block is hashed —
    // every round below has decided (base_resolved gated the acceptance).
    const SpecContext::ChainPos base = spec_->decided_base();
    coordinator_.rebase(base.height, base.prev_hash);
    height_ = base.height;
  }
  Server& coord = coord_server();
  challenges_ = coordinator_.on_votes(votes_.values(), coord.faults().coordinator);
  if (challenges_.size() != 1 && challenges_.size() != m) {
    // An honest coordinator broadcasts one challenge and an equivocating one
    // signs one per cohort; any other fan-out is malformed. Refuse the
    // round instead of indexing challenges by cohort slot: it ends without
    // a co-sign, so nothing is appended or sequenced.
    fault_ = "coordinator challenge fan-out mismatch (" +
             std::to_string(challenges_.size()) + " messages for " + std::to_string(m) +
             " cohorts)";
    commit::TfCommitOutcome refused;
    refused.block = coordinator_.block();
    decide(std::move(refused), out);
    return;
  }
  challenge_envs_.clear();
  challenge_envs_.reserve(challenges_.size());
  for (const auto& ch : challenges_) {
    challenge_envs_.push_back(seal_framed(coord, "tf_challenge", ch.serialize()));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t slot = challenges_.size() == 1 ? 0 : i;
    if (challenges_.size() == 1 && i > 0) transport_->count_copy(challenge_envs_[0]);
    out.send(coord_node_, server_node(placement_.members[i].value), challenge_envs_[slot]);
  }
}

void TfCommitRound::decide(commit::TfCommitOutcome outcome, Outbox& out) {
  outcome_ = std::move(outcome);
  if (!placement_.unchained) {
    const commit::DecisionMsg decision{outcome_->block};
    decision_env_ = seal_framed(coord_server(), "tf_decision", decision.serialize());
    broadcast(out, decision_env_);
  }
  if (observer_ != nullptr) {
    observer_->on_outcome(epoch_, outcome_->block, outcome_->cosign_valid, out);
  }
}

void TfCommitRound::on_base_resolved(Outbox& out) {
  if (outcome_.has_value() || term_decided_) return;
  if (cluster_->is_crashed(placement_.coordinator)) return;  // the round is the survivors' now
  const auto t = Clock::now();
  try_accept_votes(out);
  coord_us_ += since_us(t);
}

void TfCommitRound::send_term_vote(Server& server, Outbox& out) {
  const Bytes* vote = server.logged_vote(epoch_);
  const auto commitment = server.tf_cohort().term_commitment(epoch_);
  if (vote == nullptr || !commitment.has_value()) return;
  Writer w;
  w.bytes(*vote);
  w.bytes(commitment->serialize());
  Envelope env = seal_framed(server, "tf_term_vote", std::move(w).take());
  out.send(NodeId::server(server.id()), server_node(term_backup_), std::move(env));
}

void TfCommitRound::begin_termination(Outbox& out) {
  // Already decided (the decision is on the wire and will land everywhere),
  // already terminating, or never opened: nothing for the cohorts to do.
  if (outcome_.has_value() || term_leader_ || term_decided_ || !opening_sent_) return;
  const auto backup = cluster_->backup_for(placement_.coordinator);
  if (!backup.has_value()) return;
  Server& b = cluster_->server(*backup);
  if (b.tf_cohort().partial_of(epoch_) == nullptr) return;  // backup lacks the opening
  term_backup_ = backup->value;
  std::vector<ServerId> live;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (!cluster_->is_crashed(ServerId{i})) live.push_back(ServerId{i});
  }
  term_votes_ = FillOnceSlots<TermVote>(live.size());
  term_shares_ = FillOnceSlots<crypto::U256>(live.size());
  term_leader_.emplace(std::move(live), cluster_->server_keys());
  broadcast(out, seal_framed(b, "tf_term_query", Bytes{}), term_leader_->signers());
}

void TfCommitRound::restart(Outbox& out) {
  coordinator_ = commit::TfCommitCoordinator(placement_.members, cluster_->server_keys());
  votes_.clear();
  for (auto& b : buffered_votes_) b.clear();
  challenges_.clear();
  challenge_envs_.clear();
  responses_.clear();
  outcome_.reset();
  batch_ = pristine_batch_;
  // Deterministic re-run: the same log head, batch, recorded votes, and
  // nonces reproduce the identical block — survivors answer every re-ask
  // from their round logs, so nothing can diverge from the uncrashed run.
  start(out);
}

void TfCommitRound::on_recover(std::uint32_t server, Outbox& out) {
  const NodeId node = server_node(server);
  if (term_decided_) {
    out.send_replay(server_node(term_backup_), node, term_decision_env_);
    return;
  }
  if (server == placement_.coordinator.value && !outcome_.has_value()) {
    // Restart the aggregation from the top — unless the survivors own this
    // round now: restarting it would race their in-flight termination
    // co-sign and fork the chain. Their tf_term_decision broadcast reaches
    // this (now live) node normally.
    if (!term_leader_) restart(out);
    return;
  }
  // Catch-up, in causal order over the FIFO replay stream. A chained round
  // that decided only owes the decision (the coordinator missed at most its
  // own copy). An unchained round's sequenced entry is the group engine's
  // to replay; the opening still goes out so the member rebuilds its wiped
  // cohort state in round order.
  if (outcome_.has_value() && !placement_.unchained) {
    out.send_replay(coord_node_, node, decision_env_);
    return;
  }
  const auto slot = slot_of(server);
  if (!opening_sent_ || !slot.has_value()) return;
  out.send_replay(coord_node_, node, opening_env_);
  if (!challenge_envs_.empty() && !responses_.has(*slot)) {
    const std::size_t ci = challenge_envs_.size() == 1 ? 0 : *slot;
    out.send_replay(coord_node_, node, challenge_envs_[ci]);
  }
}

void TfCommitRound::finalize() {
  RoundReactor::finalize();
  if (outcome_.has_value()) {
    metrics_.decision = outcome_->decision;
    metrics_.cosign_valid = outcome_->cosign_valid;
    metrics_.faulty_cosigners = outcome_->faulty_cosigners;
    metrics_.refusals = outcome_->refusals;
  } else if (term_decided_) {
    metrics_.decision = term_block_->decision;
    metrics_.cosign_valid = true;
  }
}

std::string TfCommitRound::progress() const {
  const std::string m = "/" + std::to_string(placement_.members.size());
  return "opened=" + std::to_string(opening_sent_) + " votes=" + std::to_string(votes_.filled()) +
         m + " responses=" + std::to_string(responses_.filled()) + m +
         " decided=" + std::to_string(outcome_.has_value());
}

// --- 2PC ----------------------------------------------------------------------

TwoPhaseRound::TwoPhaseRound(Cluster& cluster, std::uint64_t epoch,
                             std::vector<commit::SignedEndTxn> batch,
                             RoundObserver* observer)
    : RoundReactor(cluster, RoundPlacement::global(cluster), epoch, observer),
      batch_(std::move(batch)),
      pristine_batch_(batch_),
      votes_(n_) {
  metrics_.txns_in_block = batch_.size();
}

void TwoPhaseRound::start(Outbox& out) {
  commit::order_batch(batch_);
  Server& coord = coord_server();

  const auto t0 = Clock::now();
  commit::Block partial = commit::TfCommitCoordinator::make_partial_block(
      coord.log().size(), coord.log().head_hash(), commit::batch_txns(batch_),
      placement_.members);
  commit::PrepareMsg prepare = coordinator_.start(std::move(partial), std::move(batch_));
  opening_env_ = seal_framed(coord, "2pc_prepare", prepare.serialize());
  opening_sent_ = true;
  coord_us_ += since_us(t0);

  broadcast(out, opening_env_);
}

void TwoPhaseRound::on_deliver(NodeId src, NodeId dst, const Envelope& env,
                               bool authentic, Outbox& out) {
  const BytesView body = unframe_payload(env.payload);

  if (env.type == "2pc_prepare") {
    Server& server = cluster_->server(ServerId{dst.id});
    const double tc = common::thread_cpu_time_us();
    commit::PrepareVoteMsg vote;
    Bytes vote_bytes = vote.serialize();
    bool respond = true;
    if (authentic) {
      if (const auto msg = commit::PrepareMsg::deserialize(body)) {
        const bool already_decided = server.log().size() > msg->partial_block.height;
        const Bytes* logged = server.logged_vote(epoch_);
        if (already_decided && logged == nullptr) {
          respond = false;
        } else if (logged != nullptr) {
          vote_bytes = *logged;  // vote-once across restarts
        } else {
          const bool requests_ok =
              verify_touching_requests(*transport_, server, msg->requests);
          vote = server.tpc_cohort().handle_prepare(*msg);
          if (!requests_ok) {
            vote.vote = txn::Vote::kAbort;
            vote.abort_reason = "client request signature invalid";
          }
          vote_bytes = server.vote_once(epoch_, "2pc_vote", vote.serialize());
        }
      }
    }
    if (respond) {
      Envelope vote_env = seal_framed(server, "2pc_vote", vote_bytes);
      cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
      out.send(NodeId::server(server.id()), coord_node_, std::move(vote_env));
    } else {
      cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    }

  } else if (env.type == "2pc_vote") {
    const auto t = Clock::now();
    if (authentic && src.id < n_) note_vote_bytes(src.id, 0, body);
    if (src.id < n_ && !votes_.has(src.id)) {
      commit::PrepareVoteMsg vote;
      vote.cohort = ServerId{src.id};
      vote.involved = true;
      vote.abort_reason = "vote envelope failed authentication";
      if (authentic) {
        if (const auto msg = commit::PrepareVoteMsg::deserialize(body)) vote = *msg;
      }
      votes_.fill(src.id, std::move(vote));
    }
    if (votes_.full() && !outcome_.has_value()) {
      outcome_ = coordinator_.on_votes(votes_.values());
      const commit::CommitDecisionMsg decision{outcome_->block};
      decision_env_ = seal_framed(coord_server(), "2pc_decision", decision.serialize());
      broadcast(out, decision_env_);
    }
    coord_us_ += since_us(t);

  } else if (env.type == "2pc_decision") {
    Server& server = cluster_->server(ServerId{dst.id});
    const double tc = common::thread_cpu_time_us();
    bool processed = false;
    ledger::Block block;
    Server::ApplyResult result = Server::ApplyResult::kStale;
    if (authentic) {
      if (const auto msg = commit::CommitDecisionMsg::deserialize(body)) {
        result = server.apply_decision(msg->final_block, Server::CosignView::kNone,
                                       cluster_->server_keys());
        block = msg->final_block;
        processed = true;
      }
    }
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    if (processed) {
      decision_processed(server, "2pc_decision", block, result);
    }
  }
}

void TwoPhaseRound::restart(Outbox& out) {
  coordinator_ = commit::TwoPhaseCommitCoordinator();
  votes_.clear();
  outcome_.reset();
  batch_ = pristine_batch_;
  start(out);
}

void TwoPhaseRound::on_recover(std::uint32_t server, Outbox& out) {
  const NodeId node = server_node(server);
  if (server == placement_.coordinator.value) {
    // 2PC has no cohort-driven termination: the whole round waited for this
    // moment (the paper's blocking argument). Resume it.
    if (outcome_.has_value()) {
      out.send_replay(coord_node_, node, decision_env_);
    } else if (opening_sent_) {
      restart(out);
    }
    return;
  }
  if (outcome_.has_value()) {
    out.send_replay(coord_node_, node, decision_env_);
    return;
  }
  if (opening_sent_ && !votes_.has(server)) {
    out.send_replay(coord_node_, node, opening_env_);
  }
}

void TwoPhaseRound::finalize() {
  RoundReactor::finalize();
  if (outcome_.has_value()) metrics_.decision = outcome_->decision;
}

std::string TwoPhaseRound::progress() const {
  return "opened=" + std::to_string(opening_sent_) + " votes=" + std::to_string(votes_.filled()) +
         "/" + std::to_string(n_) + " decided=" + std::to_string(outcome_.has_value());
}

// --- Checkpoint ---------------------------------------------------------------

CheckpointRound::CheckpointRound(Cluster& cluster, std::uint64_t epoch)
    : RoundReactor(cluster, RoundPlacement::global(cluster), epoch, nullptr),
      leader_(placement_.members, cluster.server_keys()),
      commits_(n_),
      shares_(n_) {}

void CheckpointRound::start(Outbox& out) {
  Server& coord = coord_server();
  const auto t0 = Clock::now();
  cp_ = ledger::make_checkpoint(coord.log().blocks(), placement_.members);
  propose_env_ = seal_framed(coord, "cp_propose", cp_.serialize());
  propose_sent_ = true;
  coord_us_ += since_us(t0);

  broadcast(out, propose_env_);
}

void CheckpointRound::on_deliver(NodeId src, NodeId dst, const Envelope& env,
                                 bool authentic, Outbox& out) {
  const BytesView body = unframe_payload(env.payload);

  if (env.type == "cp_propose") {
    // A server contributes its CoSi commitment only to the checkpoint its own
    // log yields: height, head hash, every root and the signer set.
    Server& server = cluster_->server(ServerId{dst.id});
    const double tc = common::thread_cpu_time_us();
    Writer w;
    w.u32(dst.id);
    std::optional<ledger::Checkpoint> prop;
    if (authentic) prop = ledger::Checkpoint::deserialize(body);
    const bool agree =
        prop && *prop == ledger::make_checkpoint(server.log().blocks(), placement_.members);
    w.boolean(agree);
    if (agree) {
      w.bytes(server.witness()
                  .commit(prop->signing_bytes(), ledger::checkpoint_cosi_round(prop->height))
                  .serialize());
    }
    Envelope commit_env = seal_framed(server, "cp_commit", std::move(w).take());
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    out.send(NodeId::server(server.id()), coord_node_, std::move(commit_env));

  } else if (env.type == "cp_commit") {
    // The authenticated sender — not the payload — names the slot; an
    // unauthenticated or mislabelled commit counts as a refusal.
    const auto t = Clock::now();
    auto* commitment = src.id < n_ ? commits_.claim(src.id) : nullptr;
    if (commitment != nullptr && authentic) {
      Reader r(body);
      const std::uint32_t i = r.u32();
      const bool agree = r.boolean();
      if (i == src.id && agree) *commitment = crypto::AffinePoint::deserialize(r.bytes());
    }
    if (commits_.full() && !challenge_sent_) {
      std::vector<crypto::AffinePoint> commitments;
      for (const auto& c : commits_.values()) {
        if (c.has_value()) commitments.push_back(*c);
      }
      if (commitments.size() == n_) {  // else a refusal sank the checkpoint
        const auto [v, c] = leader_.challenge(commitments, cp_.signing_bytes());
        Writer w;
        w.bytes(v.serialize());
        const auto cb = c.to_bytes_be();
        w.raw(BytesView(cb.data(), cb.size()));
        challenge_env_ = seal_framed(coord_server(), "cp_challenge", std::move(w).take());
        challenge_sent_ = true;
        broadcast(out, challenge_env_);
      }
    }
    coord_us_ += since_us(t);

  } else if (env.type == "cp_challenge") {
    // The witness answers only over the checkpoint its own log yields, and
    // only a challenge H(V ‖ record) it has not contradicted before.
    Server& server = cluster_->server(ServerId{dst.id});
    const double tc = common::thread_cpu_time_us();
    if (!authentic) return;
    Reader r(body);
    const auto v = crypto::AffinePoint::deserialize(r.bytes());
    const crypto::U256 c = crypto::U256::from_bytes_be(r.raw(32));
    if (!v) return;
    const ledger::Checkpoint mine =
        ledger::make_checkpoint(server.log().blocks(), placement_.members);
    const Bytes record = mine.signing_bytes();
    const commit::CosiWitness::Answer answer = server.witness().respond(
        record, ledger::checkpoint_cosi_round(mine.height), record, *v, c);
    if (!answer.r) return;
    Writer w;
    w.u32(dst.id);
    const auto rb = answer.r->to_bytes_be();
    w.raw(BytesView(rb.data(), rb.size()));
    Envelope resp_env = seal_framed(server, "cp_response", std::move(w).take());
    cohort_us_[dst.id] += common::thread_cpu_time_us() - tc;
    out.send(NodeId::server(server.id()), coord_node_, std::move(resp_env));

  } else if (env.type == "cp_response") {
    const auto t = Clock::now();
    auto* share = src.id < n_ ? shares_.claim(src.id) : nullptr;
    if (share != nullptr && authentic) {
      Reader r(body);
      const std::uint32_t i = r.u32();
      const crypto::U256 ri = crypto::U256::from_bytes_be(r.raw(32));
      // Unauthenticated => the share stays zero and the aggregate co-sign
      // fails validation, sinking the checkpoint.
      if (i == src.id) *share = ri;
    }
    if (share != nullptr && shares_.full()) {  // the last share just came in
      const commit::CosiLeader::Seal seal = leader_.seal(shares_.values());
      cp_.cosign = seal.signature;
      if (seal.valid) result_ = cp_;
    }
    coord_us_ += since_us(t);
  }
}

void CheckpointRound::restart(Outbox& out) {
  commits_.clear();
  shares_.clear();
  result_.reset();
  challenge_sent_ = false;
  // Deterministic nonces make the rebuilt checkpoint — including the
  // aggregate signature bits — identical to an uncrashed run's.
  start(out);
}

void CheckpointRound::on_recover(std::uint32_t server, Outbox& out) {
  const NodeId node = server_node(server);
  if (server == placement_.coordinator.value) {
    if (!shares_.full() && propose_sent_) restart(out);
    return;
  }
  if (shares_.full()) return;  // the round no longer needs this witness
  if (!propose_sent_) return;
  if (!commits_.has(server)) {
    out.send_replay(coord_node_, node, propose_env_);
  }
  if (challenge_sent_ && !shares_.has(server)) {
    out.send_replay(coord_node_, node, challenge_env_);
  }
}

}  // namespace fides::engine
