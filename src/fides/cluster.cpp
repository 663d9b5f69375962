#include "fides/cluster.hpp"

#include "engine/inproc_scheduler.hpp"
#include "engine/pipeline.hpp"
#include "ordserv/group_engine.hpp"
#include "sim/sim_round.hpp"
#include "sim/simnet.hpp"

namespace fides {

bool verify_touching_requests(Transport& transport, const Server& server,
                              std::span<const commit::SignedEndTxn> requests) {
  std::vector<const commit::SignedEndTxn*> touching;
  touching.reserve(requests.size());
  for (const auto& req : requests) {
    for (const ItemId item : req.request.txn.rw.touched_items()) {
      if (server.shard().contains(item)) {
        touching.push_back(&req);
        break;
      }
    }
  }
  if (!transport.batch_verify()) {
    for (const auto* req : touching) {
      const crypto::KeyTable* ck = transport.key_of(NodeId::client(req->client));
      ++transport.stats().signatures_verified;
      if (ck == nullptr || !req->verify(*ck)) return false;
    }
    return true;
  }
  // Batched path: one RLC aggregate over every touching request instead of a
  // Schnorr check per request. The counter is advanced exactly as the serial
  // loop would have — up to and including the first failure — so Stats stay
  // identical between the two paths.
  bool missing_key = false;
  std::vector<Bytes> messages;
  std::vector<crypto::BatchItem> items;
  messages.reserve(touching.size());
  items.reserve(touching.size());
  for (const auto* req : touching) {
    const crypto::KeyTable* ck = transport.key_of(NodeId::client(req->client));
    if (ck == nullptr) {
      missing_key = true;
      break;
    }
    messages.push_back(req->request.serialize());
    items.push_back(crypto::BatchItem{&ck->key(), BytesView{}, &req->signature});
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].message = BytesView(messages[i].data(), messages[i].size());
  }
  const auto verdicts = crypto::batch_verify(items);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] == 0) {
      transport.stats().signatures_verified += i + 1;
      return false;
    }
  }
  transport.stats().signatures_verified += items.size() + (missing_key ? 1 : 0);
  return !missing_key;
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      transport_(config_.batch_verify),
      pool_(std::make_unique<common::ThreadPool>(config_.num_threads)),
      crashed_(config_.num_servers, 0),
      saved_faults_(config_.num_servers) {
  if (config_.network.mode == sim::NetworkMode::kSimulated) {
    simnet_ = std::make_unique<sim::SimNet>(config_.network.sim);
  }
  // Durable round logs are owned here: a Server object dies with a crash,
  // its round log does not.
  round_logs_.resize(config_.num_servers);
  for (std::uint32_t i = 0; i < config_.num_servers; ++i) {
    if (config_.round_log_dir.empty()) {
      round_logs_[i] = std::make_unique<ledger::MemRoundLog>();
    } else {
      round_logs_[i] = std::make_unique<ledger::FileRoundLog>(
          config_.round_log_dir + "/server-" + std::to_string(i) + ".rlog");
    }
  }
  // Server provisioning builds a full Merkle tree over every shard; with a
  // parallel pool the servers provision concurrently (and each server's tree
  // build fans out further — nested parallel_for is safe, the caller helps).
  servers_.resize(config_.num_servers);
  for_each_server([this](std::size_t i) {
    servers_[i] = std::make_unique<Server>(ServerId{static_cast<std::uint32_t>(i)},
                                           config_, pool_.get(), round_logs_[i].get());
  });
  // Key registration mutates the shared transport registry: sequential.
  for (std::uint32_t i = 0; i < config_.num_servers; ++i) {
    transport_.register_node(NodeId::server(ServerId{i}), servers_[i]->public_key());
  }
  // Crash/recover schedules: time triggers go straight onto the SimNet
  // clock; transition triggers arm a watch the engine polls per delivery.
  for (const CrashFault& cf : config_.crashes) {
    if (cf.server >= config_.num_servers) continue;
    if (!cf.after_type.empty()) {
      crash_watch_.push_back(CrashWatch{cf, 0, false});
    } else if (simnet_ != nullptr && cf.at_us >= 0) {
      const NodeId node = NodeId::server(ServerId{cf.server});
      simnet_->schedule_crash(node, cf.at_us);
      simnet_->schedule_recover(node, cf.at_us + cf.downtime_us);
    }
  }
}

Cluster::~Cluster() = default;

std::size_t Cluster::round_threads() const { return pool_->concurrency(); }

void Cluster::for_each_server(const std::function<void(std::size_t)>& fn) {
  pool_->parallel_for(config_.num_servers, fn);
}

Client& Cluster::make_client() {
  const ClientId id{static_cast<std::uint32_t>(clients_.size())};
  clients_.push_back(std::make_unique<Client>(id, *this));
  transport_.register_node(NodeId::client(id), clients_.back()->keypair().public_key());
  return *clients_.back();
}

ServerId Cluster::owner_of(ItemId item) const {
  return ServerId{store::shard_for_item(item, config_.num_servers).value};
}

// --- Crash / recovery ---------------------------------------------------------

void Cluster::crash_server(ServerId id) {
  if (crashed_[id.value] != 0) return;
  saved_faults_[id.value] = servers_[id.value]->faults();
  servers_[id.value].reset();  // volatile state is gone, not hidden
  crashed_[id.value] = 1;
}

bool Cluster::recover_server(ServerId id) {
  if (crashed_[id.value] == 0) return true;
  auto fresh = std::make_unique<Server>(id, config_, pool_.get(),
                                        round_logs_[id.value].get());
  if (!fresh->restore()) return false;  // tampered round log: refuse to rejoin
  fresh->faults() = saved_faults_[id.value];
  servers_[id.value] = std::move(fresh);
  crashed_[id.value] = 0;
  return true;
}

std::optional<ServerId> Cluster::backup_for(ServerId dead) const {
  for (std::uint32_t i = 0; i < config_.num_servers; ++i) {
    if (i != dead.value && crashed_[i] == 0) return ServerId{i};
  }
  return std::nullopt;
}

std::optional<CrashFault> Cluster::poll_crash_point(std::uint32_t server,
                                                    const std::string& type) {
  for (CrashWatch& w : crash_watch_) {
    if (w.fired || w.fault.server != server || w.fault.after_type != type) continue;
    if (++w.seen >= w.fault.after_count) {
      w.fired = true;
      return w.fault;
    }
  }
  return std::nullopt;
}

// --- Data path ---------------------------------------------------------------

Envelope Cluster::seal_data(const crypto::KeyPair& key, NodeId sender, const char* type,
                            Bytes payload) {
  if (config_.sign_data_path) return transport_.seal(key, sender, type, std::move(payload));
  return transport_.wrap(sender, type, std::move(payload));
}

void Cluster::open_data(const Envelope& env, const char* type) {
  const bool ok = config_.sign_data_path ? transport_.open(env, type) : env.type == type;
  if (!ok) {
    throw DataPathError(std::string(type) + " envelope from " + to_string(env.sender) +
                        " failed verification");
  }
}

void Cluster::client_begin(Client& client, TxnId txn, std::span<const ItemId> items) {
  for (const ItemId item : items) {
    Server& server = *servers_[owner_of(item).value];
    Writer w;
    w.u32(txn.client);
    w.u64(txn.seq);
    Envelope env = seal_data(client.keypair(), NodeId::client(client.id()), "begin_txn",
                             std::move(w).take());
    open_data(env, "begin_txn");
    server.record_client_message(env);
    server.handle_begin(client.id(), txn);
  }
}

store::ReadResult Cluster::client_read(Client& client, TxnId txn, ItemId item) {
  Server& server = *servers_[owner_of(item).value];

  Writer w;
  w.u32(txn.client);
  w.u64(txn.seq);
  w.u64(item);
  Envelope env =
      seal_data(client.keypair(), NodeId::client(client.id()), "read", std::move(w).take());
  open_data(env, "read");
  server.record_client_message(env);
  store::ReadResult result = server.handle_read(client.id(), txn, item);
  // Response travels back signed by the server.
  Writer resp;
  resp.u64(result.id);
  resp.bytes(result.value);
  resp.timestamp(result.rts);
  resp.timestamp(result.wts);
  open_data(seal_data(server.keypair(), NodeId::server(server.id()), "read_resp",
                      std::move(resp).take()),
            "read_resp");
  return result;
}

WriteAck Cluster::client_write(Client& client, TxnId txn, ItemId item, Bytes value) {
  Server& server = *servers_[owner_of(item).value];

  Writer w;
  w.u32(txn.client);
  w.u64(txn.seq);
  w.u64(item);
  w.bytes(value);
  Envelope env =
      seal_data(client.keypair(), NodeId::client(client.id()), "write", std::move(w).take());
  open_data(env, "write");
  server.record_client_message(env);
  WriteAck ack = server.handle_write(client.id(), txn, item, std::move(value));
  Writer resp;
  resp.u64(ack.id);
  resp.bytes(ack.old_value);
  resp.timestamp(ack.rts);
  resp.timestamp(ack.wts);
  open_data(seal_data(server.keypair(), NodeId::server(server.id()), "write_ack",
                      std::move(resp).take()),
            "write_ack");
  return ack;
}

// --- Commit rounds through the engine ----------------------------------------

template <typename Fn>
auto Cluster::with_scheduler(Fn&& body) {
  if (simnet_ != nullptr) {
    sim::SimNetScheduler sched(*simnet_);
    return body(static_cast<engine::Scheduler&>(sched));
  }
  for (std::uint32_t i = 0; i < config_.num_servers; ++i) {
    if (crashed_[i] != 0) {
      throw std::logic_error("direct-mode round with server S" + std::to_string(i) +
                             " down: recover_server it first (mid-round "
                             "crash/recovery runs over SimNet)");
    }
  }
  engine::InProcScheduler sched(*pool_);
  return body(static_cast<engine::Scheduler&>(sched));
}

PipelineResult Cluster::run_blocks(std::vector<std::vector<commit::SignedEndTxn>> batches) {
  return with_scheduler([&](engine::Scheduler& sched) {
    return engine::run_commit_rounds(*this, config_.protocol, std::move(batches), sched);
  });
}

OpenLoopOutcome Cluster::run_open_loop(
    std::vector<std::vector<commit::SignedEndTxn>> batches,
    std::vector<OpenLoopTxn> txns, const sim::ClientModel& model) {
  if (simnet_ == nullptr) {
    throw std::logic_error(
        "open-loop runs require network.mode=simulated (clients are SimNet nodes)");
  }
  sim::SimNetScheduler sched(*simnet_);
  return engine::run_open_loop_rounds(*this, config_.protocol, std::move(batches),
                                      std::move(txns), model, *simnet_, sched);
}

RoundMetrics Cluster::run_block(std::vector<commit::SignedEndTxn> batch) {
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  batches.push_back(std::move(batch));
  return run_blocks(std::move(batches)).rounds.at(0);
}

std::vector<RoundMetrics> Cluster::drain(commit::BatchBuilder& builder) {
  // The builder's batch selection depends only on its queue, so popping
  // everything up front yields the same batch sequence as popping one per
  // round — and hands the whole stream to the pipeline at once.
  std::vector<std::vector<commit::SignedEndTxn>> batches;
  while (!builder.empty()) {
    batches.push_back(builder.next_batch());
  }
  return run_blocks(std::move(batches)).rounds;
}

ordserv::GroupRunResult Cluster::run_group_blocks(
    ordserv::Sequencer& sequencer,
    std::vector<std::vector<commit::SignedEndTxn>> batches) {
  return with_scheduler([&](engine::Scheduler& sched) {
    return ordserv::run_group_rounds(*this, sequencer, std::move(batches), sched);
  });
}

CheckpointOutcome Cluster::run_checkpoint_round() {
  return with_scheduler(
      [&](engine::Scheduler& sched) { return engine::run_checkpoint_round(*this, sched); });
}

std::optional<ledger::Checkpoint> Cluster::create_checkpoint() {
  return run_checkpoint_round().checkpoint;
}

}  // namespace fides
