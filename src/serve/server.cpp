#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

namespace qsnc::serve {

// ---------------------------------------------------------------------------
// ServeCore
// ---------------------------------------------------------------------------

namespace {

std::future<Response> error_future(const std::string& message) {
  std::promise<Response> promise;
  Response r;
  r.status = Status::kError;
  r.error = message;
  promise.set_value(std::move(r));
  return promise.get_future();
}

}  // namespace

std::string JournalReconcileReport::to_string() const {
  std::string out = "journal: replayed " + std::to_string(records_replayed) +
                    " record(s), applied " + std::to_string(applied) +
                    ", skipped " + std::to_string(skipped);
  if (tail_dropped) out += "; dropped torn tail (" + tail_reason + ")";
  for (const std::string& e : errors) out += "\n  journal: " + e;
  return out;
}

ServeCore::ServeCore(ModelRegistry& registry, const BatchOptions& options,
                     const RolloutOptions& rollout_options)
    : registry_(registry), batch_options_(options) {
  for (const std::string& name : registry.names()) {
    add_model_locked(name);
  }
  rollout_ = std::make_unique<RolloutController>(*this, rollout_options);
}

ServeCore::~ServeCore() { drain(); }

void ServeCore::add_model_locked(const std::string& key) {
  if (models_.count(key) != 0) return;
  auto lanes = std::make_unique<ModelLanes>();
  const size_t shards = registry_.num_shards(key);
  for (size_t shard = 0; shard < shards; ++shard) {
    lanes->lanes.push_back(std::make_unique<MicroBatcher>(
        registry_.backend(key, shard), batch_options_));
  }
  models_[key] = std::move(lanes);
}

void ServeCore::add_model(const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(models_mu_);
  add_model_locked(key);
}

ServeCore::ModelLanes* ServeCore::find_lanes(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(models_mu_);
  const auto it = models_.find(key);
  // ModelLanes objects are heap-held and never erased, so the pointer
  // stays valid after the lock drops; the map shape alone is guarded.
  return it == models_.end() ? nullptr : it->second.get();
}

std::future<Response> ServeCore::submit_to(const std::string& key,
                                           nn::Tensor image,
                                           uint64_t deadline_us,
                                           Priority priority) {
  ModelLanes* lanes = find_lanes(key);
  if (lanes == nullptr) {
    return error_future("unknown model '" + key + "'");
  }
  size_t pick = 0;
  if (lanes->lanes.size() > 1) {
    // Power-of-two-choices: compare the round-robin candidate against its
    // successor, take the shorter queue (tie -> the candidate). Fully
    // deterministic given the submission order, and enough to keep one
    // slow lane from accumulating the whole backlog.
    const size_t n = lanes->lanes.size();
    const size_t a = lanes->rr.fetch_add(1, std::memory_order_relaxed) % n;
    const size_t b = (a + 1) % n;
    pick = lanes->lanes[b]->queue_depth() < lanes->lanes[a]->queue_depth()
               ? b
               : a;
  }
  return lanes->lanes[pick]->submit(std::move(image), deadline_us, priority);
}

std::future<Response> ServeCore::infer_async(const std::string& model,
                                             nn::Tensor image,
                                             uint64_t deadline_us,
                                             Priority priority) {
  const std::string key = registry_.resolve(model);
  if (key.empty()) {
    return error_future("unknown model '" + model + "'");
  }
  // A quarantined (rolled-back) version refuses explicitly-pinned
  // requests; bare names never resolve here because the active pointer
  // moved off it at rollback time.
  if (registry_.state(key) == VersionState::kQuarantined) {
    return error_future("model version '" + key +
                        "' is quarantined (rolled back)");
  }
  if (rollout_ != nullptr) {
    auto shadowed =
        rollout_->maybe_shadow(key, image, deadline_us, priority);
    if (shadowed.has_value()) return std::move(*shadowed);
  }
  return submit_to(key, std::move(image), deadline_us, priority);
}

Response ServeCore::infer(const std::string& model, nn::Tensor image,
                          uint64_t deadline_us, Priority priority) {
  return infer_async(model, std::move(image), deadline_us, priority).get();
}

std::string ServeCore::register_version(const LoadVersionRequest& request) {
  const auto [base, version] = split_versioned_name(request.name);
  (void)version;
  const std::string active = registry_.active_key(base);
  try {
    // Inherit the blue config where the request doesn't override: a
    // hot-load of "lenet@v2" keeps v1's shards and snc deployment knobs
    // unless the operator says otherwise.
    ModelConfig config =
        active.empty() ? ModelConfig{} : registry_.config(active);
    config.state_path.clear();
    if (!request.architecture.empty()) {
      config.architecture = request.architecture;
    }
    if (!request.backend_kind.empty()) {
      config.backend = parse_backend_kind(request.backend_kind);
    }
    if (request.bits > 0) config.bits = request.bits;
    config.init_seed = request.init_seed;
    if (request.state.empty()) {
      registry_.add(request.name, config);
    } else {
      registry_.add_from_bytes(request.name, config, request.state);
    }
  } catch (const std::exception& e) {
    return std::string("load: ") + e.what();
  }
  add_model(request.name);
  install_quarantine_hooks(request.name);
  return std::string();
}

RolloutReply ServeCore::load_version(const LoadVersionRequest& request) {
  const auto [base, version] = split_versioned_name(request.name);
  (void)version;
  const std::string active = registry_.active_key(base);
  const std::string error = register_version(request);
  if (!error.empty()) return {false, error};
  journal_load(request, /*append=*/true);
  if (active.empty()) {
    // First version of a new base: it registered active, no rollout.
    return {true, "load: registered " + request.name +
                      " (new base, now active)"};
  }
  const RolloutReply begun = rollout_->begin(request.name);
  if (!begun.ok) {
    // The load itself succeeded — the version sits registered standby,
    // reachable by its explicit name — but no rollout started.
    return {true, "load: registered " + request.name +
                      " standby; rollout not started: " + begun.message};
  }
  return {true, "load: registered " + request.name + "; " + begun.message};
}

void ServeCore::journal_load(const LoadVersionRequest& request, bool append) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  bool known = false;
  for (const auto& [key, req] : journal_loads_) {
    (void)req;
    if (key == request.name) {
      known = true;
      break;
    }
  }
  if (!known) journal_loads_.emplace_back(request.name, request);
  if (append && journal_ != nullptr) {
    journal_->append(JournalRecordType::kLoadVersion,
                     encode_journal_load_version(request));
  }
}

void ServeCore::journal_promote(const std::string& base,
                                const std::string& key) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (journal_ == nullptr) return;
  journal_->append(JournalRecordType::kPromote,
                   encode_journal_promote({base, key}));
}

void ServeCore::journal_rollback(const std::string& key,
                                 const std::string& reason) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  journal_quarantine_reasons_[key] = reason;
  if (journal_ == nullptr) return;
  journal_->append(JournalRecordType::kRollback,
                   encode_journal_rollback({key, reason}));
}

void ServeCore::journal_replica_quarantine(const std::string& model,
                                           uint32_t replica,
                                           const std::string& reason) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (journal_ == nullptr) return;
  journal_->append(JournalRecordType::kReplicaQuarantine,
                   encode_journal_replica_quarantine(
                       {model, replica, reason}));
}

void ServeCore::install_quarantine_hooks(const std::string& key) {
  const size_t shards = registry_.num_shards(key);
  for (size_t shard = 0; shard < shards; ++shard) {
    auto* snc = dynamic_cast<SncBackend*>(&registry_.backend(key, shard));
    if (snc == nullptr) continue;
    snc->set_quarantine_hook(
        [this, key](size_t replica, const std::string& reason) {
          journal_replica_quarantine(key, static_cast<uint32_t>(replica),
                                     reason);
        });
  }
}

std::vector<JournalRecord> ServeCore::journal_snapshot_locked() const {
  std::vector<JournalRecord> snapshot;
  auto emit = [&snapshot](JournalRecordType type,
                          std::vector<uint8_t> payload) {
    JournalRecord record;
    record.type = type;
    record.payload = std::move(payload);
    snapshot.push_back(std::move(record));
  };
  for (const auto& [key, request] : journal_loads_) {
    (void)key;
    emit(JournalRecordType::kLoadVersion,
         encode_journal_load_version(request));
  }
  // Re-derive the pointer records from the live registry: one kPromote
  // per base whose active version is journaled (boot-registered actives
  // need no record — the boot flags recreate them), one kRollback per
  // quarantined journaled version.
  std::map<std::string, bool> bases;
  for (const auto& [key, request] : journal_loads_) {
    (void)request;
    bases[base_model_name(key)] = true;
  }
  for (const auto& [base, unused] : bases) {
    (void)unused;
    const std::string active = registry_.active_key(base);
    if (active.empty()) continue;
    bool journaled = false;
    for (const auto& [key, request] : journal_loads_) {
      (void)request;
      if (key == active) {
        journaled = true;
        break;
      }
    }
    if (journaled) {
      emit(JournalRecordType::kPromote,
           encode_journal_promote({base, active}));
    }
  }
  for (const auto& [key, request] : journal_loads_) {
    (void)request;
    if (registry_.state(key) != VersionState::kQuarantined) continue;
    const auto it = journal_quarantine_reasons_.find(key);
    const std::string reason = it == journal_quarantine_reasons_.end()
                                   ? std::string("quarantined")
                                   : it->second;
    emit(JournalRecordType::kRollback, encode_journal_rollback({key, reason}));
  }
  return snapshot;
}

JournalReconcileReport ServeCore::attach_journal(const std::string& path,
                                                 ChaosInjector* chaos) {
  JournalReconcileReport report;
  const JournalReplayResult replayed = Journal::replay(path);
  report.tail_dropped = replayed.tail_dropped;
  report.tail_reason = replayed.tail_reason;
  for (const JournalRecord& record : replayed.records) {
    ++report.records_replayed;
    try {
      switch (record.type) {
        case JournalRecordType::kLoadVersion: {
          const LoadVersionRequest request =
              decode_journal_load_version(record.payload);
          if (registry_.contains(request.name)) {
            // Boot flags already re-registered this key; their config
            // wins and the entry stays un-journaled.
            ++report.skipped;
            break;
          }
          const std::string error = register_version(request);
          if (!error.empty()) {
            report.errors.push_back(request.name + ": " + error);
            break;
          }
          journal_load(request, /*append=*/false);
          ++report.applied;
          break;
        }
        case JournalRecordType::kPromote: {
          const JournalPromote promote =
              decode_journal_promote(record.payload);
          registry_.set_active(promote.base, promote.key);
          ++report.applied;
          break;
        }
        case JournalRecordType::kRollback: {
          const JournalRollback rollback =
              decode_journal_rollback(record.payload);
          registry_.set_state(rollback.key, VersionState::kQuarantined);
          {
            std::lock_guard<std::mutex> lock(journal_mu_);
            journal_quarantine_reasons_[rollback.key] = rollback.reason;
          }
          ++report.applied;
          break;
        }
        case JournalRecordType::kReplicaQuarantine:
          // Replica-level health is re-derived by the snc monitor on the
          // rebuilt replicas; the record is an audit entry only.
          ++report.skipped;
          break;
      }
    } catch (const std::exception& e) {
      report.errors.push_back(
          std::string(journal_record_type_name(record.type)) + ": " +
          e.what());
    }
  }
  {
    // Compact on attach: the torn tail (if any) is physically dropped and
    // the file restarts from the canonical snapshot of live state.
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_ = std::make_unique<Journal>(path, chaos);
    journal_->compact(journal_snapshot_locked());
  }
  // Boot-registered models journal their replica quarantines too.
  for (const std::string& key : registry_.names()) {
    install_quarantine_hooks(key);
  }
  return report;
}

void ServeCore::drain() {
  // Comparator first: it stops enqueueing green work and flushes its
  // queued client promises (each resolves once the lanes drain below).
  if (rollout_ != nullptr) rollout_->drain();
  std::shared_lock<std::shared_mutex> lock(models_mu_);
  for (auto& [name, lanes] : models_) {
    (void)name;
    for (auto& lane : lanes->lanes) lane->drain();
  }
}

MicroBatcher& ServeCore::batcher(const std::string& model, size_t lane) {
  ModelLanes* lanes = find_lanes(model);
  if (lanes == nullptr) {
    throw std::invalid_argument("ServeCore: unknown model '" + model + "'");
  }
  if (lane >= lanes->lanes.size()) {
    throw std::invalid_argument("ServeCore: model '" + model +
                                "' has no lane " + std::to_string(lane));
  }
  return *lanes->lanes[lane];
}

size_t ServeCore::num_lanes(const std::string& model) const {
  ModelLanes* lanes = find_lanes(model);
  if (lanes == nullptr) {
    throw std::invalid_argument("ServeCore: unknown model '" + model + "'");
  }
  return lanes->lanes.size();
}

size_t ServeCore::total_queue_depth() const {
  std::shared_lock<std::shared_mutex> lock(models_mu_);
  size_t total = 0;
  for (const auto& [name, lanes] : models_) {
    (void)name;
    for (const auto& lane : lanes->lanes) total += lane->queue_depth();
  }
  return total;
}

std::vector<ModelStatsSnapshot> ServeCore::stats() const {
  std::shared_lock<std::shared_mutex> lock(models_mu_);
  std::vector<ModelStatsSnapshot> out;
  for (const auto& [name, lanes] : models_) {
    const bool sharded = lanes->lanes.size() > 1;
    for (size_t i = 0; i < lanes->lanes.size(); ++i) {
      ModelStatsSnapshot s = lanes->lanes[i]->stats();
      s.model = sharded ? name + "#" + std::to_string(i) : name;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::string ServeCore::stats_report() const {
  std::string out = render_stats(stats());
  // Backend activity appendices (e.g. per-stage spike/sparsity counters
  // from the snc spiking engine), one per shard when sharded.
  {
    std::shared_lock<std::shared_mutex> lock(models_mu_);
    for (const auto& [name, lanes] : models_) {
      const bool sharded = lanes->lanes.size() > 1;
      for (size_t i = 0; i < lanes->lanes.size(); ++i) {
        const std::string activity =
            registry_.backend(name, i).activity_report();
        if (activity.empty()) continue;
        const std::string label =
            sharded ? name + "#" + std::to_string(i) : name;
        out += "\n" + label + " activity:\n" + activity;
      }
    }
  }
  if (rollout_ != nullptr) {
    const std::string rollout_text = rollout_->status_text();
    if (!rollout_text.empty()) out += "\n" + rollout_text;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ServeFrameHandler
// ---------------------------------------------------------------------------

bool ServeFrameHandler::handle(const Frame& frame, FrameSink& sink) {
  switch (frame.type) {
    case MsgType::kInferRequest: {
      InferRequest request = decode_infer_request(frame.body);
      InferResponse response;
      response.id = request.id;
      response.response =
          core_.infer(request.model, std::move(request.image),
                      request.deadline_us, request.priority);
      return sink.send(encode_infer_response(response));
    }
    case MsgType::kForwardInfer: {
      // The router->backend spelling: same execution, same reply shape;
      // the route hash is attribution metadata only.
      ForwardedInfer forward = decode_forward_infer(frame.body);
      InferResponse response;
      response.id = forward.request.id;
      response.response = core_.infer(
          forward.request.model, std::move(forward.request.image),
          forward.request.deadline_us, forward.request.priority);
      return sink.send(encode_infer_response(response));
    }
    case MsgType::kStatsRequest:
      return sink.send(encode_stats_response(core_.stats_report()));
    case MsgType::kHello: {
      const Hello hello = decode_hello(frame.body);
      HelloAck ack;
      ack.version = kProtocolVersion;
      ack.accepted = hello.version == kProtocolVersion;
      return sink.send(encode_hello_ack(ack));
    }
    case MsgType::kHealthProbe: {
      const HealthProbe probe = decode_health_probe(frame.body);
      HealthAck ack;
      ack.nonce = probe.nonce;
      ack.healthy = true;
      ack.queue_depth = static_cast<uint32_t>(core_.total_queue_depth());
      ack.versions = core_.registry().active_versions();
      return sink.send(encode_health_ack(ack));
    }
    case MsgType::kLoadVersion: {
      const LoadVersionRequest request = decode_load_version(frame.body);
      return sink.send(encode_rollout_reply(core_.load_version(request)));
    }
    case MsgType::kPromote: {
      const RolloutCommand command = decode_promote(frame.body);
      return sink.send(
          encode_rollout_reply(core_.rollout().promote(command.name)));
    }
    case MsgType::kRollback: {
      const RolloutCommand command = decode_rollback(frame.body);
      return sink.send(encode_rollout_reply(
          core_.rollout().rollback(command.name, command.reason)));
    }
    case MsgType::kRolloutStatus: {
      const RolloutCommand command = decode_rollout_status(frame.body);
      RolloutReply reply;
      reply.ok = true;
      reply.message = core_.rollout().status_text(command.name);
      if (reply.message.empty()) {
        reply.message = command.name.empty()
                            ? "no rollout in progress"
                            : "no rollout for '" + command.name + "'";
      }
      return sink.send(encode_rollout_reply(reply));
    }
    default:
      throw ProtocolError("unexpected message type");
  }
}

// ---------------------------------------------------------------------------
// Socket plumbing
// ---------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPollTickMs = 100;

/// Blocking send used by the client. Loops until everything is written.
void send_all(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") +
                               std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
}

// Written by the signal handler, read and reset by run_until_signal on
// other threads. A lock-free atomic is both async-signal-safe and
// race-free; a volatile sig_atomic_t is only the former.
std::atomic<int> g_signal_stop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the stop flag is written from a signal handler");

void on_stop_signal(int) { g_signal_stop.store(1); }

}  // namespace

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

struct SocketServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> finished{false};
};

SocketServer::SocketServer(ServeCore& core,
                           const std::string& endpoint_spec,
                           const SocketServerOptions& options)
    : owned_handler_(std::make_unique<ServeFrameHandler>(core)),
      handler_(*owned_handler_),
      endpoint_(parse_endpoint(endpoint_spec)),
      options_(options) {
  start();
}

SocketServer::SocketServer(FrameHandler& handler, const Endpoint& endpoint,
                           const SocketServerOptions& options)
    : handler_(handler), endpoint_(endpoint), options_(options) {
  start();
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  listen_fd_ = listen_on(endpoint_, 64);
  // Resolve an ephemeral tcp port (port 0) to the kernel-assigned one so
  // endpoint() is always connectable.
  endpoint_ = local_endpoint(listen_fd_, endpoint_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stopping_.load()) break;
    // Join finished handlers on every tick (not just on new connections),
    // so deadline-reaped connections release their threads promptly.
    reap_finished();
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ++connections_accepted_;
    size_t live = 0;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      live = connections_.size();
    }
    if (options_.max_connections > 0 &&
        live >= static_cast<size_t>(options_.max_connections)) {
      // Connection-level load shedding: better an immediate close the
      // client can see than an unbounded handler-thread pile-up.
      ++connections_rejected_;
      ::close(fd);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    raw->thread = std::thread([this, raw] { handle_connection(raw); });
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(std::move(connection));
    }
  }
}

void SocketServer::reap_finished() {
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load()) {
      (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

bool SocketServer::send_frame(Connection* connection,
                              const std::vector<uint8_t>& bytes) {
  WritePlan plan;
  if (options_.chaos != nullptr) {
    plan = options_.chaos->plan_write(bytes.size());
  } else {
    plan.chunks.push_back(bytes.size());
  }
  const Clock::time_point started = Clock::now();
  size_t offset = 0;
  for (size_t ci = 0; ci < plan.chunks.size(); ++ci) {
    if (ci > 0 && plan.inter_chunk_stall_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(plan.inter_chunk_stall_us));
    }
    size_t remaining = plan.chunks[ci];
    while (remaining > 0) {
      const ssize_t n =
          ::send(connection->fd, bytes.data() + offset, remaining,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        offset += static_cast<size_t>(n);
        remaining -= static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        return false;  // peer gone
      }
      // Peer is not draining its socket: wait for writability under the
      // write deadline so a stalled reader cannot park this thread (and
      // with it, shutdown) forever.
      if (options_.write_timeout_ms > 0 &&
          Clock::now() - started >=
              std::chrono::milliseconds(options_.write_timeout_ms)) {
        ++connections_reaped_;
        return false;
      }
      pollfd pfd{connection->fd, POLLOUT, 0};
      ::poll(&pfd, 1, kPollTickMs);
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
    }
    if (plan.disconnect_after_first) return false;  // injected mid-frame cut
  }
  return true;
}

void SocketServer::handle_connection(Connection* connection) {
  // Local adapter handing this connection's send path to the handler.
  struct Sink : FrameSink {
    SocketServer* server;
    Connection* connection;
    bool send(const std::vector<uint8_t>& frame) override {
      return server->send_frame(connection, frame);
    }
  };
  Sink sink;
  sink.server = this;
  sink.connection = connection;

  FrameReader reader;
  uint8_t buf[64 * 1024];
  Clock::time_point last_activity = Clock::now();
  // Infer frames carry the version-sensitive request layout, so they are
  // only accepted after this connection's kHello was accepted: a
  // mixed-version peer fails fast (connection drop) instead of
  // mis-decoding a v4 body with a v3 layout. The model-lifecycle control
  // frames change server state, so they are gated the same way.
  // Version-stable frames (stats, health probes) stay reachable without
  // a handshake.
  bool handshaken = false;
  try {
    for (;;) {
      pollfd pfd{connection->fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollTickMs);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) {
        // Deadline tick: a peer stalled mid-frame gets the (short) read
        // deadline; a quiet connection with no partial frame gets the
        // (long) idle deadline.
        const bool mid_frame = reader.buffered() > 0;
        const int64_t limit_ms =
            mid_frame ? options_.read_timeout_ms : options_.idle_timeout_ms;
        if (limit_ms > 0 &&
            Clock::now() - last_activity >=
                std::chrono::milliseconds(limit_ms)) {
          ++connections_reaped_;
          break;
        }
        continue;
      }
      if (options_.chaos != nullptr) {
        const uint64_t stall = options_.chaos->read_stall_us();
        if (stall > 0 && !stopping_.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(stall));
        }
      }
      const ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
      if (n == 0) break;  // EOF (client done, or stop() half-closed us)
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      last_activity = Clock::now();
      reader.feed(buf, static_cast<size_t>(n));
      bool drop = false;
      while (auto frame = reader.next()) {
        if (!handshaken) {
          if (frame->type == MsgType::kHello) {
            handshaken =
                decode_hello(frame->body).version == kProtocolVersion;
          } else if (frame->type == MsgType::kInferRequest ||
                     frame->type == MsgType::kForwardInfer) {
            throw ProtocolError("infer frame before kHello handshake");
          } else if (frame->type == MsgType::kLoadVersion ||
                     frame->type == MsgType::kPromote ||
                     frame->type == MsgType::kRollback ||
                     frame->type == MsgType::kRolloutStatus ||
                     frame->type == MsgType::kSuperviseCommand) {
            throw ProtocolError("control frame before kHello handshake");
          }
        }
        if (!handler_.handle(*frame, sink)) {
          drop = true;
          break;
        }
      }
      if (drop) break;
    }
  } catch (const std::exception&) {
    // Malformed frame or broken pipe: drop the connection. The socket is
    // closed by the reaper; in-process state is untouched.
  }
  connection->finished.store(true);
}

void SocketServer::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  // 1. No new connections.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (endpoint_.kind == EndpointKind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
  // 2. Half-close every connection for reading: a handler blocked in
  //    poll/recv sees EOF; one mid-request still writes its response
  //    (bounded by write_timeout_ms against a stalled reader).
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RD);
    }
  }
  // 3. Wait for handlers, then let the handler complete everything already
  //    accepted (ServeCore drains; the router closes its backend pool).
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
      ::close(connection->fd);
    }
    connections_.clear();
  }
  handler_.on_stop();
}

void SocketServer::run_until_signal() {
  g_signal_stop.store(0);
  struct sigaction action{};
  action.sa_handler = on_stop_signal;
  sigemptyset(&action.sa_mask);
  struct sigaction old_int{};
  struct sigaction old_term{};
  ::sigaction(SIGINT, &action, &old_int);
  ::sigaction(SIGTERM, &action, &old_term);
  while (g_signal_stop.load() == 0 && !stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  stop();
}

// ---------------------------------------------------------------------------
// SocketClient
// ---------------------------------------------------------------------------

SocketClient::SocketClient(const std::string& endpoint_spec)
    : SocketClient(parse_endpoint(endpoint_spec)) {}

SocketClient::SocketClient(const Endpoint& endpoint)
    : fd_(connect_to(endpoint)) {}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

Frame SocketClient::roundtrip(const std::vector<uint8_t>& frame) {
  send_all(fd_, frame);
  uint8_t buf[64 * 1024];
  for (;;) {
    if (auto f = reader_.next()) return *f;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      throw std::runtime_error("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv: ") +
                               std::strerror(errno));
    }
    reader_.feed(buf, static_cast<size_t>(n));
  }
}

Response SocketClient::infer(const std::string& model,
                             const nn::Tensor& image, uint64_t deadline_us,
                             Priority priority,
                             const std::string& session) {
  // Servers only accept infer frames on handshaken connections.
  if (!handshaken_ && !handshake()) {
    throw std::runtime_error("server refused protocol version " +
                             std::to_string(kProtocolVersion));
  }
  InferRequest request;
  request.id = next_id_++;
  request.deadline_us = deadline_us;
  request.priority = priority;
  request.session = session;
  request.model = model;
  request.image = image;
  const Frame frame = roundtrip(encode_infer_request(request));
  if (frame.type != MsgType::kInferResponse) {
    throw std::runtime_error("unexpected response type");
  }
  InferResponse response = decode_infer_response(frame.body);
  if (response.id != request.id) {
    throw std::runtime_error("response id mismatch");
  }
  return std::move(response.response);
}

bool SocketClient::handshake(PeerRole role) {
  Hello hello;
  hello.version = kProtocolVersion;
  hello.role = role;
  const Frame frame = roundtrip(encode_hello(hello));
  if (frame.type != MsgType::kHelloAck) {
    throw std::runtime_error("unexpected response type");
  }
  const HelloAck ack = decode_hello_ack(frame.body);
  handshaken_ = ack.accepted && ack.version == kProtocolVersion;
  return handshaken_;
}

HealthAck SocketClient::probe() {
  HealthProbe probe;
  probe.nonce = next_nonce_++;
  const Frame frame = roundtrip(encode_health_probe(probe));
  if (frame.type != MsgType::kHealthAck) {
    throw std::runtime_error("unexpected response type");
  }
  const HealthAck ack = decode_health_ack(frame.body);
  if (ack.nonce != probe.nonce) {
    throw std::runtime_error("health ack nonce mismatch");
  }
  return ack;
}

std::string SocketClient::stats() {
  const Frame frame = roundtrip(encode_stats_request());
  return frame.type == MsgType::kStatsResponse
             ? decode_stats_response(frame.body)
             : throw std::runtime_error("unexpected response type");
}

RolloutReply SocketClient::control_roundtrip(
    const std::vector<uint8_t>& bytes) {
  // Control frames are handshake-gated server-side, exactly like infers.
  if (!handshaken_ && !handshake()) {
    throw std::runtime_error("server refused protocol version " +
                             std::to_string(kProtocolVersion));
  }
  const Frame frame = roundtrip(bytes);
  if (frame.type != MsgType::kRolloutReply) {
    throw std::runtime_error("unexpected response type");
  }
  return decode_rollout_reply(frame.body);
}

RolloutReply SocketClient::load_version(const LoadVersionRequest& request) {
  return control_roundtrip(encode_load_version(request));
}

RolloutReply SocketClient::promote(const std::string& name) {
  RolloutCommand command;
  command.name = name;
  return control_roundtrip(encode_promote(command));
}

RolloutReply SocketClient::rollback(const std::string& name,
                                    const std::string& reason) {
  RolloutCommand command;
  command.name = name;
  command.reason = reason;
  return control_roundtrip(encode_rollback(command));
}

RolloutReply SocketClient::rollout_status(const std::string& name) {
  RolloutCommand command;
  command.name = name;
  return control_roundtrip(encode_rollout_status(command));
}

RolloutReply SocketClient::supervise(const std::string& verb,
                                     const std::string& lane) {
  if (!handshaken_ && !handshake()) {
    throw std::runtime_error("server refused protocol version " +
                             std::to_string(kProtocolVersion));
  }
  SuperviseCommand command;
  command.verb = verb;
  command.lane = lane;
  const Frame frame = roundtrip(encode_supervise_command(command));
  if (frame.type != MsgType::kSuperviseReply) {
    throw std::runtime_error("unexpected response type");
  }
  return decode_supervise_reply(frame.body);
}

}  // namespace qsnc::serve
