// Serving front-ends: the in-process core and the socket server.
//
//   ServeCore     — registry + per-model shard pools (N MicroBatcher
//                   lanes per model, each over its own identically-built
//                   backend) + aggregated stats. This is the whole
//                   serving data plane; both front-ends are thin shells
//                   around it.
//   FrameHandler  — what a front-end does with each decoded frame. The
//                   SocketServer owns transport concerns (framing,
//                   deadlines, chaos, shutdown); the handler owns
//                   semantics. ServeFrameHandler answers infer/stats/
//                   hello/health against a ServeCore; the router tier
//                   (src/router) plugs in its forwarding handler here.
//   SocketServer  — listener speaking the protocol.h framing over a
//                   unix or TCP endpoint (serve/transport.h). One
//                   handler thread per connection; each connection is a
//                   synchronous request/response stream, so client-side
//                   concurrency = number of connections.
//   SocketClient  — blocking client for one connection (loadgen threads
//                   each own one), over either transport.
//
// Shard pools: ModelConfig::shards > 1 gives a model N batcher+backend
// lanes. Every lane is built from the same seed/checkpoint, so
// predictions are bit-identical regardless of which lane serves a
// request; ServeCore spreads submissions with deterministic
// power-of-two-choices (round-robin candidate vs its successor, shorter
// queue wins, tie -> lower index). The admission ladder (breaker,
// concurrency cap, CoDel shedding) applies per lane with the same
// options — the shared-ladder idiom generalized from the snc backend's
// replica pool so fp32/quant backends shard too.
//
// Slow-client defense (SocketServerOptions): every connection runs under
// read/write deadlines so one stalled or malicious peer can never wedge a
// handler thread — a peer that stalls mid-frame is reaped at
// read_timeout_ms, a connection with no traffic at idle_timeout_ms, and a
// peer that stops reading its responses is cut off at write_timeout_ms
// (sends are non-blocking + poll, never an unbounded blocking send). The
// FrameReader additionally bounds per-connection buffered bytes
// (protocol.h kMaxBufferedBytes), and max_connections caps handler
// threads: excess connections are accepted and immediately closed. The
// chaos injector (when set) perturbs this path with torn frames, stalls,
// and mid-frame disconnects — see serve/chaos.h.
//
// Shutdown discipline (the "zero dropped on shutdown" contract):
// SocketServer::stop() first closes the listener (no new connections),
// then half-closes every connection for reading — a handler mid-request
// still writes its response (bounded by write_timeout_ms) — joins the
// handlers, and finally tells the frame handler to stop (ServeCore
// drains its batchers, completing every accepted request before the
// threads exit). run_until_signal() wires SIGINT/SIGTERM to exactly this
// sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/chaos.h"
#include "serve/journal.h"
#include "serve/micro_batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/rollout.h"
#include "serve/transport.h"

namespace qsnc::serve {

/// What attach_journal recovered and reconciled from a prior life of this
/// node (see serve/journal.h for the file format).
struct JournalReconcileReport {
  uint64_t records_replayed = 0;
  uint64_t applied = 0;   // transitions re-applied against the registry
  uint64_t skipped = 0;   // already satisfied (e.g. boot-registered keys)
  bool tail_dropped = false;
  std::string tail_reason;
  /// Per-record apply failures (bad architecture, corrupt checkpoint
  /// image, ...) — reported, never fatal: the node serves what it can.
  std::vector<std::string> errors;

  std::string to_string() const;
};

class ServeCore {
 public:
  /// Creates one MicroBatcher lane per model shard currently in
  /// `registry` (register models first; hot-loaded versions join via
  /// load_version/add_model). `registry` must outlive the core; so must
  /// `options.chaos` when set. `rollout_options` tunes the blue/green
  /// controller behind load_version (see serve/rollout.h).
  ServeCore(ModelRegistry& registry, const BatchOptions& options,
            const RolloutOptions& rollout_options = {});
  ~ServeCore();  // drains

  /// Never blocks; unknown models resolve immediately with kError, as do
  /// explicit requests for a quarantined version. Bare names serve the
  /// base's active version (resolved per request, so a promote flips new
  /// traffic while admitted requests finish on their version).
  /// `deadline_us` > 0 is a per-request latency budget (see
  /// MicroBatcher::submit); 0 means no deadline. `priority` orders both
  /// service and overload shedding (serve/admission.h). Sharded models
  /// spread over their lanes (power-of-two-choices, see header comment).
  std::future<Response> infer_async(
      const std::string& model, nn::Tensor image, uint64_t deadline_us = 0,
      Priority priority = Priority::kInteractive);
  /// Blocking convenience around infer_async.
  Response infer(const std::string& model, nn::Tensor image,
                 uint64_t deadline_us = 0,
                 Priority priority = Priority::kInteractive);

  /// Direct-to-version submission: `key` must be a registered registry
  /// key; no resolve, no shadow hook (this is what the rollout controller
  /// itself uses to reach blue and green).
  std::future<Response> submit_to(const std::string& key, nn::Tensor image,
                                  uint64_t deadline_us, Priority priority);

  /// Builds batcher lanes for a version registered after construction
  /// (the hot-load path). Idempotent for keys that already have lanes.
  void add_model(const std::string& key);

  /// The whole kLoadVersion apply step: registers the version from its
  /// in-memory checkpoint (validated; a corrupt image fails structurally
  /// with the registry untouched), builds its lanes, then either
  /// activates it (first version of a new base) or starts a shadow
  /// rollout against the base's active version.
  RolloutReply load_version(const LoadVersionRequest& request);

  /// Attaches the durable state journal at `path`: replays existing
  /// records — reconciling the registry to its pre-crash active versions
  /// (hot-loaded entries rebuilt from their journaled checkpoint images,
  /// promote/rollback transitions re-applied; torn tails dropped) — then
  /// compacts the file and journals every subsequent state transition.
  /// Call once, before traffic flows; boot-registered models are not
  /// journaled (the boot flags recreate them). `chaos` (may be null, must
  /// outlive the core) supplies the seeded torn-append fault. Throws
  /// std::runtime_error when `path` exists but is not a journal.
  JournalReconcileReport attach_journal(const std::string& path,
                                        ChaosInjector* chaos = nullptr);

  /// The attached journal (null when attach_journal was never called).
  const Journal* journal() const { return journal_.get(); }

  /// Journal hooks — no-ops without an attached journal. The rollout
  /// controller calls the first two under its own lock; the snc replica
  /// health monitor drives the third via its quarantine hook.
  void journal_promote(const std::string& base, const std::string& key);
  void journal_rollback(const std::string& key, const std::string& reason);
  void journal_replica_quarantine(const std::string& model, uint32_t replica,
                                  const std::string& reason);

  /// Stops admission and completes all accepted requests (rollout
  /// comparator first, then every lane). Idempotent.
  void drain();

  const ModelRegistry& registry() const { return registry_; }
  ModelRegistry& registry() { return registry_; }
  RolloutController& rollout() { return *rollout_; }

  /// Batcher lanes serving `model` (--shards).
  size_t num_lanes(const std::string& model) const;

  /// Total queued requests across every model and lane (the load figure
  /// reported in health acks).
  size_t total_queue_depth() const;

  std::vector<ModelStatsSnapshot> stats() const;
  std::string stats_report() const;

 private:
  struct ModelLanes {
    std::vector<std::unique_ptr<MicroBatcher>> lanes;
    std::atomic<uint64_t> rr{0};  // power-of-two-choices cursor
  };

  void add_model_locked(const std::string& key);  // callers hold models_mu_
  ModelLanes* find_lanes(const std::string& key) const;
  /// Registers + builds lanes for a hot-load request (shared by the live
  /// load_version path and journal replay). Returns "" on success, the
  /// structured failure otherwise; the registry is untouched on failure.
  std::string register_version(const LoadVersionRequest& request);
  /// Records a successful hot-load in the journal (callers: load_version
  /// and replay). No-op without a journal.
  void journal_load(const LoadVersionRequest& request, bool append);
  /// Installs the replica-quarantine journal hook on `key`'s snc shards.
  void install_quarantine_hooks(const std::string& key);
  /// Canonical snapshot of journaled state for compaction: every
  /// journaled load in order, then the promotes/rollbacks that reproduce
  /// the current active/quarantined pointers. Callers hold journal_mu_.
  std::vector<JournalRecord> journal_snapshot_locked() const;

  ModelRegistry& registry_;
  BatchOptions batch_options_;
  /// Guards the models_ map shape (hot-loads add entries); lane pointers
  /// are stable once inserted, so the submit path only holds this shared.
  mutable std::shared_mutex models_mu_;
  std::map<std::string, std::unique_ptr<ModelLanes>> models_;
  std::unique_ptr<RolloutController> rollout_;

  /// Durable state journal (null until attach_journal). journal_mu_
  /// guards the journaled-load list and quarantine-reason map; the
  /// Journal serializes its own appends.
  std::unique_ptr<Journal> journal_;
  mutable std::mutex journal_mu_;
  std::vector<std::pair<std::string, LoadVersionRequest>> journal_loads_;
  std::map<std::string, std::string> journal_quarantine_reasons_;
};

/// Per-connection send interface handed to FrameHandler::handle. send()
/// returns false when the connection should be dropped (write deadline
/// hit, peer gone, or injected mid-frame disconnect).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual bool send(const std::vector<uint8_t>& frame) = 0;
};

/// Semantics behind a SocketServer: one call per decoded frame. Return
/// false (or let a ProtocolError escape) to drop the connection. Called
/// concurrently from connection handler threads — implementations must
/// be thread-safe.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual bool handle(const Frame& frame, FrameSink& sink) = 0;
  /// Called exactly once from SocketServer::stop() after every
  /// connection handler has been joined (the drain hook).
  virtual void on_stop() {}
};

/// The serving-node handler: kInferRequest / kForwardInfer execute
/// against the core, kStatsRequest renders the stats table, kHello
/// negotiates the protocol version, kHealthProbe reports liveness,
/// total queue depth, and per-base active-version labels. The v5
/// control frames (kLoadVersion / kPromote / kRollback /
/// kRolloutStatus) drive the model lifecycle and always answer with a
/// kRolloutReply — ok=0 carries the structured failure and means core
/// state was untouched.
class ServeFrameHandler : public FrameHandler {
 public:
  explicit ServeFrameHandler(ServeCore& core) : core_(core) {}
  bool handle(const Frame& frame, FrameSink& sink) override;
  void on_stop() override { core_.drain(); }

 private:
  ServeCore& core_;
};

struct SocketServerOptions {
  /// Reap a connection stalled mid-frame (partial frame buffered, no new
  /// bytes) after this long. 0 = never.
  int64_t read_timeout_ms = 5000;
  /// Reap a connection with no buffered partial frame and no traffic
  /// after this long. 0 = never.
  int64_t idle_timeout_ms = 60000;
  /// Abort a response write that cannot make progress (peer not reading)
  /// after this long. 0 = never (not recommended: an unbounded send can
  /// stall shutdown on one dead peer).
  int64_t write_timeout_ms = 5000;
  /// Max simultaneous connections; excess ones are accepted and
  /// immediately closed. 0 = unlimited.
  int max_connections = 256;
  /// Socket-level fault injector (torn frames, stalls, mid-frame
  /// disconnects); not owned, may be null. Must outlive the server.
  ChaosInjector* chaos = nullptr;
};

class SocketServer {
 public:
  /// Serve-node convenience: listens on `endpoint_spec` (any
  /// parse_endpoint spelling) and answers with an internal
  /// ServeFrameHandler over `core`. Throws std::runtime_error on
  /// bind/listen failure.
  SocketServer(ServeCore& core, const std::string& endpoint_spec,
               const SocketServerOptions& options = {});

  /// Generic front-end: `handler` supplies the semantics (the router
  /// tier uses this). `handler` must outlive the server.
  SocketServer(FrameHandler& handler, const Endpoint& endpoint,
               const SocketServerOptions& options = {});

  ~SocketServer();  // stops

  /// The endpoint actually bound — an ephemeral tcp port (port 0) is
  /// resolved to the kernel-assigned one.
  const Endpoint& endpoint() const { return endpoint_; }

  /// Graceful shutdown; see the header comment. Idempotent.
  void stop();

  /// Serves until SIGINT/SIGTERM, then stop()s. Installs its handlers for
  /// the call's duration; only one instance may run this at a time.
  void run_until_signal();

  /// Connections accepted so far (diagnostics).
  uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }
  /// Connections reaped by a read/idle/write deadline (diagnostics).
  uint64_t connections_reaped() const { return connections_reaped_.load(); }
  /// Connections refused because max_connections was reached.
  uint64_t connections_rejected() const {
    return connections_rejected_.load();
  }

 private:
  struct Connection;
  void start();
  void accept_loop();
  void handle_connection(Connection* connection);
  void reap_finished();
  /// Sends one encoded frame under the write deadline and the chaos write
  /// plan. Returns false when the connection should be dropped (write
  /// deadline hit, peer gone, or injected mid-frame disconnect).
  bool send_frame(Connection* connection,
                  const std::vector<uint8_t>& bytes);

  std::unique_ptr<ServeFrameHandler> owned_handler_;  // core-ctor only
  FrameHandler& handler_;
  Endpoint endpoint_;
  SocketServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes concurrent stop() calls
  bool stopped_ = false;
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_reaped_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::thread accept_thread_;
  std::mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

class SocketClient {
 public:
  /// Connects to a server at `endpoint_spec` (any parse_endpoint
  /// spelling). Throws std::runtime_error on failure.
  explicit SocketClient(const std::string& endpoint_spec);
  explicit SocketClient(const Endpoint& endpoint);
  ~SocketClient();
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Blocking request/response. Throws std::runtime_error if the server
  /// closes the connection mid-request. `deadline_us` > 0 bounds how long
  /// the request may wait server-side before a structured
  /// kDeadlineExceeded rejection; `priority` is the request's admission
  /// class. `session` is the optional router affinity key (ignored by a
  /// directly-addressed serving node). Performs the kHello handshake
  /// before the first request (servers reject un-handshaken infer
  /// frames); throws std::runtime_error if the server refuses the
  /// version.
  Response infer(const std::string& model, const nn::Tensor& image,
                 uint64_t deadline_us = 0,
                 Priority priority = Priority::kInteractive,
                 const std::string& session = std::string());

  /// Protocol version handshake: true when the server accepted this
  /// client's kProtocolVersion. infer() runs it implicitly on first use;
  /// call it directly to probe version compatibility without inferring.
  bool handshake(PeerRole role = PeerRole::kClient);

  /// Liveness probe; throws on transport failure or a nonce mismatch.
  HealthAck probe();

  /// Server-rendered stats table.
  std::string stats();

  /// Model-lifecycle control requests (protocol v5). Each performs the
  /// kHello handshake first if needed, and returns the server's
  /// kRolloutReply verbatim — ok=false carries the structured failure
  /// reason (corrupt checkpoint, unknown version, bad transition) and
  /// means server state was left untouched. Throws std::runtime_error
  /// only on transport failures.
  RolloutReply load_version(const LoadVersionRequest& request);
  RolloutReply promote(const std::string& name);
  RolloutReply rollback(const std::string& name,
                        const std::string& reason = std::string());
  RolloutReply rollout_status(const std::string& name = std::string());

  /// Supervisor control request (protocol v6): sends kSuperviseCommand
  /// ("status" | "release <lane>") and returns the kSuperviseReply.
  /// Handshake-gated like the other control frames.
  RolloutReply supervise(const std::string& verb,
                         const std::string& lane = std::string());

 private:
  Frame roundtrip(const std::vector<uint8_t>& frame);
  RolloutReply control_roundtrip(const std::vector<uint8_t>& bytes);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  uint64_t next_nonce_ = 1;
  bool handshaken_ = false;
  FrameReader reader_;
};

}  // namespace qsnc::serve
