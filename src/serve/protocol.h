// Length-prefixed binary wire protocol of the serving front-end.
//
// Frame layout (all integers little-endian):
//
//   u32 payload_len | u8 type | payload[payload_len - 1]
//
// i.e. payload_len counts the type byte plus the body. Messages
// (protocol version 5 — v2 added deadline_us/degraded, v3 the request
// priority byte and the kShedded status code, v4 the session key,
// the hello handshake, health probes, and the router-forward frame;
// v5 the model-lifecycle control frames and the health-ack version
// labels):
//
//   kInferRequest  (1): u64 id | u64 deadline_us | u8 priority |
//                       u16 session_len | session bytes |
//                       u16 model_len | model bytes | u8 rank |
//                       u32 dim[rank] | f32 data[numel]
//   kInferResponse (2): u64 id | u8 status | u8 degraded |
//                       i64 prediction | u64 latency_us |
//                       u64 retry_after_us | u32 batch_size |
//                       u16 error_len | error bytes
//   kStatsRequest  (3): (empty body)
//   kStatsResponse (4): u32 text_len | text bytes
//   kHello         (5): u16 version | u8 role (0 client, 1 router)
//   kHelloAck      (6): u16 version | u8 accepted
//   kHealthProbe   (7): u64 nonce
//   kHealthAck     (8): u64 nonce | u8 healthy | u32 queue_depth |
//                       [u16 count | count * (u16 model_len | model bytes |
//                        u16 version_len | version bytes)]
//   kForwardInfer  (9): u64 route_hash | <kInferRequest body>
//   kLoadVersion  (10): u16 name_len | name bytes |
//                       u16 arch_len | architecture bytes |
//                       u16 backend_len | backend bytes | u8 bits |
//                       u64 init_seed | u64 state_len | state bytes
//   kPromote      (11): u16 name_len | name bytes
//   kRollback     (12): u16 name_len | name bytes |
//                       u16 reason_len | reason bytes
//   kRolloutStatus(13): u16 name_len | name bytes (empty = all rollouts)
//   kRolloutReply (14): u8 ok | u32 message_len | message bytes
//   kSuperviseCommand (15): u16 verb_len | verb bytes |
//                           u16 lane_len | lane bytes
//   kSuperviseReply   (16): u8 ok | u32 message_len | message bytes
//
// The session key (v4) is an optional client-chosen affinity tag: the
// router hashes (model, session) onto its consistent-hash ring so all
// requests of one session land on the same backend (the hook for future
// sticky streaming); backends carry it through untouched. kForwardInfer
// is the router->backend spelling of an infer: the precomputed route
// hash travels with the request so a backend (or a debug tap) can
// attribute traffic to ring positions; backends execute it exactly like
// kInferRequest and reply kInferResponse.
//
// Model-lifecycle control frames (v5): kLoadVersion hot-loads a
// versioned model ("lenet@v2") into a running server — `state` carries a
// whole nn::save_state checkpoint image (magic/version/CRC validated
// server-side before anything registers; state_len 0 means fresh
// deterministic init from init_seed). kPromote / kRollback are the
// operator overrides of the blue/green rollout controller, and
// kRolloutStatus reads its report. All four are answered by
// kRolloutReply: ok=0 carries the structured failure reason (corrupt
// checkpoint, unknown version, bad state-machine transition) and leaves
// server state untouched. Control frames change server state, so like
// infer frames they require the kHello handshake first. The health-ack
// version list (v5) is how the router tier learns each backend's
// per-model active version. Every ack carries the list (possibly empty):
// router, servers and clients ship together, and the hello handshake
// refuses any peer whose version is not kProtocolVersion.
//
// Supervisor control frames (v6): kSuperviseCommand carries an operator
// verb for the process supervisor's control endpoint — "status" (lane
// ignored) renders the lane table, "release <lane>" lifts a crash-loop
// quarantine so the lane restarts. Answered by kSuperviseReply (same
// shape as kRolloutReply: ok=0 carries the structured failure reason).
// Like the rollout control frames it requires the kHello handshake.
//
// Decoders throw ProtocolError on truncated bodies, oversized frames
// (> kMaxFrameBytes — a corrupt length prefix must not allocate
// gigabytes), absurd ranks, length/numel mismatches, or out-of-range
// priority/status codes. The FrameReader is incremental so socket
// handlers can feed arbitrary read() chunks, and bounds its buffer at
// kMaxBufferedBytes so a frame-spamming peer cannot grow server memory
// without limit.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "serve/micro_batcher.h"

namespace qsnc::serve {

struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Wire protocol revision implemented by this library (both ends of the
/// socket are built from this repo; the constant documents the lineage:
/// 1 = initial, 2 = deadline_us/degraded, 3 = priority/kShedded,
/// 4 = session key + hello/health/forward frames, 5 = model-lifecycle
/// control frames + health-ack version labels, 6 = supervisor control
/// frames). The kHello handshake is mandatory before infer-class frames
/// (kInferRequest/kForwardInfer, whose layout changes across versions)
/// and before the state-changing control frames (kLoadVersion/kPromote/
/// kRollback/kRolloutStatus/kSuperviseCommand): servers drop
/// un-handshaken ones with a ProtocolError, so mixed-version fleets fail
/// fast instead of mis-decoding. Version-stable frames (kStatsRequest,
/// kHealthProbe) are accepted without a handshake.
constexpr uint16_t kProtocolVersion = 6;

/// Hard cap on one frame's payload (length prefix included in checks).
constexpr uint32_t kMaxFrameBytes = 64u << 20;
constexpr int kMaxTensorRank = 8;

/// Cap on bytes a FrameReader may hold (one max frame plus read slack):
/// a peer that pipelines frames faster than they are consumed gets a
/// ProtocolError instead of an unbounded buffer.
constexpr size_t kMaxBufferedBytes =
    static_cast<size_t>(kMaxFrameBytes) + (256u << 10);

enum class MsgType : uint8_t {
  kInferRequest = 1,
  kInferResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kHello = 5,
  kHelloAck = 6,
  kHealthProbe = 7,
  kHealthAck = 8,
  kForwardInfer = 9,
  kLoadVersion = 10,
  kPromote = 11,
  kRollback = 12,
  kRolloutStatus = 13,
  kRolloutReply = 14,
  kSuperviseCommand = 15,
  kSuperviseReply = 16,
};

enum class PeerRole : uint8_t { kClient = 0, kRouter = 1 };

struct InferRequest {
  uint64_t id = 0;
  uint64_t deadline_us = 0;  // latency budget from enqueue; 0 = none
  Priority priority = Priority::kInteractive;
  /// Optional affinity key: the router pins all requests sharing
  /// (model, session) to one backend. Empty = no affinity (spread).
  std::string session;
  std::string model;
  nn::Tensor image;  // [C, H, W]
};

struct InferResponse {
  uint64_t id = 0;
  Response response;
};

/// One decoded frame: the type tag plus the raw body (tag stripped).
struct Frame {
  MsgType type;
  std::vector<uint8_t> body;
};

/// kHello / kHelloAck bodies (version negotiation at connect time).
struct Hello {
  uint16_t version = kProtocolVersion;
  PeerRole role = PeerRole::kClient;
};
struct HelloAck {
  uint16_t version = kProtocolVersion;
  bool accepted = false;
};

/// One (base model, active version) label in a kHealthAck. An empty
/// version means the base has no explicit version (pre-lifecycle
/// registration).
struct ModelVersionLabel {
  std::string model;
  std::string version;

  bool operator==(const ModelVersionLabel& other) const {
    return model == other.model && version == other.version;
  }
};

/// kHealthProbe / kHealthAck bodies (router liveness + load probes).
struct HealthProbe {
  uint64_t nonce = 0;
};
struct HealthAck {
  uint64_t nonce = 0;
  bool healthy = false;
  uint32_t queue_depth = 0;  // total queued requests across models
  /// Per-base active-version labels (v5); empty when the peer serves no
  /// versioned models.
  std::vector<ModelVersionLabel> versions;
};

/// kForwardInfer body: the router->backend spelling of an infer.
struct ForwardedInfer {
  uint64_t route_hash = 0;  // ring position the router chose
  InferRequest request;
};

/// kLoadVersion body: hot-load a versioned model into a running server.
/// `state` is a whole nn::save_state checkpoint image (validated
/// server-side); empty means fresh deterministic init from init_seed.
/// `backend_kind` is the registry spelling ("fp32" | "quant" | "snc") —
/// kept a string on the wire so the protocol stays decoupled from the
/// registry enum; the server validates it at apply time.
struct LoadVersionRequest {
  std::string name;          // versioned name, e.g. "lenet-mini@v2"
  std::string architecture;  // model-zoo architecture
  std::string backend_kind;  // "fp32" | "quant" | "snc"
  uint8_t bits = 4;
  uint64_t init_seed = 1;
  std::vector<uint8_t> state;
};

/// kPromote / kRollback / kRolloutStatus bodies. `reason` is only
/// carried by kRollback (the operator's audit note); kRolloutStatus with
/// an empty name reports every rollout.
struct RolloutCommand {
  std::string name;  // versioned name or base, per command semantics
  std::string reason;
};

/// kRolloutReply body: the shared answer to every control frame. ok=0
/// carries the structured failure reason and means server state was left
/// untouched.
struct RolloutReply {
  bool ok = false;
  std::string message;
};

/// kSuperviseCommand body: an operator verb for the supervisor's control
/// endpoint ("status" | "release"); `lane` names the target lane for
/// verbs that take one and is empty otherwise. kSuperviseReply reuses the
/// RolloutReply shape.
struct SuperviseCommand {
  std::string verb;
  std::string lane;
};

std::vector<uint8_t> encode_infer_request(const InferRequest& request);
std::vector<uint8_t> encode_infer_response(const InferResponse& response);
std::vector<uint8_t> encode_stats_request();
std::vector<uint8_t> encode_stats_response(const std::string& text);
std::vector<uint8_t> encode_hello(const Hello& hello);
std::vector<uint8_t> encode_hello_ack(const HelloAck& ack);
std::vector<uint8_t> encode_health_probe(const HealthProbe& probe);
std::vector<uint8_t> encode_health_ack(const HealthAck& ack);
std::vector<uint8_t> encode_forward_infer(const ForwardedInfer& forward);
std::vector<uint8_t> encode_load_version(const LoadVersionRequest& request);
std::vector<uint8_t> encode_promote(const RolloutCommand& command);
std::vector<uint8_t> encode_rollback(const RolloutCommand& command);
std::vector<uint8_t> encode_rollout_status(const RolloutCommand& command);
std::vector<uint8_t> encode_rollout_reply(const RolloutReply& reply);
std::vector<uint8_t> encode_supervise_command(const SuperviseCommand& command);
std::vector<uint8_t> encode_supervise_reply(const RolloutReply& reply);

InferRequest decode_infer_request(const std::vector<uint8_t>& body);
InferResponse decode_infer_response(const std::vector<uint8_t>& body);
std::string decode_stats_response(const std::vector<uint8_t>& body);
Hello decode_hello(const std::vector<uint8_t>& body);
HelloAck decode_hello_ack(const std::vector<uint8_t>& body);
HealthProbe decode_health_probe(const std::vector<uint8_t>& body);
HealthAck decode_health_ack(const std::vector<uint8_t>& body);
ForwardedInfer decode_forward_infer(const std::vector<uint8_t>& body);
LoadVersionRequest decode_load_version(const std::vector<uint8_t>& body);
RolloutCommand decode_promote(const std::vector<uint8_t>& body);
RolloutCommand decode_rollback(const std::vector<uint8_t>& body);
RolloutCommand decode_rollout_status(const std::vector<uint8_t>& body);
RolloutReply decode_rollout_reply(const std::vector<uint8_t>& body);
SuperviseCommand decode_supervise_command(const std::vector<uint8_t>& body);
RolloutReply decode_supervise_reply(const std::vector<uint8_t>& body);

/// Incremental frame splitter over a byte stream.
class FrameReader {
 public:
  void feed(const uint8_t* data, size_t n);

  /// Next complete frame, or nullopt when more bytes are needed. Throws
  /// ProtocolError on an oversized or zero-length frame.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed (diagnostics).
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;
};

}  // namespace qsnc::serve
