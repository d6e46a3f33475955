#include "serve/protocol.h"

#include <cstring>
#include <type_traits>

namespace qsnc::serve {

namespace {

// Little-endian scalar writers/readers over a byte vector. The repo's
// serializer (nn/serialize) makes the same host-is-little-endian
// assumption; a cursor-based reader keeps every decode bounds-checked.

template <typename T>
void put(std::vector<uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

struct Cursor {
  const std::vector<uint8_t>& buf;
  size_t at = 0;

  template <typename T>
  T take(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (buf.size() - at < sizeof(T)) {
      throw ProtocolError(std::string("protocol: truncated frame at ") +
                          what);
    }
    T v;
    std::memcpy(&v, buf.data() + at, sizeof(T));
    at += sizeof(T);
    return v;
  }

  std::string take_string(size_t n, const char* what) {
    if (buf.size() - at < n) {
      throw ProtocolError(std::string("protocol: truncated frame at ") +
                          what);
    }
    std::string s(reinterpret_cast<const char*>(buf.data() + at), n);
    at += n;
    return s;
  }

  void done(const char* what) {
    if (at != buf.size()) {
      throw ProtocolError(std::string("protocol: ") +
                          std::to_string(buf.size() - at) +
                          " trailing bytes in " + what);
    }
  }
};

std::vector<uint8_t> finish_frame(MsgType type,
                                  std::vector<uint8_t> body) {
  const uint64_t payload = body.size() + 1;  // + type tag
  if (payload > kMaxFrameBytes) {
    throw ProtocolError("protocol: frame exceeds kMaxFrameBytes");
  }
  std::vector<uint8_t> out;
  out.reserve(4 + payload);
  put<uint32_t>(out, static_cast<uint32_t>(payload));
  put<uint8_t>(out, static_cast<uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

namespace {

/// Shared body writer for kInferRequest and the payload of kForwardInfer.
void put_infer_request(std::vector<uint8_t>& body,
                       const InferRequest& request) {
  if (request.model.size() > UINT16_MAX) {
    throw ProtocolError("protocol: model name too long");
  }
  if (request.session.size() > UINT16_MAX) {
    throw ProtocolError("protocol: session key too long");
  }
  const nn::Shape& shape = request.image.shape();
  if (shape.size() > kMaxTensorRank) {
    throw ProtocolError("protocol: tensor rank > kMaxTensorRank");
  }
  put<uint64_t>(body, request.id);
  put<uint64_t>(body, request.deadline_us);
  put<uint8_t>(body, static_cast<uint8_t>(request.priority));
  put<uint16_t>(body, static_cast<uint16_t>(request.session.size()));
  body.insert(body.end(), request.session.begin(), request.session.end());
  put<uint16_t>(body, static_cast<uint16_t>(request.model.size()));
  body.insert(body.end(), request.model.begin(), request.model.end());
  put<uint8_t>(body, static_cast<uint8_t>(shape.size()));
  for (int64_t d : shape) {
    if (d < 0 || d > UINT32_MAX) {
      throw ProtocolError("protocol: dimension out of range");
    }
    put<uint32_t>(body, static_cast<uint32_t>(d));
  }
  const int64_t numel = request.image.numel();
  const size_t at = body.size();
  body.resize(at + static_cast<size_t>(numel) * sizeof(float));
  std::memcpy(body.data() + at, request.image.data(),
              static_cast<size_t>(numel) * sizeof(float));
}

/// Shared body reader; the caller owns the trailing-bytes check so
/// kForwardInfer can prepend its route hash.
InferRequest take_infer_request(Cursor& c) {
  InferRequest request;
  request.id = c.take<uint64_t>("id");
  request.deadline_us = c.take<uint64_t>("deadline_us");
  const uint8_t priority = c.take<uint8_t>("priority");
  if (priority >= kNumPriorities) {
    throw ProtocolError("protocol: unknown priority class");
  }
  request.priority = static_cast<Priority>(priority);
  const uint16_t session_len = c.take<uint16_t>("session_len");
  request.session = c.take_string(session_len, "session");
  const uint16_t model_len = c.take<uint16_t>("model_len");
  request.model = c.take_string(model_len, "model");
  const uint8_t rank = c.take<uint8_t>("rank");
  if (rank > kMaxTensorRank) {
    throw ProtocolError("protocol: tensor rank > kMaxTensorRank");
  }
  nn::Shape shape;
  uint64_t numel = 1;
  for (int i = 0; i < rank; ++i) {
    const uint32_t d = c.take<uint32_t>("dim");
    shape.push_back(static_cast<int64_t>(d));
    numel *= d;
    // Bound every partial product: numel stays <= 16M before each multiply
    // by a <= 2^32 dim, so the u64 product cannot wrap and sneak a huge
    // allocation past this check.
    if (numel > kMaxFrameBytes / sizeof(float)) {
      throw ProtocolError("protocol: tensor larger than frame limit");
    }
  }
  std::vector<float> data(static_cast<size_t>(numel));
  if (c.buf.size() - c.at < numel * sizeof(float)) {
    throw ProtocolError("protocol: truncated frame at tensor data");
  }
  std::memcpy(data.data(), c.buf.data() + c.at, numel * sizeof(float));
  c.at += numel * sizeof(float);
  request.image = nn::Tensor(std::move(shape), std::move(data));
  return request;
}

}  // namespace

std::vector<uint8_t> encode_infer_request(const InferRequest& request) {
  std::vector<uint8_t> body;
  put_infer_request(body, request);
  return finish_frame(MsgType::kInferRequest, std::move(body));
}

InferRequest decode_infer_request(const std::vector<uint8_t>& body) {
  Cursor c{body};
  InferRequest request = take_infer_request(c);
  c.done("InferRequest");
  return request;
}

std::vector<uint8_t> encode_infer_response(const InferResponse& response) {
  const Response& r = response.response;
  if (r.error.size() > UINT16_MAX) {
    throw ProtocolError("protocol: error string too long");
  }
  std::vector<uint8_t> body;
  put<uint64_t>(body, response.id);
  put<uint8_t>(body, static_cast<uint8_t>(r.status));
  put<uint8_t>(body, r.degraded ? 1 : 0);
  put<int64_t>(body, r.prediction);
  put<uint64_t>(body, r.latency_us);
  put<uint64_t>(body, r.retry_after_us);
  put<uint32_t>(body, r.batch_size);
  put<uint16_t>(body, static_cast<uint16_t>(r.error.size()));
  body.insert(body.end(), r.error.begin(), r.error.end());
  return finish_frame(MsgType::kInferResponse, std::move(body));
}

InferResponse decode_infer_response(const std::vector<uint8_t>& body) {
  Cursor c{body};
  InferResponse response;
  response.id = c.take<uint64_t>("id");
  const uint8_t status = c.take<uint8_t>("status");
  if (status > static_cast<uint8_t>(Status::kShedded)) {
    throw ProtocolError("protocol: unknown status code");
  }
  response.response.status = static_cast<Status>(status);
  response.response.degraded = c.take<uint8_t>("degraded") != 0;
  response.response.prediction = c.take<int64_t>("prediction");
  response.response.latency_us = c.take<uint64_t>("latency_us");
  response.response.retry_after_us = c.take<uint64_t>("retry_after_us");
  response.response.batch_size = c.take<uint32_t>("batch_size");
  const uint16_t error_len = c.take<uint16_t>("error_len");
  response.response.error = c.take_string(error_len, "error");
  c.done("InferResponse");
  return response;
}

std::vector<uint8_t> encode_stats_request() {
  return finish_frame(MsgType::kStatsRequest, {});
}

std::vector<uint8_t> encode_stats_response(const std::string& text) {
  std::vector<uint8_t> body;
  put<uint32_t>(body, static_cast<uint32_t>(text.size()));
  body.insert(body.end(), text.begin(), text.end());
  return finish_frame(MsgType::kStatsResponse, std::move(body));
}

std::string decode_stats_response(const std::vector<uint8_t>& body) {
  Cursor c{body};
  const uint32_t len = c.take<uint32_t>("text_len");
  std::string text = c.take_string(len, "text");
  c.done("StatsResponse");
  return text;
}

std::vector<uint8_t> encode_hello(const Hello& hello) {
  std::vector<uint8_t> body;
  put<uint16_t>(body, hello.version);
  put<uint8_t>(body, static_cast<uint8_t>(hello.role));
  return finish_frame(MsgType::kHello, std::move(body));
}

Hello decode_hello(const std::vector<uint8_t>& body) {
  Cursor c{body};
  Hello hello;
  hello.version = c.take<uint16_t>("version");
  const uint8_t role = c.take<uint8_t>("role");
  if (role > static_cast<uint8_t>(PeerRole::kRouter)) {
    throw ProtocolError("protocol: unknown peer role");
  }
  hello.role = static_cast<PeerRole>(role);
  c.done("Hello");
  return hello;
}

std::vector<uint8_t> encode_hello_ack(const HelloAck& ack) {
  std::vector<uint8_t> body;
  put<uint16_t>(body, ack.version);
  put<uint8_t>(body, ack.accepted ? 1 : 0);
  return finish_frame(MsgType::kHelloAck, std::move(body));
}

HelloAck decode_hello_ack(const std::vector<uint8_t>& body) {
  Cursor c{body};
  HelloAck ack;
  ack.version = c.take<uint16_t>("version");
  const uint8_t accepted = c.take<uint8_t>("accepted");
  if (accepted > 1) {
    throw ProtocolError("protocol: accepted flag out of range");
  }
  ack.accepted = accepted != 0;
  c.done("HelloAck");
  return ack;
}

std::vector<uint8_t> encode_health_probe(const HealthProbe& probe) {
  std::vector<uint8_t> body;
  put<uint64_t>(body, probe.nonce);
  return finish_frame(MsgType::kHealthProbe, std::move(body));
}

HealthProbe decode_health_probe(const std::vector<uint8_t>& body) {
  Cursor c{body};
  HealthProbe probe;
  probe.nonce = c.take<uint64_t>("nonce");
  c.done("HealthProbe");
  return probe;
}

std::vector<uint8_t> encode_health_ack(const HealthAck& ack) {
  if (ack.versions.size() > UINT16_MAX) {
    throw ProtocolError("protocol: too many version labels");
  }
  std::vector<uint8_t> body;
  put<uint64_t>(body, ack.nonce);
  put<uint8_t>(body, ack.healthy ? 1 : 0);
  put<uint32_t>(body, ack.queue_depth);
  put<uint16_t>(body, static_cast<uint16_t>(ack.versions.size()));
  for (const ModelVersionLabel& v : ack.versions) {
    if (v.model.size() > UINT16_MAX || v.version.size() > UINT16_MAX) {
      throw ProtocolError("protocol: version label too long");
    }
    put<uint16_t>(body, static_cast<uint16_t>(v.model.size()));
    body.insert(body.end(), v.model.begin(), v.model.end());
    put<uint16_t>(body, static_cast<uint16_t>(v.version.size()));
    body.insert(body.end(), v.version.begin(), v.version.end());
  }
  return finish_frame(MsgType::kHealthAck, std::move(body));
}

HealthAck decode_health_ack(const std::vector<uint8_t>& body) {
  Cursor c{body};
  HealthAck ack;
  ack.nonce = c.take<uint64_t>("nonce");
  const uint8_t healthy = c.take<uint8_t>("healthy");
  if (healthy > 1) {
    throw ProtocolError("protocol: healthy flag out of range");
  }
  ack.healthy = healthy != 0;
  ack.queue_depth = c.take<uint32_t>("queue_depth");
  const uint16_t count = c.take<uint16_t>("version_count");
  ack.versions.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    ModelVersionLabel v;
    const uint16_t model_len = c.take<uint16_t>("label_model_len");
    v.model = c.take_string(model_len, "label_model");
    const uint16_t version_len = c.take<uint16_t>("label_version_len");
    v.version = c.take_string(version_len, "label_version");
    ack.versions.push_back(std::move(v));
  }
  c.done("HealthAck");
  return ack;
}

std::vector<uint8_t> encode_forward_infer(const ForwardedInfer& forward) {
  std::vector<uint8_t> body;
  put<uint64_t>(body, forward.route_hash);
  put_infer_request(body, forward.request);
  return finish_frame(MsgType::kForwardInfer, std::move(body));
}

ForwardedInfer decode_forward_infer(const std::vector<uint8_t>& body) {
  Cursor c{body};
  ForwardedInfer forward;
  forward.route_hash = c.take<uint64_t>("route_hash");
  forward.request = take_infer_request(c);
  c.done("ForwardInfer");
  return forward;
}

namespace {

/// Shared u16-length-prefixed string writer for the small control-frame
/// fields (names, reasons, backend spellings).
void put_short_string(std::vector<uint8_t>& body, const std::string& s,
                      const char* what) {
  if (s.size() > UINT16_MAX) {
    throw ProtocolError(std::string("protocol: ") + what + " too long");
  }
  put<uint16_t>(body, static_cast<uint16_t>(s.size()));
  body.insert(body.end(), s.begin(), s.end());
}

std::string take_short_string(Cursor& c, const char* what) {
  const uint16_t len = c.take<uint16_t>(what);
  return c.take_string(len, what);
}

}  // namespace

std::vector<uint8_t> encode_load_version(const LoadVersionRequest& request) {
  std::vector<uint8_t> body;
  put_short_string(body, request.name, "name");
  put_short_string(body, request.architecture, "architecture");
  put_short_string(body, request.backend_kind, "backend");
  put<uint8_t>(body, request.bits);
  put<uint64_t>(body, request.init_seed);
  put<uint64_t>(body, static_cast<uint64_t>(request.state.size()));
  body.insert(body.end(), request.state.begin(), request.state.end());
  return finish_frame(MsgType::kLoadVersion, std::move(body));
}

LoadVersionRequest decode_load_version(const std::vector<uint8_t>& body) {
  Cursor c{body};
  LoadVersionRequest request;
  request.name = take_short_string(c, "name");
  request.architecture = take_short_string(c, "architecture");
  request.backend_kind = take_short_string(c, "backend");
  request.bits = c.take<uint8_t>("bits");
  request.init_seed = c.take<uint64_t>("init_seed");
  const uint64_t state_len = c.take<uint64_t>("state_len");
  // The frame itself is already bounded at kMaxFrameBytes; this check
  // rejects a corrupt inner length before it can drive a huge resize.
  if (state_len > c.buf.size() - c.at) {
    throw ProtocolError("protocol: truncated frame at state");
  }
  request.state.assign(c.buf.begin() + static_cast<ptrdiff_t>(c.at),
                       c.buf.begin() +
                           static_cast<ptrdiff_t>(c.at + state_len));
  c.at += static_cast<size_t>(state_len);
  c.done("LoadVersion");
  return request;
}

std::vector<uint8_t> encode_promote(const RolloutCommand& command) {
  std::vector<uint8_t> body;
  put_short_string(body, command.name, "name");
  return finish_frame(MsgType::kPromote, std::move(body));
}

RolloutCommand decode_promote(const std::vector<uint8_t>& body) {
  Cursor c{body};
  RolloutCommand command;
  command.name = take_short_string(c, "name");
  c.done("Promote");
  return command;
}

std::vector<uint8_t> encode_rollback(const RolloutCommand& command) {
  std::vector<uint8_t> body;
  put_short_string(body, command.name, "name");
  put_short_string(body, command.reason, "reason");
  return finish_frame(MsgType::kRollback, std::move(body));
}

RolloutCommand decode_rollback(const std::vector<uint8_t>& body) {
  Cursor c{body};
  RolloutCommand command;
  command.name = take_short_string(c, "name");
  command.reason = take_short_string(c, "reason");
  c.done("Rollback");
  return command;
}

std::vector<uint8_t> encode_rollout_status(const RolloutCommand& command) {
  std::vector<uint8_t> body;
  put_short_string(body, command.name, "name");
  return finish_frame(MsgType::kRolloutStatus, std::move(body));
}

RolloutCommand decode_rollout_status(const std::vector<uint8_t>& body) {
  Cursor c{body};
  RolloutCommand command;
  command.name = take_short_string(c, "name");
  c.done("RolloutStatus");
  return command;
}

std::vector<uint8_t> encode_rollout_reply(const RolloutReply& reply) {
  if (reply.message.size() > UINT32_MAX) {
    throw ProtocolError("protocol: reply message too long");
  }
  std::vector<uint8_t> body;
  put<uint8_t>(body, reply.ok ? 1 : 0);
  put<uint32_t>(body, static_cast<uint32_t>(reply.message.size()));
  body.insert(body.end(), reply.message.begin(), reply.message.end());
  return finish_frame(MsgType::kRolloutReply, std::move(body));
}

RolloutReply decode_rollout_reply(const std::vector<uint8_t>& body) {
  Cursor c{body};
  RolloutReply reply;
  const uint8_t ok = c.take<uint8_t>("ok");
  if (ok > 1) {
    throw ProtocolError("protocol: ok flag out of range");
  }
  reply.ok = ok != 0;
  const uint32_t message_len = c.take<uint32_t>("message_len");
  reply.message = c.take_string(message_len, "message");
  c.done("RolloutReply");
  return reply;
}

std::vector<uint8_t> encode_supervise_command(
    const SuperviseCommand& command) {
  std::vector<uint8_t> body;
  put_short_string(body, command.verb, "verb");
  put_short_string(body, command.lane, "lane");
  return finish_frame(MsgType::kSuperviseCommand, std::move(body));
}

SuperviseCommand decode_supervise_command(const std::vector<uint8_t>& body) {
  Cursor c{body};
  SuperviseCommand command;
  command.verb = take_short_string(c, "verb");
  command.lane = take_short_string(c, "lane");
  c.done("SuperviseCommand");
  return command;
}

std::vector<uint8_t> encode_supervise_reply(const RolloutReply& reply) {
  if (reply.message.size() > UINT32_MAX) {
    throw ProtocolError("protocol: reply message too long");
  }
  std::vector<uint8_t> body;
  put<uint8_t>(body, reply.ok ? 1 : 0);
  put<uint32_t>(body, static_cast<uint32_t>(reply.message.size()));
  body.insert(body.end(), reply.message.begin(), reply.message.end());
  return finish_frame(MsgType::kSuperviseReply, std::move(body));
}

RolloutReply decode_supervise_reply(const std::vector<uint8_t>& body) {
  Cursor c{body};
  RolloutReply reply;
  const uint8_t ok = c.take<uint8_t>("ok");
  if (ok > 1) {
    throw ProtocolError("protocol: ok flag out of range");
  }
  reply.ok = ok != 0;
  const uint32_t message_len = c.take<uint32_t>("message_len");
  reply.message = c.take_string(message_len, "message");
  c.done("SuperviseReply");
  return reply;
}

void FrameReader::feed(const uint8_t* data, size_t n) {
  // Compact the buffer once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  if (buf_.size() - consumed_ + n > kMaxBufferedBytes) {
    throw ProtocolError(
        "protocol: peer exceeded the frame buffer limit "
        "(pipelined frames faster than they were consumed)");
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameReader::next() {
  const size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  uint32_t payload = 0;
  std::memcpy(&payload, buf_.data() + consumed_, 4);
  if (payload == 0) throw ProtocolError("protocol: zero-length frame");
  if (payload > kMaxFrameBytes) {
    throw ProtocolError("protocol: frame length " +
                        std::to_string(payload) + " exceeds limit");
  }
  if (avail < 4 + static_cast<size_t>(payload)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(buf_[consumed_ + 4]);
  frame.body.assign(buf_.begin() + static_cast<ptrdiff_t>(consumed_ + 5),
                    buf_.begin() +
                        static_cast<ptrdiff_t>(consumed_ + 4 + payload));
  consumed_ += 4 + payload;
  return frame;
}

}  // namespace qsnc::serve
