// Protocol robustness fuzz: thousands of seeded adversarial byte streams
// against the FrameReader and every decoder. The contract under attack:
// arbitrary peer bytes may produce ProtocolError, never a crash, never
// another exception type, never an unbounded allocation. Deterministic
// (fixed SplitMix64 seed), so a failure reproduces exactly; the asan CI
// job runs this same binary to promote "no crash" to "no UB".
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace qsnc::serve {
namespace {

// Local counter-mode SplitMix64: the test's only randomness source, fully
// determined by kFuzzSeed.
constexpr uint64_t kFuzzSeed = 0x5eedf00dULL;

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class FuzzRng {
 public:
  explicit FuzzRng(uint64_t stream) : stream_(splitmix64(kFuzzSeed ^ stream)) {}

  uint64_t next() { return splitmix64(stream_ ^ counter_++); }
  /// Uniform in [0, bound).
  uint64_t below(uint64_t bound) { return bound == 0 ? 0 : next() % bound; }

  std::vector<uint8_t> bytes(size_t n) {
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(next());
    }
    return out;
  }

 private:
  uint64_t stream_;
  uint64_t counter_ = 0;
};

/// Runs one decoder over a body, asserting the only escape is
/// ProtocolError. Returns true when the body decoded cleanly.
template <typename Fn>
bool only_protocol_error(Fn&& decode, const std::string& what) {
  try {
    decode();
    return true;
  } catch (const ProtocolError&) {
    return false;  // the allowed outcome for garbage
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " escaped with non-ProtocolError: " << e.what();
    return false;
  }
}

InferRequest valid_request() {
  InferRequest request;
  request.id = 77;
  request.deadline_us = 1234;
  request.priority = Priority::kCanary;
  request.model = "lenet-mini";
  request.image = nn::Tensor({1, 4, 4}, 0.5f);
  return request;
}

InferResponse valid_response() {
  InferResponse response;
  response.id = 77;
  response.response.status = Status::kShedded;
  response.response.prediction = 3;
  response.response.latency_us = 100;
  response.response.retry_after_us = 50;
  response.response.batch_size = 4;
  response.response.error = "shed: queue delay over target";
  return response;
}

ForwardedInfer valid_forward() {
  ForwardedInfer forward;
  forward.route_hash = 0xdeadbeefcafef00dULL;
  forward.request = valid_request();
  forward.request.session = "session-9";
  return forward;
}

LoadVersionRequest valid_load() {
  LoadVersionRequest load;
  load.name = "lenet-mini@v2";
  load.architecture = "lenet-mini";
  load.backend_kind = "fp32";
  load.bits = 4;
  load.init_seed = 99;
  load.state = {1, 2, 3, 4, 5, 6, 7, 8};
  return load;
}

HealthAck valid_versioned_ack() {
  HealthAck ack;
  ack.nonce = 4242;
  ack.healthy = true;
  ack.queue_depth = 3;
  ack.versions = {{"lenet-mini", "v2"}, {"alexnet-mini", ""}};
  return ack;
}

/// Dispatches a decoded frame to its body decoder, mirroring what the
/// serving and router handlers do (unknown types drop the connection).
void decode_by_type(const Frame& frame) {
  switch (frame.type) {
    case MsgType::kInferRequest:
      (void)decode_infer_request(frame.body);
      break;
    case MsgType::kInferResponse:
      (void)decode_infer_response(frame.body);
      break;
    case MsgType::kStatsResponse:
      (void)decode_stats_response(frame.body);
      break;
    case MsgType::kHello:
      (void)decode_hello(frame.body);
      break;
    case MsgType::kHelloAck:
      (void)decode_hello_ack(frame.body);
      break;
    case MsgType::kHealthProbe:
      (void)decode_health_probe(frame.body);
      break;
    case MsgType::kHealthAck:
      (void)decode_health_ack(frame.body);
      break;
    case MsgType::kForwardInfer:
      (void)decode_forward_infer(frame.body);
      break;
    case MsgType::kLoadVersion:
      (void)decode_load_version(frame.body);
      break;
    case MsgType::kPromote:
      (void)decode_promote(frame.body);
      break;
    case MsgType::kRollback:
      (void)decode_rollback(frame.body);
      break;
    case MsgType::kRolloutStatus:
      (void)decode_rollout_status(frame.body);
      break;
    case MsgType::kRolloutReply:
      (void)decode_rollout_reply(frame.body);
      break;
    case MsgType::kSuperviseCommand:
      (void)decode_supervise_command(frame.body);
      break;
    case MsgType::kSuperviseReply:
      (void)decode_supervise_reply(frame.body);
      break;
    default:
      break;
  }
}

TEST(ProtocolFuzzTest, RandomBodiesNeverEscapeTheDecoders) {
  int decoded_ok = 0;
  for (uint64_t i = 0; i < 1500; ++i) {
    FuzzRng rng(i);
    const std::vector<uint8_t> body =
        rng.bytes(static_cast<size_t>(rng.below(200)));
    if (only_protocol_error([&] { (void)decode_infer_request(body); },
                            "decode_infer_request")) {
      ++decoded_ok;
    }
    only_protocol_error([&] { (void)decode_infer_response(body); },
                        "decode_infer_response");
    only_protocol_error([&] { (void)decode_stats_response(body); },
                        "decode_stats_response");
    only_protocol_error([&] { (void)decode_hello(body); }, "decode_hello");
    only_protocol_error([&] { (void)decode_hello_ack(body); },
                        "decode_hello_ack");
    only_protocol_error([&] { (void)decode_health_probe(body); },
                        "decode_health_probe");
    only_protocol_error([&] { (void)decode_health_ack(body); },
                        "decode_health_ack");
    only_protocol_error([&] { (void)decode_forward_infer(body); },
                        "decode_forward_infer");
    only_protocol_error([&] { (void)decode_load_version(body); },
                        "decode_load_version");
    only_protocol_error([&] { (void)decode_promote(body); },
                        "decode_promote");
    only_protocol_error([&] { (void)decode_rollback(body); },
                        "decode_rollback");
    only_protocol_error([&] { (void)decode_rollout_status(body); },
                        "decode_rollout_status");
    only_protocol_error([&] { (void)decode_rollout_reply(body); },
                        "decode_rollout_reply");
  }
  // Pure noise parsing as a full InferRequest would be suspicious.
  EXPECT_EQ(decoded_ok, 0);
}

TEST(ProtocolFuzzTest, EveryTruncationOfAValidBodyIsAProtocolError) {
  const std::vector<uint8_t> frame = encode_infer_request(valid_request());
  // Strip the 4-byte length prefix and 1-byte type tag: what decoders see.
  const std::vector<uint8_t> body(frame.begin() + 5, frame.end());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    const std::vector<uint8_t> truncated(body.begin(),
                                         body.begin() +
                                             static_cast<ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_infer_request(truncated), ProtocolError)
        << "cut at " << cut;
  }
  EXPECT_EQ(decode_infer_request(body).id, 77u);  // the untruncated body

  const std::vector<uint8_t> rframe =
      encode_infer_response(valid_response());
  const std::vector<uint8_t> rbody(rframe.begin() + 5, rframe.end());
  for (size_t cut = 0; cut < rbody.size(); ++cut) {
    const std::vector<uint8_t> truncated(
        rbody.begin(), rbody.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_infer_response(truncated), ProtocolError)
        << "cut at " << cut;
  }
  EXPECT_EQ(decode_infer_response(rbody).response.status, Status::kShedded);

  // The v4 frames obey the same contract.
  const std::vector<uint8_t> fframe = encode_forward_infer(valid_forward());
  const std::vector<uint8_t> fbody(fframe.begin() + 5, fframe.end());
  for (size_t cut = 0; cut < fbody.size(); ++cut) {
    const std::vector<uint8_t> truncated(
        fbody.begin(), fbody.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_forward_infer(truncated), ProtocolError)
        << "cut at " << cut;
  }
  EXPECT_EQ(decode_forward_infer(fbody).request.session, "session-9");

  HealthAck ack;
  ack.nonce = 42;
  ack.healthy = true;
  ack.queue_depth = 9;
  const std::vector<uint8_t> aframe = encode_health_ack(ack);
  const std::vector<uint8_t> abody(aframe.begin() + 5, aframe.end());
  for (size_t cut = 0; cut < abody.size(); ++cut) {
    const std::vector<uint8_t> truncated(
        abody.begin(), abody.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_health_ack(truncated), ProtocolError)
        << "cut at " << cut;
  }
  EXPECT_EQ(decode_health_ack(abody).queue_depth, 9u);

  const std::vector<uint8_t> hframe = encode_hello(Hello{});
  const std::vector<uint8_t> hbody(hframe.begin() + 5, hframe.end());
  for (size_t cut = 0; cut < hbody.size(); ++cut) {
    const std::vector<uint8_t> truncated(
        hbody.begin(), hbody.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_hello(truncated), ProtocolError)
        << "cut at " << cut;
  }
  EXPECT_EQ(decode_hello(hbody).version, kProtocolVersion);
}

TEST(ProtocolFuzzTest, MutatedValidFramesNeverEscape) {
  // One exemplar per frame family, including the v4 additions.
  const std::vector<std::vector<uint8_t>> exemplars = {
      encode_infer_request(valid_request()),
      encode_infer_response(valid_response()),
      encode_forward_infer(valid_forward()),
      encode_hello(Hello{}),
      encode_hello_ack(HelloAck{kProtocolVersion, true}),
      encode_health_probe(HealthProbe{123}),
      encode_health_ack(HealthAck{123, true, 7, {}}),
      // The v5 model-lifecycle frames (mutations hit the version strings,
      // the state length, and the checkpoint bytes alike).
      encode_load_version(valid_load()),
      encode_promote(RolloutCommand{"lenet-mini@v2", ""}),
      encode_rollback(RolloutCommand{"lenet-mini@v2", "operator says no"}),
      encode_rollout_status(RolloutCommand{"", ""}),
      encode_rollout_reply(RolloutReply{true, "rollout: promoted"}),
      encode_health_ack(valid_versioned_ack()),
      encode_supervise_command(SuperviseCommand{"release", "backend-a"}),
      encode_supervise_reply(RolloutReply{true, "lane released"}),
  };
  for (uint64_t i = 0; i < 1000; ++i) {
    FuzzRng rng(0x1000 + i);
    std::vector<uint8_t> mutated =
        exemplars[static_cast<size_t>(rng.below(exemplars.size()))];
    const size_t flips = 1 + static_cast<size_t>(rng.below(8));
    for (size_t f = 0; f < flips; ++f) {
      mutated[static_cast<size_t>(rng.below(mutated.size()))] ^=
          static_cast<uint8_t>(1 + rng.below(255));
    }
    FrameReader reader;
    only_protocol_error(
        [&] {
          reader.feed(mutated.data(), mutated.size());
          while (auto f = reader.next()) {
            decode_by_type(*f);
          }
        },
        "mutated frame");
  }
}

TEST(ProtocolFuzzTest, RandomStreamsThroughTheFrameReaderInRandomChunks) {
  for (uint64_t i = 0; i < 1000; ++i) {
    FuzzRng rng(0x2000 + i);
    const std::vector<uint8_t> blob =
        rng.bytes(16 + static_cast<size_t>(rng.below(400)));
    FrameReader reader;
    only_protocol_error(
        [&] {
          size_t at = 0;
          while (at < blob.size()) {
            const size_t chunk = std::min<size_t>(
                1 + static_cast<size_t>(rng.below(64)), blob.size() - at);
            reader.feed(blob.data() + at, chunk);
            at += chunk;
            while (auto f = reader.next()) {
              (void)f;
            }
          }
        },
        "random stream");
  }
}

TEST(ProtocolFuzzTest, OversizeAndZeroLengthPrefixesAreRejected) {
  {
    // Length prefix far beyond kMaxFrameBytes: must throw before any
    // gigabyte allocation happens.
    FrameReader reader;
    const uint32_t huge = kMaxFrameBytes + 1;
    uint8_t prefix[5] = {0, 0, 0, 0, 1};
    std::memcpy(prefix, &huge, 4);
    reader.feed(prefix, sizeof(prefix));
    EXPECT_THROW((void)reader.next(), ProtocolError);
  }
  {
    FrameReader reader;
    const uint8_t zeros[4] = {0, 0, 0, 0};
    reader.feed(zeros, sizeof(zeros));
    EXPECT_THROW((void)reader.next(), ProtocolError);
  }
}

TEST(ProtocolFuzzTest, OverflowingTensorDimsAreRejectedNotAllocated) {
  // rank 2 with ~2^31 x 2^31 dims: numel * sizeof(float) wraps u64 to a
  // small number; the per-dim bound must catch it before the allocation.
  std::vector<uint8_t> body;
  const auto put_u = [&](auto v) {
    const size_t at = body.size();
    body.resize(at + sizeof(v));
    std::memcpy(body.data() + at, &v, sizeof(v));
  };
  put_u(static_cast<uint64_t>(1));   // id
  put_u(static_cast<uint64_t>(0));   // deadline_us
  put_u(static_cast<uint8_t>(2));    // priority (interactive)
  put_u(static_cast<uint16_t>(0));   // session_len (v4, empty)
  put_u(static_cast<uint16_t>(1));   // model_len
  body.push_back('m');
  put_u(static_cast<uint8_t>(2));    // rank
  put_u(static_cast<uint32_t>(1u << 31));
  put_u(static_cast<uint32_t>(1u << 31));
  EXPECT_THROW((void)decode_infer_request(body), ProtocolError);
}

TEST(ProtocolFuzzTest, FrameReaderBoundsItsBufferAgainstPipelineSpam) {
  FrameReader reader;
  // A peer that streams one enormous "frame" the reader can never
  // complete: feed() must throw at the buffer cap, not grow forever.
  const std::vector<uint8_t> chunk(1u << 20, 0x41);
  uint32_t len = kMaxFrameBytes;  // a maximal (but legal) length prefix
  std::vector<uint8_t> first(chunk);
  std::memcpy(first.data(), &len, 4);
  EXPECT_THROW(
      {
        reader.feed(first.data(), first.size());
        for (int i = 0; i < 80; ++i) {
          reader.feed(chunk.data(), chunk.size());
          (void)reader.next();
        }
      },
      ProtocolError);
}

TEST(ProtocolFuzzTest, TcpLoopbackFramingObeysTheSameContract) {
  // The framing contract must hold over a real TCP stream, where the
  // kernel re-chunks writes arbitrarily: valid frames survive byte-exact,
  // and garbage after them still only ever raises ProtocolError.
  const Endpoint requested = parse_endpoint("tcp:127.0.0.1:0");
  const int listen_fd = listen_on(requested, 4);
  const Endpoint bound = local_endpoint(listen_fd, requested);
  ASSERT_NE(bound.port, 0);
  const int client = connect_to(bound);
  const int server = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server, 0);

  const std::vector<uint8_t> request_frame =
      encode_infer_request(valid_request());
  const std::vector<uint8_t> forward_frame =
      encode_forward_infer(valid_forward());
  FuzzRng rng(0x7c9);
  std::vector<uint8_t> garbage = rng.bytes(64);
  garbage[4] = 200;  // certainly not a known MsgType

  ASSERT_TRUE(write_with_deadline(client, request_frame, 2000));
  ASSERT_TRUE(write_with_deadline(client, forward_frame, 2000));
  ASSERT_TRUE(write_with_deadline(client, garbage, 2000));

  FrameReader reader;
  const std::optional<Frame> first =
      read_frame_with_deadline(server, reader, 2000);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kInferRequest);
  // Byte-exact: re-encoding the decoded request reproduces the frame.
  EXPECT_EQ(encode_infer_request(decode_infer_request(first->body)),
            request_frame);
  const std::optional<Frame> second =
      read_frame_with_deadline(server, reader, 2000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MsgType::kForwardInfer);
  EXPECT_EQ(encode_forward_infer(decode_forward_infer(second->body)),
            forward_frame);
  // The garbage tail: whatever happens, only ProtocolError may escape.
  only_protocol_error(
      [&] {
        for (int i = 0; i < 4; ++i) {
          if (auto f = read_frame_with_deadline(server, reader, 200)) {
            decode_by_type(*f);
          } else {
            break;
          }
        }
      },
      "tcp garbage tail");

  ::close(client);
  ::close(server);
  ::close(listen_fd);
}

TEST(ProtocolFuzzTest, EveryTruncationOfAV5FrameIsAProtocolError) {
  const std::vector<std::vector<uint8_t>> frames = {
      encode_load_version(valid_load()),
      encode_promote(RolloutCommand{"lenet-mini@v2", ""}),
      encode_rollback(RolloutCommand{"lenet-mini@v2", "divergence"}),
      encode_rollout_status(RolloutCommand{"lenet-mini", ""}),
      encode_rollout_reply(RolloutReply{false, "load: checksum mismatch"}),
      encode_health_ack(valid_versioned_ack()),
      // v6 supervisor control frames ride the same discipline.
      encode_supervise_command(SuperviseCommand{"release", "backend-a"}),
      encode_supervise_reply(
          RolloutReply{false, "lane 'backend-a' is not quarantined"}),
  };
  for (const std::vector<uint8_t>& frame : frames) {
    const std::vector<uint8_t> body(frame.begin() + 5, frame.end());
    const MsgType type = static_cast<MsgType>(frame[4]);
    for (size_t cut = 0; cut < body.size(); ++cut) {
      const std::vector<uint8_t> truncated(
          body.begin(), body.begin() + static_cast<ptrdiff_t>(cut));
      Frame f{type, truncated};
      EXPECT_THROW(decode_by_type(f), ProtocolError)
          << "type " << static_cast<int>(type) << " cut at " << cut;
    }
    Frame whole{type, body};
    decode_by_type(whole);  // the untruncated body must decode
  }
  // Round-trip spot checks on the untruncated bodies.
  {
    const std::vector<uint8_t> frame = encode_load_version(valid_load());
    const std::vector<uint8_t> body(frame.begin() + 5, frame.end());
    const LoadVersionRequest decoded = decode_load_version(body);
    EXPECT_EQ(decoded.name, "lenet-mini@v2");
    EXPECT_EQ(decoded.state, valid_load().state);
  }
  {
    const std::vector<uint8_t> frame =
        encode_health_ack(valid_versioned_ack());
    const std::vector<uint8_t> body(frame.begin() + 5, frame.end());
    EXPECT_EQ(decode_health_ack(body).versions,
              valid_versioned_ack().versions);
  }
}

TEST(ProtocolFuzzTest, MutatedVersionStringsNeverEscapeTheDecoders) {
  // Concentrated fire on the string fields of the lifecycle frames: every
  // byte of the name/reason regions xored through all 255 alternatives.
  const std::vector<uint8_t> lframe = encode_load_version(valid_load());
  const std::vector<uint8_t> rframe =
      encode_rollback(RolloutCommand{"lenet-mini@v2", "why"});
  for (const std::vector<uint8_t>* frame : {&lframe, &rframe}) {
    for (size_t at = 5; at < frame->size(); ++at) {
      for (uint64_t x = 1; x < 256; x += 37) {  // sampled, deterministic
        std::vector<uint8_t> body(frame->begin() + 5, frame->end());
        body[at - 5] ^= static_cast<uint8_t>(x);
        const MsgType type = static_cast<MsgType>((*frame)[4]);
        Frame f{type, body};
        only_protocol_error([&] { decode_by_type(f); },
                            "mutated version string");
      }
    }
  }
}

TEST(ProtocolFuzzTest, UnhandshakenControlFramesDropTheConnection) {
  // The handshake gate lives in SocketServer::handle_connection, so a
  // no-op handler suffices: a control frame before kHello must raise
  // ProtocolError server-side, observed here as a dropped connection.
  struct NopHandler : FrameHandler {
    bool handle(const Frame&, FrameSink&) override { return true; }
  };
  NopHandler handler;
  SocketServer server(handler, parse_endpoint("tcp:127.0.0.1:0"),
                      SocketServerOptions{});
  const std::vector<std::vector<uint8_t>> control = {
      encode_load_version(valid_load()),
      encode_promote(RolloutCommand{"m@v2", ""}),
      encode_rollback(RolloutCommand{"m@v2", "r"}),
      encode_rollout_status(RolloutCommand{"", ""}),
      encode_supervise_command(SuperviseCommand{"status", ""}),
  };
  for (const std::vector<uint8_t>& frame : control) {
    const int fd = connect_to(server.endpoint());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_with_deadline(fd, frame, 2000));
    // The server must close on us without answering.
    uint8_t byte = 0;
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "expected EOF, got a reply";
    ::close(fd);
  }
  // Control: the same frame after a handshake is accepted (the no-op
  // handler swallows it; the connection stays open).
  {
    const int fd = connect_to(server.endpoint());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_with_deadline(fd, encode_hello(Hello{}), 2000));
    ASSERT_TRUE(write_with_deadline(
        fd, encode_rollout_status(RolloutCommand{"", ""}), 2000));
    pollfd pfd{fd, POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 300), 0) << "connection unexpectedly closed";
    ::close(fd);
  }
}

TEST(ProtocolFuzzTest, PriorityAndStatusRangeChecks) {
  // Out-of-range priority byte in an otherwise valid request.
  std::vector<uint8_t> frame = encode_infer_request(valid_request());
  frame[4 + 1 + 8 + 8] = 7;  // header | id | deadline -> priority byte
  const std::vector<uint8_t> body(frame.begin() + 5, frame.end());
  EXPECT_THROW((void)decode_infer_request(body), ProtocolError);

  std::vector<uint8_t> rframe = encode_infer_response(valid_response());
  rframe[4 + 1 + 8] = 99;  // header | id -> status byte
  const std::vector<uint8_t> rbody(rframe.begin() + 5, rframe.end());
  EXPECT_THROW((void)decode_infer_response(rbody), ProtocolError);
}

}  // namespace
}  // namespace qsnc::serve
