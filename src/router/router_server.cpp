#include "router/router_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "router/hedging.h"
#include "serve/model_registry.h"

namespace qsnc::router {

using serve::Frame;
using serve::MsgType;

namespace {

int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Router::Router(BackendPool& pool, const RouterOptions& options)
    : pool_(pool), ring_(pool.labels(), options.vnodes), options_(options) {}

bool Router::handle(const Frame& frame, serve::FrameSink& sink) {
  switch (frame.type) {
    case MsgType::kInferRequest:
      return handle_infer(serve::decode_infer_request(frame.body), sink);
    case MsgType::kForwardInfer:
      // A router behind a router: re-route by the request alone.
      return handle_infer(
          serve::decode_forward_infer(frame.body).request, sink);
    case MsgType::kStatsRequest:
      return sink.send(serve::encode_stats_response(stats_report()));
    case MsgType::kHello: {
      const serve::Hello hello = serve::decode_hello(frame.body);
      serve::HelloAck ack;
      ack.version = serve::kProtocolVersion;
      ack.accepted = hello.version == serve::kProtocolVersion;
      return sink.send(serve::encode_hello_ack(ack));
    }
    case MsgType::kHealthProbe: {
      const serve::HealthProbe probe =
          serve::decode_health_probe(frame.body);
      serve::HealthAck ack;
      ack.nonce = probe.nonce;
      ack.healthy = true;
      ack.queue_depth = 0;  // the router holds no queue; backends do
      return sink.send(serve::encode_health_ack(ack));
    }
    default:
      throw serve::ProtocolError("unexpected message type");
  }
}

bool Router::handle_infer(serve::InferRequest request,
                          serve::FrameSink& sink) {
  ++requests_;
  const int64_t arrival_us = now_us();
  // Sticky sessions pin to hash(base model, session); hashing the *base*
  // (not the possibly-versioned spelling) means "lenet" and "lenet@v2"
  // land on the same backend, and a version flip during a rollout never
  // moves a sticky session. Sessionless requests spray over the ring
  // with a counter so one hot model still uses the whole fleet.
  const std::string base = serve::base_model_name(request.model);
  uint64_t rh = 0;
  if (request.session.empty()) {
    // Appended rather than `"\x01" + std::to_string(...)`: GCC 12 at -O3
    // reports a false -Wrestrict overlap inside that operator+.
    std::string spray(1, '\x01');
    spray += std::to_string(spread_.fetch_add(1));
    rh = route_hash(base, spray);
  } else {
    rh = route_hash(base, request.session);
  }
  const std::vector<size_t> candidates = ring_.pick_n(rh, pool_.size());

  serve::ForwardedInfer forward;
  forward.route_hash = rh;
  forward.request = std::move(request);
  // The request's deadline_us is its latency budget from enqueue; the
  // backend restarts that budget when it enqueues, so the router must
  // hand over only what is left after its own elapsed time (encoded per
  // attempt below). Deadline-less requests encode once here.
  const uint64_t total_deadline_us = forward.request.deadline_us;
  std::vector<uint8_t> wire;
  if (total_deadline_us == 0) {
    wire = serve::encode_forward_infer(forward);
  }

  // Usable candidates first (ring order preserved); the rest still get a
  // last-resort attempt in case the prober's verdict is stale.
  std::vector<size_t> ordered;
  ordered.reserve(candidates.size());
  for (const size_t c : candidates) {
    if (pool_.usable(c, now_us())) ordered.push_back(c);
  }
  const size_t usable = ordered.size();
  for (const size_t c : candidates) {
    if (std::find(ordered.begin(), ordered.end(), c) == ordered.end()) {
      ordered.push_back(c);
    }
  }

  const bool hedge = should_hedge(options_.hedge_after_us,
                                  forward.request.priority, usable);
  serve::InferResponse response;
  for (size_t attempt = 0; attempt < ordered.size(); ++attempt) {
    const size_t target = ordered[attempt];
    int64_t attempt_timeout_ms = options_.forward_timeout_ms;
    if (total_deadline_us > 0) {
      // Cross-hop deadline: decrement the router's own elapsed time from
      // the budget before forwarding, so hops cannot stack full budgets.
      // A spent budget answers kDeadlineExceeded instead of burning a
      // backend slot on an answer the client has given up on.
      const int64_t elapsed_us = now_us() - arrival_us;
      const int64_t remaining_us =
          static_cast<int64_t>(total_deadline_us) - elapsed_us;
      if (remaining_us <= 0) {
        ++deadline_exceeded_;
        response.id = forward.request.id;
        response.response = serve::Response{};
        response.response.status = serve::Status::kDeadlineExceeded;
        response.response.error = "router: deadline exhausted after " +
                                  std::to_string(elapsed_us) + "us";
        return sink.send(serve::encode_infer_response(response));
      }
      forward.request.deadline_us = static_cast<uint64_t>(remaining_us);
      wire = serve::encode_forward_infer(forward);
      attempt_timeout_ms = std::max<int64_t>(
          1, std::min<int64_t>(attempt_timeout_ms, remaining_us / 1000));
    }
    // Hedge partner: the next usable candidate after this attempt.
    const int partner =
        hedge && attempt + 1 < usable ? static_cast<int>(ordered[attempt + 1])
                                      : -1;
    if (forward_attempt(target, partner, forward.request, wire,
                        attempt_timeout_ms, response)) {
      if (attempt > 0) ++rerouted_;
      return sink.send(serve::encode_infer_response(response));
    }
    pool_.note_reroute_away(target);
    if (attempt + 1 < ordered.size()) {
      // Moving on costs one of the *failing* backend's retry tokens: a
      // flapping backend spends its own budget, and when it is dry the
      // request sheds instead of amplifying load onto its neighbors.
      int64_t retry_after_us = 0;
      if (!pool_.take_retry_token(target, now_us(), &retry_after_us)) {
        ++budget_shed_;
        response.id = forward.request.id;
        response.response = serve::Response{};
        response.response.status = serve::Status::kShedded;
        response.response.retry_after_us =
            static_cast<uint64_t>(retry_after_us);
        response.response.error = "router: retry budget exhausted for " +
                                  pool_.endpoint(target).str();
        return sink.send(serve::encode_infer_response(response));
      }
    }
  }

  // Every backend failed: a structured error beats a hung client.
  ++exhausted_;
  response.id = forward.request.id;
  response.response = serve::Response{};
  response.response.status = serve::Status::kError;
  response.response.error = "router: no backend available";
  return sink.send(serve::encode_infer_response(response));
}

bool Router::forward_attempt(size_t backend, int hedge_backend,
                             const serve::InferRequest& request,
                             const std::vector<uint8_t>& wire,
                             int64_t attempt_timeout_ms,
                             serve::InferResponse& response) {
  auto validate = [&](const Frame& frame) -> bool {
    if (frame.type != MsgType::kInferResponse) return false;
    try {
      serve::InferResponse decoded =
          serve::decode_infer_response(frame.body);
      if (decoded.id != request.id) return false;
      response = std::move(decoded);
      return true;
    } catch (const serve::ProtocolError&) {
      return false;
    }
  };

  // Ordering used the non-mutating usable(); only a real attempt drives
  // the breaker state machine. admit() may consume the half-open probe
  // slot, and every path below resolves it via record_success/
  // record_failure, so the slot can never leak. Its verdict is advisory:
  // this backend was already chosen (usable or last-resort).
  (void)pool_.admit(backend, now_us());
  auto conn = pool_.checkout(backend);
  if (conn == nullptr) {
    pool_.record_failure(backend, now_us());
    return false;
  }
  pool_.note_forward(backend);
  if (!serve::write_with_deadline(conn->fd, wire, attempt_timeout_ms)) {
    pool_.record_failure(backend, now_us());
    return false;  // conn closed with scope
  }

  // First wait: the full budget without hedging, else the hedge trigger
  // (never beyond the attempt budget).
  const int64_t first_wait_ms =
      hedge_backend < 0
          ? attempt_timeout_ms
          : std::max<int64_t>(
                1, std::min<int64_t>(options_.hedge_after_us / 1000,
                                     attempt_timeout_ms));
  std::optional<Frame> frame;
  try {
    frame = serve::read_frame_with_deadline(conn->fd, conn->reader,
                                            first_wait_ms);
  } catch (const serve::ProtocolError&) {
    pool_.record_failure(backend, now_us());
    return false;
  }
  if (frame) {
    if (!validate(*frame)) {
      pool_.record_failure(backend, now_us());
      return false;
    }
    pool_.record_success(backend);
    pool_.checkin(backend, std::move(conn));
    return true;
  }
  if (hedge_backend < 0) {
    pool_.record_failure(backend, now_us());  // full-budget timeout
    return false;
  }

  // Primary is quiet past the hedge trigger: duplicate to the partner and
  // race the two responses.
  const size_t hb = static_cast<size_t>(hedge_backend);
  auto hedge_conn = pool_.checkout(hb);
  if (hedge_conn != nullptr) {
    pool_.note_forward(hb);
    pool_.note_hedge(hb);
    ++hedged_;
    if (!serve::write_with_deadline(hedge_conn->fd, wire,
                                    attempt_timeout_ms)) {
      // The duplicate never reached the hedge backend: charge its breaker
      // and failure counter before falling back to the primary alone.
      pool_.record_failure(hb, now_us());
      hedge_conn.reset();
    }
  }
  if (hedge_conn == nullptr) {
    // Could not hedge after all: keep waiting on the primary alone.
    try {
      frame = serve::read_frame_with_deadline(conn->fd, conn->reader,
                                              attempt_timeout_ms);
    } catch (const serve::ProtocolError&) {
      frame.reset();
    }
    if (frame && validate(*frame)) {
      pool_.record_success(backend);
      pool_.checkin(backend, std::move(conn));
      return true;
    }
    pool_.record_failure(backend, now_us());
    return false;
  }

  const RaceResult race =
      race_frames(*conn, *hedge_conn, attempt_timeout_ms);
  if (race.frame && validate(*race.frame)) {
    const size_t winner = race.winner == 0 ? backend : hb;
    if (race.winner == 1) ++hedge_wins_;
    pool_.record_success(winner);
    // The winner's connection is clean only if its reader is empty; the
    // loser is mid-response and must be dropped either way.
    if (race.winner == 0) {
      pool_.checkin(backend, std::move(conn));
    } else {
      pool_.checkin(hb, std::move(hedge_conn));
    }
    return true;
  }
  // Neither answered in time.
  pool_.record_failure(backend, now_us());
  pool_.record_failure(hb, now_us());
  return false;
}

std::string Router::stats_report() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "router: %llu requests, %llu rerouted, %llu hedged "
                "(%llu hedge wins), %llu exhausted, %llu deadline, "
                "%llu budget-shed\n",
                static_cast<unsigned long long>(requests_.load()),
                static_cast<unsigned long long>(rerouted_.load()),
                static_cast<unsigned long long>(hedged_.load()),
                static_cast<unsigned long long>(hedge_wins_.load()),
                static_cast<unsigned long long>(exhausted_.load()),
                static_cast<unsigned long long>(deadline_exceeded_.load()),
                static_cast<unsigned long long>(budget_shed_.load()));
  std::string out = line;
  std::snprintf(line, sizeof(line),
                "%-28s %-4s %-8s %8s %6s %6s %6s %7s %7s %6s %6s\n",
                "backend", "up", "breaker", "fwd", "fail", "away",
                "hedge", "p_ok", "p_fail", "rshed", "depth");
  out += line;
  for (const BackendSnapshot& s : pool_.stats()) {
    const char* breaker =
        s.breaker == serve::CircuitBreaker::State::kClosed     ? "closed"
        : s.breaker == serve::CircuitBreaker::State::kOpen     ? "open"
                                                               : "half";
    std::snprintf(
        line, sizeof(line),
        "%-28s %-4s %-8s %8llu %6llu %6llu %6llu %7llu %7llu %6llu %6u",
        s.endpoint.c_str(), s.up ? "yes" : "NO", breaker,
        static_cast<unsigned long long>(s.forwards),
        static_cast<unsigned long long>(s.failures),
        static_cast<unsigned long long>(s.reroutes_away),
        static_cast<unsigned long long>(s.hedges),
        static_cast<unsigned long long>(s.probes_ok),
        static_cast<unsigned long long>(s.probes_failed),
        static_cast<unsigned long long>(s.retry_sheds),
        s.last_queue_depth);
    out += line;
    // Active-version labels from the latest health ack, e.g.
    // "lenet-mini@v2" (bare bases print without the @).
    for (const serve::ModelVersionLabel& label : s.versions) {
      out += " " + label.model +
             (label.version.empty() ? std::string() : "@" + label.version);
    }
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// RouterServer
// ---------------------------------------------------------------------------

RouterServer::RouterServer(const RouterOptions& options)
    : pool_(options),
      router_(pool_, options),
      prober_(pool_, options) {
  server_ = std::make_unique<serve::SocketServer>(router_, options.listen,
                                                  options.front);
}

RouterServer::~RouterServer() { stop(); }

void RouterServer::stop() {
  if (server_ != nullptr) server_->stop();
  prober_.stop();
}

void RouterServer::run_until_signal() {
  server_->run_until_signal();
  prober_.stop();
}

}  // namespace qsnc::router
