// Listener/connector abstraction under the serving socket layer: the same
// length-prefixed protocol (protocol.h) runs over either an AF_UNIX
// stream socket or a TCP socket. Endpoints are spelled
//
//   unix:/path/to.sock     — AF_UNIX stream socket at that path
//   tcp:host:port          — TCP on host:port (port 0 = ephemeral; read
//                            the bound port back with local_endpoint())
//   /bare/path             — shorthand for unix:/bare/path
//
// listen_on()/connect_to() hide the address-family differences (stale
// unix socket unlink, SO_REUSEADDR, TCP_NODELAY for the small
// request/response frames) and return plain fds, so SocketServer,
// SocketClient, and the router tier all share one code path. The
// deadline-bounded frame I/O helpers at the bottom are what the router
// uses to talk to backends without ever blocking a handler thread
// forever on a dead peer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace qsnc::serve {

enum class EndpointKind : uint8_t { kUnix = 0, kTcp = 1 };

struct Endpoint {
  EndpointKind kind = EndpointKind::kUnix;
  std::string path;    // unix socket path (kUnix)
  std::string host;    // numeric or resolvable host (kTcp)
  uint16_t port = 0;   // kTcp; 0 asks the kernel for an ephemeral port

  /// Canonical spelling ("unix:/x" | "tcp:host:port").
  std::string str() const;

  bool operator==(const Endpoint& other) const {
    return kind == other.kind && path == other.path &&
           host == other.host && port == other.port;
  }
};

/// Parses "unix:/path", "tcp:host:port", or a bare "/path" (treated as
/// unix). Throws std::invalid_argument on anything else (bad port,
/// missing host, unknown scheme).
Endpoint parse_endpoint(const std::string& spec);

/// Parses a comma-separated endpoint list ("tcp:a:1,unix:/b"). Throws on
/// an empty list or any malformed element.
std::vector<Endpoint> parse_endpoint_list(const std::string& csv);

/// Binds + listens. Unlinks a stale unix socket file first; sets
/// SO_REUSEADDR for tcp. Throws std::runtime_error on failure.
int listen_on(const Endpoint& endpoint, int backlog);

/// The endpoint a listening fd is actually bound to — resolves an
/// ephemeral tcp port (port 0) to the kernel-assigned one.
Endpoint local_endpoint(int listen_fd, const Endpoint& requested);

/// Blocking connect. Sets TCP_NODELAY on tcp sockets (the protocol is
/// small request/response frames; Nagle only adds latency). Throws
/// std::runtime_error on failure.
int connect_to(const Endpoint& endpoint);

// ---------------------------------------------------------------------------
// Deadline-bounded frame I/O (router <-> backend plumbing)
// ---------------------------------------------------------------------------

/// Writes all of `bytes` within `timeout_ms` (0 = no deadline), polling
/// for writability instead of blocking. Returns false on a hit deadline
/// or a dead peer.
bool write_with_deadline(int fd, const std::vector<uint8_t>& bytes,
                         int64_t timeout_ms);

/// Reads until `reader` yields one complete frame or `timeout_ms`
/// elapses (0 = no deadline). Returns nullopt on deadline, EOF, or a
/// socket error; throws ProtocolError on malformed framing (caller
/// decides whether that drops the connection).
std::optional<Frame> read_frame_with_deadline(int fd, FrameReader& reader,
                                              int64_t timeout_ms);

}  // namespace qsnc::serve
