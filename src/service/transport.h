#pragma once

#include <string>
#include <string_view>

#include "support/intmath.h"
#include "support/status.h"

/// \file transport.h
/// Endpoint abstraction for the exploration service: the same CRC-framed
/// protocol (protocol.h) speaks over a Unix-domain socket or a TCP
/// socket, and every piece of the stack — server, client, router — is
/// written against an Endpoint instead of a socket path. Endpoint specs
/// are plain strings so CLI flags stay one token:
///
///   /tmp/dr.sock          Unix-domain socket (any spec with a '/')
///   unix:/tmp/dr.sock     Unix-domain socket, explicit
///   127.0.0.1:7070        TCP (host:port — a ':' and no '/')
///   tcp:localhost:7070    TCP, explicit
///
/// TCP listeners may bind port 0 to take an ephemeral port; the Listener
/// returned by listenOn carries the *resolved* endpoint (getsockname), so
/// a shard started on port 0 can be restarted on the concrete port it
/// first drew. Client-side specs must name a real port: parseEndpoint
/// rejects port 0 unless the caller passes allowEphemeralPort (listeners
/// do).
///
/// connectTo bounds the connect itself (non-blocking connect + poll), not
/// just the send/recv after it — a TCP peer behind a dropped-SYN black
/// hole costs connectTimeoutMs, never a kernel-default 2-minute hang.
/// TCP sockets run with TCP_NODELAY on both sides: every exchange is one
/// small framed request and one framed reply, exactly the shape Nagle
/// penalizes.

namespace dr::service::transport {

using dr::support::i64;

struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;  ///< Unix: socket path
  std::string host;  ///< TCP: hostname or dotted quad
  int port = 0;      ///< TCP: 0 only valid on a listener (ephemeral)
};

/// Canonical one-token rendering of an endpoint ("host:port" or the
/// socket path) — what log lines and ring keys use.
std::string toString(const Endpoint& ep);

/// Parse an endpoint spec (see the file comment for the accepted forms).
/// InvalidInput for an empty spec, an over-long Unix path, a missing or
/// non-numeric port, an out-of-range port, or — unless allowEphemeralPort
/// — port 0.
support::Expected<Endpoint> parseEndpoint(const std::string& spec,
                                          bool allowEphemeralPort = false);

/// A bound, listening socket. `bound` equals the requested endpoint with
/// an ephemeral TCP port resolved to the concrete one the kernel chose.
struct Listener {
  int fd = -1;
  Endpoint bound;
};

/// Bind + listen on `ep` (unlinking a stale Unix socket file first;
/// SO_REUSEADDR on TCP so a restarted shard can rebind its port while old
/// connections linger in TIME_WAIT). IoError with the endpoint in the
/// message on failure.
support::Expected<Listener> listenOn(const Endpoint& ep, int backlog = 64);

/// Connect to `ep` with the whole connect bounded by connectTimeoutMs
/// (<= 0 = kernel default). Returns the connected fd, in blocking mode,
/// with TCP_NODELAY set for TCP endpoints.
support::Expected<int> connectTo(const Endpoint& ep, i64 connectTimeoutMs);

/// Per-syscall socket timeouts (SO_RCVTIMEO / SO_SNDTIMEO); <= 0 leaves
/// the kernel default (unlimited).
void setRecvTimeoutMs(int fd, i64 ms);
void setSendTimeoutMs(int fd, i64 ms);

/// send() all of `bytes`, riding out EINTR; false on any other failure
/// (errno says which). MSG_NOSIGNAL: a peer that vanished mid-send
/// surfaces as EPIPE instead of killing the process.
bool sendAll(int fd, std::string_view bytes);

}  // namespace dr::service::transport
