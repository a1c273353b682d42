#include "service/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace dr::service::transport {

namespace {

using support::Expected;
using support::Status;
using support::StatusCode;

Status invalid(const std::string& what) {
  return Status::error(StatusCode::InvalidInput, "endpoint: " + what);
}

Status ioError(const std::string& what) {
  return Status::error(StatusCode::IoError,
                       what + ": " + std::strerror(errno));
}

/// Strict decimal port parse: the whole token must be digits and fit in
/// [0, 65535] — "70x", "", and "99999" all fail.
bool parsePort(const std::string& token, int& port) {
  if (token.empty() || token.size() > 5) return false;
  long value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value > 65535) return false;
  port = static_cast<int>(value);
  return true;
}

void setNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Resolve host:port to a sockaddr (IPv4; numeric or via the resolver for
/// names like "localhost").
Status resolveTcp(const Endpoint& ep, sockaddr_in& addr) {
  addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) == 1)
    return Status::ok();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(ep.host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr)
    return Status::error(StatusCode::InvalidInput,
                         "endpoint: cannot resolve host '" + ep.host +
                             "': " + ::gai_strerror(rc));
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return Status::ok();
}

Status bindUnix(int fd, const Endpoint& ep) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  ::unlink(ep.path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    return ioError("bind " + ep.path);
  return Status::ok();
}

}  // namespace

std::string toString(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::Unix) return ep.path;
  return ep.host + ":" + std::to_string(ep.port);
}

Expected<Endpoint> parseEndpoint(const std::string& spec,
                                 bool allowEphemeralPort) {
  std::string body = spec;
  bool forcedUnix = false;
  bool forcedTcp = false;
  if (body.rfind("unix:", 0) == 0) {
    forcedUnix = true;
    body = body.substr(5);
  } else if (body.rfind("tcp:", 0) == 0) {
    forcedTcp = true;
    body = body.substr(4);
  }
  if (body.empty()) return invalid("empty spec");

  const bool looksTcp =
      forcedTcp ||
      (!forcedUnix && body.find(':') != std::string::npos &&
       body.find('/') == std::string::npos);
  if (!looksTcp) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = body;
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path))
      return invalid("unix socket path too long: " + ep.path);
    return ep;
  }

  const std::size_t colon = body.rfind(':');
  if (colon == std::string::npos)
    return invalid("tcp spec '" + body + "' is missing a :port");
  Endpoint ep;
  ep.kind = Endpoint::Kind::Tcp;
  ep.host = body.substr(0, colon);
  if (ep.host.empty()) return invalid("tcp spec '" + body + "' has no host");
  const std::string portToken = body.substr(colon + 1);
  if (!parsePort(portToken, ep.port))
    return invalid("bad port '" + portToken + "' in '" + body + "'");
  if (ep.port == 0 && !allowEphemeralPort)
    return invalid("port 0 in '" + body +
                   "' (ephemeral ports are listen-only)");
  return ep;
}

Expected<Listener> listenOn(const Endpoint& ep, int backlog) {
  const int family = ep.kind == Endpoint::Kind::Unix ? AF_UNIX : AF_INET;
  int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) return ioError("socket");

  Status bound = [&]() -> Status {
    if (ep.kind == Endpoint::Kind::Unix) return bindUnix(fd, ep);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    if (Status st = resolveTcp(ep, addr); !st.isOk()) return st;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      return ioError("bind " + toString(ep));
    return Status::ok();
  }();
  if (!bound.isOk()) {
    ::close(fd);
    return bound;
  }
  if (::listen(fd, backlog) != 0) {
    Status st = ioError("listen " + toString(ep));
    ::close(fd);
    return st;
  }

  Listener listener;
  listener.fd = fd;
  listener.bound = ep;
  if (ep.kind == Endpoint::Kind::Tcp) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0)
      listener.bound.port = ntohs(actual.sin_port);
  }
  return listener;
}

Expected<int> connectTo(const Endpoint& ep, i64 connectTimeoutMs) {
  const int family = ep.kind == Endpoint::Kind::Unix ? AF_UNIX : AF_INET;
  int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) return ioError("socket");

  sockaddr_un unixAddr{};
  sockaddr_in tcpAddr{};
  const sockaddr* addr = nullptr;
  socklen_t addrLen = 0;
  if (ep.kind == Endpoint::Kind::Unix) {
    unixAddr.sun_family = AF_UNIX;
    std::memcpy(unixAddr.sun_path, ep.path.c_str(), ep.path.size() + 1);
    addr = reinterpret_cast<const sockaddr*>(&unixAddr);
    addrLen = sizeof(unixAddr);
  } else {
    if (Status st = resolveTcp(ep, tcpAddr); !st.isOk()) {
      ::close(fd);
      return st;
    }
    addr = reinterpret_cast<const sockaddr*>(&tcpAddr);
    addrLen = sizeof(tcpAddr);
  }

  // Bounded connect: flip to non-blocking, start the connect, poll for
  // writability within the budget, then check SO_ERROR and flip back.
  // A straight blocking connect() would ride the kernel's SYN-retry
  // schedule — minutes against a black-holed TCP peer.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (connectTimeoutMs > 0 && flags >= 0)
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  int rc = ::connect(fd, addr, addrLen);
  if (rc != 0 && errno == EINTR) {
    // An interrupted connect continues in the background; the poll below
    // resolves it exactly like EINPROGRESS.
    errno = EINPROGRESS;
    rc = -1;
  }
  if (rc != 0) {
    if (connectTimeoutMs <= 0 || errno != EINPROGRESS) {
      Status st = ioError("connect " + toString(ep));
      ::close(fd);
      return st;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(connectTimeoutMs));
    if (ready <= 0) {
      ::close(fd);
      return Status::error(StatusCode::IoError,
                           "connect " + toString(ep) + ": timed out after " +
                               std::to_string(connectTimeoutMs) + "ms");
    }
    int soError = 0;
    socklen_t soLen = sizeof(soError);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &soLen);
    if (soError != 0) {
      errno = soError;
      Status st = ioError("connect " + toString(ep));
      ::close(fd);
      return st;
    }
  }
  if (connectTimeoutMs > 0 && flags >= 0) ::fcntl(fd, F_SETFL, flags);
  if (ep.kind == Endpoint::Kind::Tcp) setNoDelay(fd);
  return fd;
}

namespace {

void setTimeout(int fd, int which, i64 ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

}  // namespace

void setRecvTimeoutMs(int fd, i64 ms) { setTimeout(fd, SO_RCVTIMEO, ms); }
void setSendTimeoutMs(int fd, i64 ms) { setTimeout(fd, SO_SNDTIMEO, ms); }

bool sendAll(int fd, std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace dr::service::transport
