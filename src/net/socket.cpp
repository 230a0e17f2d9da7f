#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace asyncmg {

namespace {

std::string errno_str(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

/// Remaining milliseconds until `deadline`; -1 when there is no deadline.
int remaining_ms(std::chrono::steady_clock::time_point deadline,
                 bool has_deadline) {
  if (!has_deadline) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return ms > 0 ? static_cast<int>(ms) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// ListenSocket
// ---------------------------------------------------------------------------

ListenSocket::ListenSocket(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw SocketError(errno_str("socket"));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = errno_str("bind");
    ::close(fd_);
    fd_ = -1;
    throw SocketError(err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = errno_str("getsockname");
    ::close(fd_);
    fd_ = -1;
    throw SocketError(err);
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, backlog) != 0) {
    const std::string err = errno_str("listen");
    ::close(fd_);
    fd_ = -1;
    throw SocketError(err);
  }
}

ListenSocket::~ListenSocket() { close(); }

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket ListenSocket::accept(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_str("poll"));
    }
    if (rc == 0) return Socket();  // timeout
    break;
  }
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) throw SocketError(errno_str("accept"));
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(cfd);
}

// ---------------------------------------------------------------------------
// connect_tcp
// ---------------------------------------------------------------------------

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("bad IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw SocketError(errno_str("socket"));
  Socket sock(fd);

  // Nonblocking connect + poll so a down peer fails after timeout_ms rather
  // than the kernel's multi-minute default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    throw SocketError(errno_str("connect"));
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    for (;;) {
      rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      break;
    }
    if (rc < 0) throw SocketError(errno_str("poll"));
    if (rc == 0) throw SocketError("connect timeout");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      errno = err != 0 ? err : errno;
      throw SocketError(errno_str("connect"));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

// ---------------------------------------------------------------------------
// FrameConn
// ---------------------------------------------------------------------------

FrameConn::FrameConn(Socket sock)
    : sock_(std::move(sock)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) throw SocketError(errno_str("eventfd"));
}

FrameConn::~FrameConn() { ::close(wake_fd_); }

void FrameConn::shutdown_both() {
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
}

void FrameConn::wake() {
  const std::uint64_t one = 1;
  // Only EAGAIN (counter saturated, a wake already pending) can fail here.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

bool FrameConn::send_frame(MsgType type,
                           const std::vector<std::uint8_t>& payload) {
  const auto header =
      encode_frame_header(type, payload.data(), payload.size());
  const std::size_t total = header.size() + payload.size();
  std::lock_guard<std::mutex> lock(send_mu_);
  if (!sock_.valid() || peer_gone_) return false;
  std::size_t off = 0;
  while (off < total) {
    iovec iov[2];
    msghdr msg{};
    msg.msg_iov = iov;
    if (off < header.size()) {
      iov[msg.msg_iovlen++] = {const_cast<std::uint8_t*>(header.data()) + off,
                               header.size() - off};
    }
    const std::size_t poff = off > header.size() ? off - header.size() : 0;
    if (poff < payload.size()) {
      iov[msg.msg_iovlen++] = {
          const_cast<std::uint8_t*>(payload.data()) + poff,
          payload.size() - poff};
    }
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the process.
    const ssize_t n = ::sendmsg(sock_.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      peer_gone_ = true;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_sent_ += total;
  ++frames_sent_;
  return true;
}

RecvStatus FrameConn::recv_frame(MsgType& type,
                                 std::vector<std::uint8_t>& payload,
                                 int timeout_ms) {
  constexpr std::size_t kMinRecv = 65536;
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
  // Compact once per call: frames returned by earlier calls are dropped
  // from the front (usually nothing is left, so this moves no bytes).
  if (rbeg_ > 0) {
    std::copy(rbuf_.get() + rbeg_, rbuf_.get() + rend_, rbuf_.get());
    rend_ -= rbeg_;
    rbeg_ = 0;
  }
  for (;;) {
    // Try to peel a complete frame off the reassembly buffer first.
    const std::size_t avail = rend_ - rbeg_;
    if (avail >= kFrameHeaderBytes) {
      const std::uint8_t* head = rbuf_.get() + rbeg_;
      const FrameHeader h = decode_frame_header(head, avail);
      const std::size_t total = kFrameHeaderBytes + h.payload_len;
      if (avail >= total) {
        verify_frame_payload(h, head + kFrameHeaderBytes);
        type = h.type;
        payload.assign(head + kFrameHeaderBytes, head + total);
        rbeg_ += total;
        ++frames_received_;
        return RecvStatus::kFrame;
      }
    }
    if (!sock_.valid()) return RecvStatus::kClosed;

    pollfd pfd[2]{};
    pfd[0].fd = sock_.fd();
    pfd[0].events = POLLIN;
    pfd[1].fd = wake_fd_;
    pfd[1].events = POLLIN;
    const int wait = remaining_ms(deadline, has_deadline);
    const int rc = ::poll(pfd, 2, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_str("poll"));
    }
    if (rc == 0) return RecvStatus::kTimeout;
    if (pfd[1].revents != 0) {
      std::uint64_t wakes = 0;
      (void)!::read(wake_fd_, &wakes, sizeof(wakes));  // consume the wake
      return RecvStatus::kTimeout;
    }

    // Receive straight into the buffer's tail. Room grows geometrically
    // with the bytes that actually arrived, never with a header's claim.
    if (rcap_ - rend_ < kMinRecv) {
      const std::size_t cap = std::max(rend_ + kMinRecv, 2 * rcap_);
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
      std::copy(rbuf_.get(), rbuf_.get() + rend_, grown.get());
      rbuf_ = std::move(grown);
      rcap_ = cap;
    }
    const ssize_t n = ::recv(sock_.fd(), rbuf_.get() + rend_, rcap_ - rend_, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return RecvStatus::kClosed;  // ECONNRESET et al.
    }
    if (n == 0) return RecvStatus::kClosed;  // orderly EOF
    bytes_received_ += static_cast<std::uint64_t>(n);
    rend_ += static_cast<std::size_t>(n);
  }
}

}  // namespace asyncmg
