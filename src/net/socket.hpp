#pragma once
// Thin POSIX TCP layer of the multi-process solver service: RAII sockets,
// loopback/host connect with timeout, and FrameConn -- a framed connection
// that speaks the wire protocol (net/wire.hpp) with incremental reassembly,
// so a frame split across arbitrarily many TCP segments is reconstructed
// without ever trusting a length prefix beyond kMaxPayloadBytes.
//
// Concurrency: FrameConn serializes writers through a mutex (the worker's
// solver thread and heartbeat thread share one connection to the router) and
// assumes a single reader thread, which is how every user is structured
// (one reader loop per connection). Any thread may wake() the reader: each
// FrameConn owns an eventfd that recv_frame polls beside the socket, so a
// reader can block until data OR an event arrives instead of polling on a
// timer.

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace asyncmg {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what)
      : std::runtime_error("socket: " + what) {}
};

/// Move-only RAII wrapper over a connected TCP file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Closes the descriptor; safe to call repeatedly.
  void close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to 127.0.0.1. Port 0 binds an ephemeral port;
/// `port()` reports the actual one (the worker daemon prints it so tests and
/// the bench harness can spawn on port 0 without races).
class ListenSocket {
 public:
  explicit ListenSocket(std::uint16_t port, int backlog = 16);
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  /// Waits up to `timeout_ms` for a connection (-1 = forever). Returns an
  /// invalid Socket on timeout; throws SocketError on failure.
  Socket accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to host:port, failing after `timeout_ms`. Throws SocketError.
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms);

/// Result of FrameConn::recv_frame.
enum class RecvStatus {
  kFrame,    // a complete, checksum-verified frame was produced
  kTimeout,  // nothing complete within the deadline; partial bytes retained
  kClosed,   // orderly EOF or connection reset by peer
};

/// One wire-protocol connection: writes whole frames, reads frames
/// incrementally across TCP segment boundaries. Byte counters feed the
/// per-worker telemetry (bytes on the wire, frames in each direction).
class FrameConn {
 public:
  explicit FrameConn(Socket sock);
  ~FrameConn();
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  /// Writes one frame: header and payload leave in one sendmsg of two
  /// iovecs, with no whole-frame copy. Thread-safe (internal mutex); blocks
  /// until the frame is fully written. Returns false when the peer is gone
  /// (EPIPE / reset) -- senders treat that as a dead peer, never an error.
  bool send_frame(MsgType type, const std::vector<std::uint8_t>& payload);

  /// Reads until one complete frame is available or `timeout_ms` elapses
  /// (-1 = forever). On kFrame fills `type` and `payload` (checksum already
  /// verified). A pending wake() ends the wait with kTimeout at once and is
  /// consumed by it; a complete frame already buffered is returned first.
  /// Throws WireError on protocol violations (bad magic, bad checksum,
  /// oversized length) -- callers drop the connection.
  RecvStatus recv_frame(MsgType& type, std::vector<std::uint8_t>& payload,
                        int timeout_ms);

  /// Makes a concurrent recv_frame, or the next one if none is waiting,
  /// return kTimeout without waiting. Wakes coalesce until a recv_frame
  /// consumes them. Safe from any thread.
  void wake();

  bool open() const { return sock_.valid() && !peer_gone_; }
  void close() { sock_.close(); }
  /// Half-closes both directions (::shutdown). Unlike close() this is safe
  /// to call from another thread while a reader polls or a writer blocks:
  /// both wake with EOF/EPIPE -- the control plane uses it to cut off a
  /// worker declared dead without racing on the descriptor.
  void shutdown_both();
  int fd() const { return sock_.fd(); }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }

 private:
  Socket sock_;
  std::mutex send_mu_;
  bool peer_gone_ = false;
  int wake_fd_ = -1;  // eventfd behind wake()
  // Reassembly buffer of rcap_ bytes: [rbeg_, rend_) is received but
  // unconsumed, [rend_, rcap_) is room for the next recv.
  std::unique_ptr<std::uint8_t[]> rbuf_;
  std::size_t rcap_ = 0;
  std::size_t rbeg_ = 0;
  std::size_t rend_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace asyncmg
