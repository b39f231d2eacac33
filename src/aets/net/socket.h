#ifndef AETS_NET_SOCKET_H_
#define AETS_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "aets/common/result.h"
#include "aets/common/status.h"

namespace aets {
namespace net {

/// RAII wrapper over a connected stream socket (TCP or a socketpair) with
/// poll()-based I/O deadlines. Every socket is non-blocking; reads and
/// writes park in poll() for at most `timeout_ms` per wait, so a wedged
/// peer surfaces as Status::TimedOut instead of a hung thread. Writes use
/// MSG_NOSIGNAL — a reset peer is Status::Aborted, never SIGPIPE.
///
/// Error taxonomy (shared by every caller in aets/net):
///   TimedOut — the deadline passed with no progress; the connection MAY
///              still be healthy (slow peer). Stream senders treat a write
///              timeout as a dead link anyway, because a partial frame
///              desyncs the byte stream.
///   Aborted  — the peer closed or reset the connection (EOF mid-read,
///              EPIPE/ECONNRESET). Recoverable only by reconnecting.
class TcpSocket {
 public:
  TcpSocket() = default;
  /// Adopts `fd` (sets non-blocking + TCP_NODELAY where applicable).
  explicit TcpSocket(int fd);
  ~TcpSocket() { Close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connects to `host:port` (numeric IPv4, or "localhost"). Non-blocking
  /// connect bounded by `timeout_ms`.
  static Result<TcpSocket> Connect(const std::string& host, uint16_t port,
                                   int timeout_ms);

  /// A connected AF_UNIX stream pair — the loopback harness for the wire
  /// tests (identical stream semantics, no port allocation).
  static Result<std::pair<TcpSocket, TcpSocket>> Pair();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `n` bytes. Fails TimedOut only when a full `timeout_ms`
  /// window passes with zero progress — a slow-but-moving peer keeps the
  /// write alive. On failure the stream position is unspecified (a partial
  /// frame may be on the wire), so framed senders must treat any failure as
  /// a dead connection.
  Status WriteAll(const void* data, size_t n, int timeout_ms);

  /// Reads 1..n bytes. Returns 0 on clean EOF, TimedOut when `timeout_ms`
  /// passes with nothing readable, Aborted on reset.
  Result<size_t> ReadSome(void* buf, size_t n, int timeout_ms);

  /// Reads exactly `n` bytes; EOF mid-read is Aborted (a torn frame).
  Status ReadAll(void* buf, size_t n, int timeout_ms);

  /// Half-close: the peer's next read sees EOF. Mid-frame-disconnect tests
  /// use this to tear a frame deterministically.
  void ShutdownSend();
  /// Full shutdown: unblocks any thread parked in poll() on this socket.
  void ShutdownBoth();
  void Close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to 127.0.0.1. Port 0 asks the kernel for an
/// ephemeral port; port() reports the bound one (the test rigs and the
/// `replica` example print it so a driver script can connect).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }

  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static Result<TcpListener> Bind(uint16_t port);

  /// Waits up to `timeout_ms` for one connection; TimedOut when none
  /// arrives (accept loops poll this so Stop() is prompt).
  Result<TcpSocket> Accept(int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace aets

#endif  // AETS_NET_SOCKET_H_
