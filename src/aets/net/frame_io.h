#ifndef AETS_NET_FRAME_IO_H_
#define AETS_NET_FRAME_IO_H_

#include <atomic>
#include <string_view>

#include "aets/common/status.h"
#include "aets/net/frame.h"
#include "aets/net/socket.h"

namespace aets {
namespace net {

/// Poll granularity for idle waits: blocking loops notice a stop request
/// within this window regardless of the configured I/O deadline.
inline constexpr int kIdleSliceMs = 100;

/// Deadline of one connect and of one poll() wait on the shipping-side
/// endpoints (the epoch stream server and client, and TcpEpochSource's
/// connect); the unit the reconnect budget is priced in.
inline constexpr int kIoTimeoutMs = 5'000;

/// Reads one frame off `socket` through `decoder`. Waits between frames are
/// bounded by `idle_timeout_ms` (-1 = wait forever); a wait with bytes of a
/// frame already buffered is bounded by `io_timeout_ms` — a peer that stops
/// mid-frame is wedged, not idle. Returns:
///   OK         — *out holds a frame
///   Aborted    — clean EOF between frames (peer done) or connection reset
///   TimedOut   — idle/mid-frame deadline passed, or `stop` tripped
///   Corruption — framing failure (bad magic/version/CRC/oversize) or EOF
///                mid-frame (a torn frame is damage, not a clean end)
Status ReadFrame(TcpSocket* socket, FrameDecoder* decoder, int io_timeout_ms,
                 int idle_timeout_ms, const std::atomic<bool>& stop,
                 Frame* out);

/// Encodes and writes one frame; any failure means the stream position is
/// unspecified (possibly mid-frame) and the connection must be dropped.
Status WriteFrame(TcpSocket* socket, FrameType type, std::string_view body,
                  int io_timeout_ms);

}  // namespace net
}  // namespace aets

#endif  // AETS_NET_FRAME_IO_H_
