#ifndef AETS_REPLICATION_FAULT_INJECTION_H_
#define AETS_REPLICATION_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>

#include "aets/common/rng.h"
#include "aets/obs/metrics.h"
#include "aets/replication/channel.h"

namespace aets {

/// Per-send fault probabilities for FaultInjectingChannel. All independent;
/// a single send can be delayed, corrupted, AND duplicated. Probabilities
/// are evaluated in a fixed order from one seeded RNG, so a given (profile,
/// seed, send sequence) always produces the same fault schedule — chaos
/// tests are exactly reproducible.
struct FaultProfile {
  double drop = 0.0;       ///< Epoch vanishes; Send still reports success.
  double duplicate = 0.0;  ///< Epoch is delivered twice back-to-back.
  double reorder = 0.0;    ///< Epoch is held back and delivered after the
                           ///< next send (adjacent swap; flushed on Close).
  double corrupt = 0.0;    ///< One random payload bit is flipped (the
                           ///< declared payload_crc is kept, so receivers
                           ///< detect the damage).
  double delay = 0.0;      ///< Sender sleeps delay_us before delivery (a
                           ///< slow link; stalls this sender only).
  int64_t delay_us = 200;
  uint64_t seed = 42;
};

/// A drop-in EpochChannel that models an unreliable network link: it applies
/// the FaultProfile to every epoch the shipper sends, deterministically
/// under the profile's seed. Drops are *silent* — Send returns true, exactly
/// like a datagram handed to a lossy wire — so only the receive-side
/// recovery protocol (CRC verify + gap NACK through EpochSource) can restore
/// the stream. Retransmitted epochs fetched through EpochSource bypass this
/// wrapper: the NACK path is the reliable control connection.
///
/// Thread-safe: Send may race between the shipper's commit path and its
/// heartbeat thread.
///
/// Instrumented: `fault.drops`, `fault.duplicates`, `fault.reorders`,
/// `fault.corruptions`, `fault.delays`.
class FaultInjectingChannel : public EpochChannel {
 public:
  explicit FaultInjectingChannel(FaultProfile profile, size_t capacity = 1024);

  ~FaultInjectingChannel() override;

  bool Send(ShippedEpoch epoch) override;

  /// Flushes a held-back (reordered) epoch, then closes the queue.
  void Close() override;

  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  uint64_t duplicates() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  uint64_t reorders() const {
    return reorders_.load(std::memory_order_relaxed);
  }
  uint64_t corruptions() const {
    return corruptions_.load(std::memory_order_relaxed);
  }
  uint64_t delays() const { return delays_.load(std::memory_order_relaxed); }
  uint64_t faults_injected() const {
    return drops() + duplicates() + reorders() + corruptions() + delays();
  }

 private:
  /// Flips one RNG-chosen bit in a private copy of the payload.
  void CorruptPayload(ShippedEpoch* epoch);

  FaultProfile profile_;
  std::mutex mu_;  // serializes RNG draws and the reorder slot
  Rng rng_;
  /// The reorder slot: at most one epoch held back, delivered after the next
  /// send (or on Close).
  std::optional<ShippedEpoch> held_;

  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> reorders_{0};
  std::atomic<uint64_t> corruptions_{0};
  std::atomic<uint64_t> delays_{0};

  obs::ExportedCounters exported_;
};

}  // namespace aets

#endif  // AETS_REPLICATION_FAULT_INJECTION_H_
