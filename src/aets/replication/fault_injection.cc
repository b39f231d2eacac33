#include "aets/replication/fault_injection.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

namespace aets {

FaultInjectingChannel::FaultInjectingChannel(FaultProfile profile,
                                             size_t capacity)
    : EpochChannel(capacity),
      profile_(profile),
      rng_(profile.seed),
      exported_("", {{"fault.drops", &drops_},
                     {"fault.duplicates", &duplicates_},
                     {"fault.reorders", &reorders_},
                     {"fault.corruptions", &corruptions_},
                     {"fault.delays", &delays_}}) {}

FaultInjectingChannel::~FaultInjectingChannel() = default;

void FaultInjectingChannel::CorruptPayload(ShippedEpoch* epoch) {
  auto damaged = std::make_shared<std::string>(*epoch->payload);
  size_t bit = static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(damaged->size() * 8 - 1)));
  (*damaged)[bit / 8] = static_cast<char>(
      static_cast<unsigned char>((*damaged)[bit / 8]) ^ (1u << (bit % 8)));
  epoch->payload = std::move(damaged);
}

bool FaultInjectingChannel::Send(ShippedEpoch epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  // Fixed draw order keeps the schedule deterministic regardless of which
  // faults actually fire.
  bool delay = rng_.Bernoulli(profile_.delay);
  bool drop = rng_.Bernoulli(profile_.drop);
  bool corrupt = rng_.Bernoulli(profile_.corrupt);
  bool duplicate = rng_.Bernoulli(profile_.duplicate);
  bool reorder = rng_.Bernoulli(profile_.reorder);

  if (delay) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(profile_.delay_us));
  }
  if (drop) {
    // The wire ate it. Report success: a lossy link gives no feedback, so
    // the sender's accounting must not see this — recovery is entirely the
    // receiver's NACK protocol.
    drops_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (corrupt && !epoch.is_heartbeat() && epoch.ByteSize() > 0) {
    corruptions_.fetch_add(1, std::memory_order_relaxed);
    CorruptPayload(&epoch);
  }
  if (reorder && !held_) {
    reorders_.fetch_add(1, std::memory_order_relaxed);
    held_ = std::move(epoch);
    return true;
  }
  bool ok = Enqueue(epoch);
  if (duplicate) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    Enqueue(epoch);
  }
  if (held_) {
    Enqueue(std::move(*held_));
    held_.reset();
  }
  return ok;
}

void FaultInjectingChannel::Close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (held_) {
      Enqueue(std::move(*held_));
      held_.reset();
    }
  }
  EpochChannel::Close();
}

}  // namespace aets
