#include "server/result_cache.hpp"

#include <stdexcept>
#include <utility>

#include "io/meta_format.hpp"
#include "io/severity_format.hpp"

namespace cube::server {

CachedResult CachedResult::encode(std::string canonical,
                                  const Experiment& experiment) {
  CachedResult out;
  out.canonical = std::move(canonical);
  out.meta_digest = experiment.metadata().digest();
  out.attributes = experiment.attributes();
  out.meta_blob = std::make_shared<const std::string>(
      to_cube_meta(experiment.metadata()));
  const SeverityStore& severity = experiment.severity();
  out.severity = std::make_shared<const std::string>(
      to_cube_sev(severity, compact_sev_kind(severity)));
  return out;
}

ResultPayload CachedResult::payload(Served served, double server_ms,
                                    bool ship_meta) const {
  ResultPayload p;
  p.served = served;
  p.server_ms = server_ms;
  p.canonical = canonical;
  if (ship_meta) p.meta_blob = meta_blob;
  p.meta_digest = meta_digest;
  p.attributes = attributes;
  p.severity = severity;
  return p;
}

ResultCache::Lookup ResultCache::acquire(std::uint64_t key) {
  std::unique_lock<std::mutex> lock(mutex_.native());
  for (;;) {
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      slots_.emplace(key, std::make_shared<Slot>());
      return Lookup{Outcome::Owner, nullptr};
    }
    // Hold the slot by shared_ptr: fail() erases it from the map while
    // waiters are still parked on it.
    std::shared_ptr<Slot> slot = it->second;
    if (slot->state == Slot::State::Ready) {
      lru_.splice(lru_.begin(), lru_, slot->lru);  // touch
      return Lookup{Outcome::Hit, slot->result};
    }
    cv_.wait(lock, [&] { return slot->state != Slot::State::InFlight; });
    if (slot->state == Slot::State::Ready) {
      return Lookup{Outcome::Coalesced, slot->result};
    }
    // Each waiter throws its own fresh exception object (see fail()).
    slot->rethrow();
    throw std::logic_error("ResultCache::fail rethrow did not throw");
  }
}

std::shared_ptr<const CachedResult> ResultCache::publish(std::uint64_t key,
                                                         CachedResult result) {
  auto shared = std::make_shared<const CachedResult>(std::move(result));
  ts::MutexLock lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return shared;  // raced a clear(); serve uncached
  Slot& slot = *it->second;
  slot.result = shared;
  slot.state = Slot::State::Ready;
  lru_.push_front(key);
  slot.lru = lru_.begin();
  ready_bytes_ += slot.result->bytes();
  evict_locked();
  cv_.notify_all();
  return shared;
}

void ResultCache::fail(std::uint64_t key, std::function<void()> rethrow) {
  ts::MutexLock lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return;
  std::shared_ptr<Slot> slot = it->second;
  slot->rethrow = std::move(rethrow);
  slot->state = Slot::State::Failed;
  // Erase now: waiters keep the slot alive through their shared_ptr, and
  // the next acquire() of the key starts a fresh computation.
  slots_.erase(it);
  cv_.notify_all();
}

std::size_t ResultCache::size_bytes() const {
  ts::MutexLock lock(mutex_);
  return ready_bytes_;
}

std::size_t ResultCache::entries() const {
  ts::MutexLock lock(mutex_);
  return lru_.size();
}

std::uint64_t ResultCache::evictions() const {
  ts::MutexLock lock(mutex_);
  return evictions_;
}

void ResultCache::clear() {
  ts::MutexLock lock(mutex_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second->state == Slot::State::Ready) {
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  lru_.clear();
  ready_bytes_ = 0;
}

void ResultCache::evict_locked() {
  while (ready_bytes_ > capacity_bytes_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    auto it = slots_.find(victim);
    if (it != slots_.end() && it->second->state == Slot::State::Ready) {
      ready_bytes_ -= it->second->result->bytes();
      slots_.erase(it);
    }
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace cube::server
