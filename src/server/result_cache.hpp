// Shared cross-client result cache with in-flight coalescing.
//
// The cache maps a planner cache key (the content-addressed digest of a
// query's root node, src/query/planner.hpp) onto the result as the Result
// frame carries it: the attributes and metadata digest as plain fields,
// the CUBEMET1 metadata blob, and the CUBESEV1 severity blob — encoded
// once, when the result is computed.  Caching the blobs rather than
// Experiment objects makes a hit a pure frame write — no re-plan, no
// operand reload, no re-serialization — and every session writes the one
// immutable copy, shared through shared_ptr, straight to its socket.
//
// Identical concurrent misses COALESCE: the first acquirer of a key
// becomes the owner and computes; later acquirers block on the slot and
// receive the owner's published result (Outcome::Coalesced).  If the
// owner fails, the slot is removed and every waiter throws a fresh copy
// of the owner's error; the next acquirer starts a fresh computation.
//
// Ready entries are evicted least-recently-used by byte budget.  In-flight
// slots are never evicted.  All methods are thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/thread_safety.hpp"
#include "model/experiment.hpp"
#include "server/protocol.hpp"

namespace cube::server {

/// An immutable, fully serialized query result shared across sessions.
struct CachedResult {
  std::string canonical;              ///< canonical root expression
  std::uint64_t meta_digest = 0;      ///< digest of the metadata blob
  std::map<std::string, std::string> attributes;
  std::shared_ptr<const std::string> meta_blob;  ///< CUBEMET1 bytes
  std::shared_ptr<const std::string> severity;   ///< CUBESEV1 bytes

  /// Encodes `experiment` once, into one buffer per blob: the metadata
  /// as CUBEMET1, the severity as CUBESEV1 of the kind the densify rule
  /// picks (never more than 16 bytes per non-zero plus the header).
  [[nodiscard]] static CachedResult encode(std::string canonical,
                                           const Experiment& experiment);

  /// The Result a session sends for this entry: the blobs are shared, not
  /// copied, and the metadata blob ships only when `ship_meta`.
  [[nodiscard]] ResultPayload payload(Served served, double server_ms,
                                      bool ship_meta) const;

  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t n = canonical.size() + (meta_blob ? meta_blob->size() : 0) +
                    (severity ? severity->size() : 0);
    for (const auto& [key, value] : attributes) n += key.size() + value.size();
    return n;
  }
};

class ResultCache {
 public:
  /// How an acquire() resolved — mirrors protocol Served so the service
  /// can report the sharing mode to the client verbatim.
  enum class Outcome {
    Owner,      ///< miss: the caller must compute, then publish() or fail()
    Hit,        ///< a ready entry was served
    Coalesced,  ///< blocked on another caller's in-flight computation
  };

  struct Lookup {
    Outcome outcome = Outcome::Owner;
    /// Set for Hit and Coalesced; null for Owner.
    std::shared_ptr<const CachedResult> result;
  };

  explicit ResultCache(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks the key up, blocking while another thread owns an in-flight
  /// computation for it.  An Owner outcome OBLIGES the caller to call
  /// publish(key, ...) or fail(key, ...) exactly once — otherwise every
  /// later acquirer of the key blocks forever.  Rethrows the owner's
  /// exception if the computation this call coalesced onto fails.
  /// (The wait loop re-acquires mutex_ through the condition variable,
  /// which the thread-safety analysis cannot follow.)
  [[nodiscard]] Lookup acquire(std::uint64_t key)
      CUBE_NO_THREAD_SAFETY_ANALYSIS;

  /// Completes an owned computation: stores the result, wakes waiters,
  /// and evicts least-recently-used ready entries over the byte budget.
  /// Returns the shared immutable result so the owner can serve it
  /// without a second lookup.
  std::shared_ptr<const CachedResult> publish(std::uint64_t key,
                                              CachedResult result);

  /// Aborts an owned computation: removes the slot and wakes every waiter
  /// currently coalesced onto it; each waiter invokes `rethrow`, which
  /// must throw a FRESHLY CONSTRUCTED exception on every call.  A fresh
  /// object per waiter — rather than one shared exception_ptr — keeps
  /// concurrent what() reads off a shared buffer (std::runtime_error's
  /// internal string is reference-counted regardless of the string ABI,
  /// so sharing one exception across catching threads races its
  /// destruction).
  void fail(std::uint64_t key, std::function<void()> rethrow);

  [[nodiscard]] std::size_t size_bytes() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t evictions() const;

  /// Drops every ready entry (in-flight slots are untouched).  Used when
  /// the repository generation changes underneath the server.
  void clear();

 private:
  struct Slot {
    enum class State { InFlight, Ready, Failed };
    State state = State::InFlight;
    std::shared_ptr<const CachedResult> result;  // Ready
    std::function<void()> rethrow;               // Failed; throws when called
    std::list<std::uint64_t>::iterator lru;      // Ready only
  };

  /// Evicts LRU ready entries until within budget.
  void evict_locked() CUBE_REQUIRES(mutex_);

  const std::size_t capacity_bytes_;
  mutable ts::Mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> slots_
      CUBE_GUARDED_BY(mutex_);
  /// Most-recently-used first; ready keys only.
  std::list<std::uint64_t> lru_ CUBE_GUARDED_BY(mutex_);
  std::size_t ready_bytes_ CUBE_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ CUBE_GUARDED_BY(mutex_) = 0;
};

}  // namespace cube::server
