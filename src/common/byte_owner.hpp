// Immutable bytes that borrowed views keep alive by shared ownership.
//
// Severity stores in borrowed mode (model/severity.hpp) view their cells
// inside bytes someone else owns: the pages of a mapped CUBESEV1 file
// (MappedFile), or the heap buffer of a received Result frame
// (HeapBytes).  The store holds a shared_ptr to the owner, so the bytes
// outlive every view.
//
// release_range() is the streaming residency hint.  It is a no-op unless
// the owner overrides it: only file-backed pages can be dropped and
// re-faulted from their file — MADV_DONTNEED on anonymous heap pages
// would silently zero them.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace cube {

class ByteOwner {
 public:
  virtual ~ByteOwner() = default;

  [[nodiscard]] virtual const std::byte* data() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// The byte range [offset, offset + length) will not be read again.
  /// Owners whose bytes can be re-read from elsewhere may drop them from
  /// memory; the default keeps them.  Best effort; never throws.
  virtual void release_range(std::size_t offset,
                             std::size_t length) const noexcept {
    (void)offset;
    (void)length;
  }
};

/// Heap bytes moved in from a string (no copy).  Keeps every byte
/// resident: release_range() is the default no-op.
class HeapBytes final : public ByteOwner {
 public:
  explicit HeapBytes(std::string bytes) noexcept : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::byte* data() const noexcept override {
    return reinterpret_cast<const std::byte*>(bytes_.data());
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return bytes_.size();
  }
  [[nodiscard]] const std::string& str() const noexcept { return bytes_; }

 private:
  std::string bytes_;
};

}  // namespace cube
