// Read-only memory-mapped file with RAII unmap and page-residency hints.
//
// The out-of-core storage layer (docs/STORAGE.md) maps CUBESEV1 severity
// blobs instead of reading them: severity stores then expose borrowed
// spans over file-backed pages, and the chunked operator kernels can
// release pages behind their sweep so series larger than RAM run at
// bounded resident memory.
#pragma once

#include <cstddef>
#include <filesystem>

#include "common/byte_owner.hpp"

namespace cube {

/// One read-only mapping of a whole regular file.  Non-copyable; the
/// mapping lives until destruction.  Empty files map to a null view of
/// size zero.  All errors throw cube::Error.
class MappedFile final : public ByteOwner {
 public:
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile() override;

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  [[nodiscard]] const std::byte* data() const noexcept override {
    return data_;
  }
  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

  /// Hints the kernel that the whole mapping will be read front to back
  /// (readahead-friendly).  Best effort; never throws.
  void advise_sequential() const noexcept;

  /// Tells the kernel the byte range [offset, offset + length) will not
  /// be needed again: resident pages are dropped from RSS and re-faulted
  /// from the file if touched later (the mapping stays valid).  The range
  /// is shrunk inward to page boundaries; a sub-page range is a no-op.
  /// Best effort; never throws.
  void release_range(std::size_t offset,
                     std::size_t length) const noexcept override;

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::filesystem::path path_;
};

}  // namespace cube
