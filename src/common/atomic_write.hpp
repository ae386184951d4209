// Whole-file replacement by write-then-rename.
//
// The repository's index, manifest and blobs are written as a temporary
// sibling `<target>.tmp` that is renamed over the target once complete, so
// a crash leaves either the old file or the new one, never a torn one.
// The temporary is removed again when the write or the rename fails.  No
// fsync is issued: a power loss may still lose the rename.
#pragma once

#include <filesystem>
#include <string_view>

namespace cube {

/// Replaces `target` with `bytes` atomically (see above).  The parent
/// directory must exist.  Throws IoError on failure.
void write_file_atomic(const std::filesystem::path& target,
                       std::string_view bytes);

}  // namespace cube
