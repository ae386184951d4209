#include "common/atomic_write.hpp"

#include <fstream>
#include <string>
#include <system_error>

#include "common/error.hpp"

namespace cube {

void write_file_atomic(const std::filesystem::path& target,
                       std::string_view bytes) {
  const std::filesystem::path temp = target.string() + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw IoError("cannot write '" + temp.string() + "'");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code cleanup;
      std::filesystem::remove(temp, cleanup);
      throw IoError("write to '" + temp.string() + "' failed");
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, target, ec);
  if (ec) {
    std::error_code cleanup;
    std::filesystem::remove(temp, cleanup);
    throw IoError("cannot replace '" + target.string() + "': " +
                  ec.message());
  }
}

}  // namespace cube
