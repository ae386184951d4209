// Internal little-endian codec shared by the binary experiment format
// (CUBEBIN1/CUBEBIN2) and the metadata blob format (CUBEMET1).
//
// Not part of the public io API — the public entry points live in
// binary_format.hpp and meta_format.hpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "model/metadata.hpp"

namespace cube::detail {

class BinaryEncoder {
 public:
  explicit BinaryEncoder(std::ostream& out) : out_(out) {}

  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(const std::string& s);

 private:
  std::ostream& out_;
};

class BinaryDecoder {
 public:
  explicit BinaryDecoder(std::string_view data) : data_(data) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  /// Like str(), but views the bytes in place (valid while the decoded
  /// buffer is).
  std::string_view str_view();
  /// The next `n` bytes, viewed in place.
  std::string_view bytes(std::size_t n);
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  /// Offset of the next field from the start of the decoded buffer.
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Writes the metadata sections (metrics, regions, call sites, cnodes,
/// machines, nodes, processes, threads) in the fixed CUBEBIN1 order.
void encode_metadata(BinaryEncoder& e, const Metadata& md);

/// Reads the metadata sections back; the returned metadata is validated
/// but NOT frozen (callers freeze or hand it to Experiment).
[[nodiscard]] std::unique_ptr<Metadata> decode_metadata(BinaryDecoder& d);

}  // namespace cube::detail
