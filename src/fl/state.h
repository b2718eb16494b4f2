// Binary state (de)serialization for checkpoint/resume.
//
// Every component that mutates across rounds — server, aggregators with
// noise RNGs, clients with local RNGs / drift variables / stale-model
// caches — implements save_state/load_state against these buffers so a
// run can be frozen mid-experiment and resumed bit-exactly (see
// sim/checkpoint.h for the file format and DESIGN.md for the state map).
//
// The encoding is a flat little-endian byte stream with no per-field
// tags; writer and reader must agree on the field sequence, which is
// enforced structurally (each component reads exactly what it wrote) and
// guarded by the checkpoint header's version number. Little-endian is
// also the host order (asserted at compile time), so float vectors and
// byte blobs move as single memcpys.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "tensor/vecops.h"

namespace collapois::fl {

class StateWriter {
 public:
  void write_u64(std::uint64_t v);
  void write_size(std::size_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_bool(bool v) { write_u64(v ? 1 : 0); }
  void write_double(double v);
  void write_floats(std::span<const float> v);
  void write_bytes(std::span<const std::uint8_t> v);
  void write_rng(const stats::Rng& rng);
  // Pre-sizes the buffer when the caller knows the final length, so a
  // large image is written without reallocation.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t read_u64();
  std::size_t read_size() { return static_cast<std::size_t>(read_u64()); }
  bool read_bool() { return read_u64() != 0; }
  double read_double();
  tensor::FlatVec read_floats();
  std::vector<std::uint8_t> read_bytes();
  void read_rng(stats::Rng& rng);

  // All bytes consumed — checked after a component finishes loading to
  // catch writer/reader sequence drift.
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace collapois::fl
