#include "fl/state.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace collapois::fl {

// The documented stream is little-endian; on a little-endian host it is
// the in-memory representation, so every primitive is one bulk copy.
static_assert(std::endian::native == std::endian::little,
              "fl/state writes host-order bytes as the little-endian format");

namespace {

// Appends n raw bytes: one resize, one memcpy.
void append(std::vector<std::uint8_t>& out, const void* src, std::size_t n) {
  if (n == 0) return;
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, src, n);
}

}  // namespace

void StateWriter::write_u64(std::uint64_t v) { append(bytes_, &v, sizeof(v)); }

void StateWriter::write_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void StateWriter::write_floats(std::span<const float> v) {
  static_assert(sizeof(float) == 4);
  write_size(v.size());
  append(bytes_, v.data(), v.size_bytes());
}

void StateWriter::write_bytes(std::span<const std::uint8_t> v) {
  write_size(v.size());
  append(bytes_, v.data(), v.size());
}

void StateWriter::write_rng(const stats::Rng& rng) {
  const stats::Rng::State st = rng.state();
  for (std::uint64_t s : st.s) write_u64(s);
  write_double(st.cached_normal);
  write_bool(st.has_cached_normal);
}

// Bounds checks compare against the bytes left (pos_ <= size always), so
// a forged length near 2^64 cannot wrap past them.
std::uint64_t StateReader::read_u64() {
  std::uint64_t v = 0;
  if (sizeof(v) > bytes_.size() - pos_) {
    throw std::runtime_error("StateReader: truncated state blob");
  }
  std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

double StateReader::read_double() {
  const std::uint64_t bits = read_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

tensor::FlatVec StateReader::read_floats() {
  const std::size_t n = read_size();
  if (n > (bytes_.size() - pos_) / sizeof(float)) {
    throw std::runtime_error("StateReader: truncated float vector");
  }
  tensor::FlatVec out(n);
  if (n > 0) std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return out;
}

std::vector<std::uint8_t> StateReader::read_bytes() {
  const std::size_t n = read_size();
  if (n > bytes_.size() - pos_) {
    throw std::runtime_error("StateReader: truncated byte blob");
  }
  std::vector<std::uint8_t> out(bytes_.begin() + pos_,
                                bytes_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

void StateReader::read_rng(stats::Rng& rng) {
  stats::Rng::State st;
  for (std::uint64_t& s : st.s) s = read_u64();
  st.cached_normal = read_double();
  st.has_cached_normal = read_bool();
  rng.set_state(st);
}

}  // namespace collapois::fl
