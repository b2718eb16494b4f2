#include "sim/checkpoint_store.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace collapois::sim {

namespace {

bool file_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

}  // namespace

CheckpointStore::CheckpointStore(std::string head_path, std::size_t keep_last)
    : head_path_(std::move(head_path)), keep_last_(keep_last) {
  if (head_path_.empty()) {
    throw std::invalid_argument("CheckpointStore: empty head path");
  }
  if (keep_last_ == 0) {
    throw std::invalid_argument("CheckpointStore: keep_last must be >= 1");
  }
}

std::string CheckpointStore::slot_path(std::size_t age) const {
  if (age == 0) return head_path_;
  return head_path_ + "." + std::to_string(age);
}

void CheckpointStore::rotate() {
  // Oldest-first renames: .K-2 -> .K-1, ..., head -> .1. A missing slot
  // simply fails its rename (the chain is shorter than K early in a
  // run); any other state is handled by the atomic head write after.
  for (std::size_t age = keep_last_ - 1; age > 0; --age) {
    std::rename(slot_path(age - 1).c_str(), slot_path(age).c_str());
  }
}

void CheckpointStore::save(const Checkpoint& ck) {
  rotate();
  save_checkpoint_file(head_path_, ck);
}

void CheckpointStore::save_torn(const Checkpoint& ck, double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("CheckpointStore: torn fraction not in [0,1]");
  }
  rotate();
  const std::vector<std::uint8_t> image = encode_checkpoint(ck);
  const std::size_t n =
      static_cast<std::size_t>(fraction * static_cast<double>(image.size()));
  // Deliberately the UNSAFE write path: straight over the head, no temp
  // file, no flush discipline — the pre-§13 failure mode, preserved as a
  // test fixture.
  std::ofstream out(head_path_, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("CheckpointStore: cannot open " + head_path_ +
                             ": " + std::strerror(errno));
  }
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(n));
  if (!out) {
    throw std::runtime_error("CheckpointStore: torn write failed for " +
                             head_path_);
  }
}

CheckpointStore::Recovery CheckpointStore::load_newest() const {
  std::size_t discarded = 0;
  std::string errors;
  bool any_seen = false;
  for (std::size_t age = 0; age < keep_last_; ++age) {
    const std::string path = slot_path(age);
    if (!file_exists(path)) continue;  // short chain: normal, not an error
    any_seen = true;
    try {
      Recovery r;
      r.checkpoint = load_checkpoint_file(path);
      r.path = path;
      r.discarded = discarded;
      return r;
    } catch (const CheckpointVersionError&) {
      throw;  // written by another build, not damaged: never rewind past it
    } catch (const std::exception& e) {
      ++discarded;
      errors += std::string("\n  ") + path + ": " + e.what();
    }
  }
  if (!any_seen) {
    throw std::runtime_error("CheckpointStore: no checkpoint found at " +
                             head_path_ + " (or any rotated generation)");
  }
  throw std::runtime_error(
      "CheckpointStore: every checkpoint generation is damaged:" + errors);
}

}  // namespace collapois::sim
