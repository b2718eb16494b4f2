// Durable rolling checkpoint chain (DESIGN.md §13).
//
// CheckpointStore wraps the checkpoint codec with the two durability
// properties a production trainer needs and a single file cannot give:
//
//  - atomic saves: every slot is written via temp + flush + fsync +
//    rename (save_checkpoint_file), so an unclean shutdown leaves either
//    the previous generation or the new one, never a torn file;
//  - a rolling keep-last-K chain: the head lives at `head_path`, older
//    generations at `head_path.1` .. `head_path.(K-1)` (rotated by
//    rename before each save). Recovery walks the chain newest-first
//    and resumes from the first slot whose digest verifies, counting
//    the damaged generations it skipped — so even a corrupted head
//    (chaos harness: a crash mid-save through the non-atomic
//    save_torn side door) costs at most K-1 checkpoint intervals, not
//    the run.
//
// Failure is loud: when no slot is intact, load_newest throws one
// std::runtime_error naming every file tried and why each was rejected.
// A slot written in another checkpoint format version is not damage: its
// CheckpointVersionError stops the walk instead of rewinding past it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/checkpoint.h"

namespace collapois::sim {

class CheckpointStore {
 public:
  // `head_path` is the newest-generation file; `keep_last` (>= 1) is the
  // chain length K. Throws std::invalid_argument on an empty path or
  // keep_last == 0.
  CheckpointStore(std::string head_path, std::size_t keep_last = 3);

  const std::string& head_path() const { return head_path_; }
  std::size_t keep_last() const { return keep_last_; }

  // The on-disk path of generation `age` (0 = head, 1 = previous, ...).
  std::string slot_path(std::size_t age) const;

  // Rotate the chain (head -> .1 -> ... -> .(K-1), oldest discarded) and
  // atomically write `ck` as the new head.
  void save(const Checkpoint& ck);

  // Chaos side door: rotate like save(), then write only the leading
  // `fraction` of the encoded image NON-atomically over the head — the
  // torn file an unclean shutdown mid-write leaves behind when the
  // atomic path is bypassed. Exists so tests and the chaos harness can
  // manufacture exactly the failure save() is designed to prevent.
  void save_torn(const Checkpoint& ck, double fraction);

  struct Recovery {
    Checkpoint checkpoint;
    // The slot the run actually resumed from.
    std::string path;
    // Slots newer than `path` that existed but failed verification.
    std::size_t discarded = 0;
  };

  // Walk the chain newest-first and return the first slot that decodes
  // cleanly. Missing slots are skipped silently (a short chain is
  // normal); existing-but-damaged slots are counted in `discarded`.
  // Throws std::runtime_error listing every rejected file and its
  // reason when no slot survives, and rethrows the CheckpointVersionError
  // of the first slot written in an unsupported format version.
  Recovery load_newest() const;

 private:
  void rotate();

  std::string head_path_;
  std::size_t keep_last_;
};

}  // namespace collapois::sim
