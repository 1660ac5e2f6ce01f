// Interning store for packed states.
//
// A packed state is a run of 32-bit words (see refined_system.hpp for the
// refined-state layout).  The store copies each distinct run once into a
// block arena and numbers the runs densely in insertion order, so a BFS
// that expands states by ascending id visits them in BFS order.  Lookup is
// an open-addressing table over the runs' hashes: each slot keeps 32 bits
// of its state's hash, so probes compare words only on a hash match and
// growth never rehashes a state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace rtv {

class RefinedStateStore {
 public:
  using Id = std::uint32_t;
  /// Ids are 32-bit: callers stop their searches at this many states.
  static constexpr std::size_t kMaxStates = std::size_t{1} << 31;

  /// `capacity_hint` sizes the table and the id vectors up front.
  explicit RefinedStateStore(std::size_t capacity_hint = 256);

  struct Interned {
    Id id;
    bool inserted;  ///< true when `words` was new and has just been copied
  };

  /// Id of `words`, copying them into the arena when they are new.
  Interned intern(std::span<const std::uint32_t> words) {
    return intern(words, hash(words));
  }
  /// Same, with the hash already computed; equal runs need equal hashes.
  Interned intern(std::span<const std::uint32_t> words, std::uint64_t hash);

  /// The hash intern(words) uses: hash_mix over the words, then spread.
  static std::uint64_t hash(std::span<const std::uint32_t> words);

  /// The words of state `id`.  Arena blocks never move, so the span stays
  /// valid for the store's lifetime.
  std::span<const std::uint32_t> state(Id id) const {
    const std::uint32_t* p = starts_[id];
    return {p + 1, p[0]};
  }

  std::size_t size() const { return starts_.size(); }
  /// Bytes of arena in use: every state's words plus its length word.
  std::size_t arena_bytes() const { return used_words_ * sizeof(std::uint32_t); }

 private:
  static constexpr Id kEmpty = ~Id{0};
  static constexpr std::size_t kBlockWords = std::size_t{1} << 14;

  struct Slot {
    std::uint32_t hash = 0;  ///< high 32 bits of the state's hash
    Id id = kEmpty;
  };

  std::size_t slot_of(std::uint32_t hash) const { return hash >> shift_; }
  void grow();
  std::uint32_t* allocate(std::size_t words);

  std::vector<Slot> table_;
  unsigned shift_ = 0;  ///< 32 - log2(table size)
  std::vector<const std::uint32_t*> starts_;  ///< per id: length word, words
  std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  std::uint32_t* cursor_ = nullptr;
  std::size_t left_ = 0;  ///< free words after cursor_ in the last block
  std::size_t used_words_ = 0;
};

}  // namespace rtv
