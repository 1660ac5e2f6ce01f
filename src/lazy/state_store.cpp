#include "rtv/lazy/state_store.hpp"

#include <algorithm>
#include <bit>

#include "rtv/base/hash.hpp"

namespace rtv {

RefinedStateStore::RefinedStateStore(std::size_t capacity_hint) {
  // At most half full: table size is the power of two >= 2 * hint.
  const std::size_t slots =
      std::bit_ceil(std::max<std::size_t>(2 * capacity_hint, 16));
  table_.resize(slots);
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots));
  starts_.reserve(capacity_hint);
}

std::uint64_t RefinedStateStore::hash(std::span<const std::uint32_t> words) {
  // Two words per mix step.
  std::size_t h = words.size();
  std::size_t i = 0;
  for (; i + 1 < words.size(); i += 2)
    h = hash_mix(h, words[i] | std::uint64_t{words[i + 1]} << 32);
  if (i < words.size()) h = hash_mix(h, words[i]);
  return hash_spread(h);
}

std::uint32_t* RefinedStateStore::allocate(std::size_t words) {
  if (words > left_) {
    const std::size_t n = std::max(kBlockWords, words);
    blocks_.push_back(std::make_unique_for_overwrite<std::uint32_t[]>(n));
    cursor_ = blocks_.back().get();
    left_ = n;
  }
  std::uint32_t* p = cursor_;
  cursor_ += words;
  left_ -= words;
  used_words_ += words;
  return p;
}

void RefinedStateStore::grow() {
  std::vector<Slot> old(table_.size() * 2);
  old.swap(table_);
  --shift_;
  const std::size_t mask = table_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kEmpty) continue;
    std::size_t i = slot_of(s.hash);
    while (table_[i].id != kEmpty) i = (i + 1) & mask;
    table_[i] = s;
  }
}

RefinedStateStore::Interned RefinedStateStore::intern(
    std::span<const std::uint32_t> words, std::uint64_t hash) {
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = slot_of(tag);
  for (; table_[i].id != kEmpty; i = (i + 1) & mask) {
    if (table_[i].hash != tag) continue;
    const std::span<const std::uint32_t> have = state(table_[i].id);
    if (std::equal(have.begin(), have.end(), words.begin(), words.end()))
      return {table_[i].id, false};
  }
  const Id id = static_cast<Id>(starts_.size());
  std::uint32_t* p = allocate(words.size() + 1);
  p[0] = static_cast<std::uint32_t>(words.size());
  std::copy(words.begin(), words.end(), p + 1);
  starts_.push_back(p);
  table_[i] = {tag, id};
  if (2 * starts_.size() > table_.size()) grow();
  return {id, true};
}

}  // namespace rtv
