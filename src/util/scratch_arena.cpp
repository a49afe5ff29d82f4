#include "util/scratch_arena.h"

#include <algorithm>

namespace adavp::util {

ScratchArena::ScratchArena(std::size_t initial_capacity) {
  Block first;
  first.size = std::max<std::size_t>(initial_capacity, 64);
  first.data = std::make_unique_for_overwrite<std::byte[]>(first.size);
  blocks_.push_back(std::move(first));
}

ScratchArena& ScratchArena::thread_local_arena() {
  thread_local ScratchArena arena;
  return arena;
}

void* ScratchArena::alloc_bytes(std::size_t bytes, std::size_t alignment) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    Block& block = blocks_[block_index_];
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(block.data.get());
    const std::uintptr_t cursor = base + offset_;
    const std::uintptr_t aligned = (cursor + alignment - 1) & ~(alignment - 1);
    if (aligned + bytes <= base + block.size) {
      offset_ = static_cast<std::size_t>(aligned - base) + bytes;
      return reinterpret_cast<void*>(aligned);
    }
    // Advance to the next block, growing geometrically so steady-state use
    // settles into block 0 after a few calls.
    if (block_index_ + 1 == blocks_.size()) {
      Block next;
      next.size = std::max(blocks_.back().size * 2, bytes + alignment);
      next.data = std::make_unique_for_overwrite<std::byte[]>(next.size);
      blocks_.push_back(std::move(next));
    }
    ++block_index_;
    offset_ = 0;
  }
}

void ScratchArena::rewind(Mark m) {
  block_index_ = std::min(m.block, blocks_.size() - 1);
  offset_ = m.offset;
}

std::size_t ScratchArena::capacity() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

}  // namespace adavp::util
