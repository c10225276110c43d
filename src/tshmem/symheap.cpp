#include "tshmem/symheap.hpp"

#include <cstring>
#include <new>
#include <stdexcept>

namespace tshmem {

SymHeap::SymHeap(std::byte* base, std::size_t bytes)
    : base_(base), capacity_(bytes) {
  if (base == nullptr || bytes < sizeof(Block) + kAlign) {
    throw std::invalid_argument("SymHeap region too small");
  }
  if (reinterpret_cast<std::uintptr_t>(base) % kAlign != 0) {
    throw std::invalid_argument("SymHeap base must be 16-byte aligned");
  }
  head_ = new (base_) Block{bytes - sizeof(Block), nullptr, nullptr, true,
                            kMagic};
}

void* SymHeap::alloc(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (cap_would_deny(bytes)) return nullptr;  // injected heap pressure
  const std::size_t want = align_up(bytes);
  for (Block* b = head_; b != nullptr; b = b->next) {
    if (b->free && b->size >= want) {
      split(b, want);
      b->free = false;
      return payload_of(b);
    }
  }
  return nullptr;  // shmalloc returns NULL on exhaustion
}

void* SymHeap::memalign(std::size_t alignment, std::size_t bytes) {
  if (alignment < kAlign || (alignment & (alignment - 1)) != 0) {
    return nullptr;
  }
  if (bytes == 0) return nullptr;
  if (cap_would_deny(bytes)) return nullptr;  // injected heap pressure
  const std::size_t want = align_up(bytes);
  for (Block* b = head_; b != nullptr; b = b->next) {
    if (!b->free) continue;
    auto payload = reinterpret_cast<std::uintptr_t>(payload_of(b));
    const std::uintptr_t aligned = (payload + alignment - 1) & ~(alignment - 1);
    const std::size_t skew = aligned - payload;
    if (b->size < skew + want) continue;
    if (skew != 0) {
      // Carve a leading free block so the aligned payload gets its own
      // header immediately before it.
      if (skew < sizeof(Block) + kAlign) {
        // Not enough room for a split header; try the next candidate
        // alignment position within this block.
        const std::uintptr_t aligned2 = aligned + alignment;
        const std::size_t skew2 = aligned2 - payload;
        if (b->size < skew2 + want || skew2 < sizeof(Block) + kAlign) {
          continue;
        }
        split(b, skew2 - sizeof(Block));
        Block* tail = b->next;
        split(tail, want);
        tail->free = false;
        return payload_of(tail);
      }
      split(b, skew - sizeof(Block));
      Block* tail = b->next;
      split(tail, want);
      tail->free = false;
      return payload_of(tail);
    }
    split(b, want);
    b->free = false;
    return payload_of(b);
  }
  return nullptr;
}

void SymHeap::split(Block* b, std::size_t payload) {
  // Splits `b` (free, size >= payload) so its payload becomes exactly
  // `payload`, creating a trailing free block when worthwhile.
  if (b->size >= payload + sizeof(Block) + kAlign) {
    auto* rest = new (reinterpret_cast<std::byte*>(payload_of(b)) + payload)
        Block{b->size - payload - sizeof(Block), b, b->next, true, kMagic};
    if (b->next != nullptr) b->next->prev = rest;
    b->next = rest;
    b->size = payload;
  }
}

SymHeap::Block* SymHeap::block_of(void* p) const {
  if (!owns(p)) {
    throw std::invalid_argument("pointer outside symmetric heap");
  }
  auto* b = reinterpret_cast<Block*>(static_cast<std::byte*>(p) -
                                     sizeof(Block));
  if (b->magic != kMagic) {
    throw std::invalid_argument("corrupted or invalid symmetric heap block");
  }
  return b;
}

void SymHeap::free(void* p) {
  if (p == nullptr) return;
  Block* b = block_of(p);
  if (b->free) {
    throw std::invalid_argument("double free in symmetric heap");
  }
  b->free = true;
  coalesce(b);
}

void SymHeap::coalesce(Block* b) {
  if (b->next != nullptr && b->next->free) {
    Block* n = b->next;
    b->size += n->size + sizeof(Block);
    b->next = n->next;
    if (n->next != nullptr) n->next->prev = b;
    n->magic = 0;
  }
  if (b->prev != nullptr && b->prev->free) {
    Block* p = b->prev;
    p->size += b->size + sizeof(Block);
    p->next = b->next;
    if (b->next != nullptr) b->next->prev = p;
    b->magic = 0;
  }
}

void* SymHeap::realloc(void* p, std::size_t bytes) {
  if (p == nullptr) return alloc(bytes);
  if (bytes == 0) {
    free(p);
    return nullptr;
  }
  Block* b = block_of(p);
  const std::size_t want = align_up(bytes);
  if (b->size >= want) {
    split(b, want);
    // The split-off remainder may now sit next to an existing free block.
    if (b->next != nullptr && b->next->free) coalesce(b->next);
    return p;
  }
  // Try absorbing the next free block in place.
  if (b->next != nullptr && b->next->free &&
      b->size + sizeof(Block) + b->next->size >= want) {
    Block* n = b->next;
    b->size += n->size + sizeof(Block);
    b->next = n->next;
    if (n->next != nullptr) n->next->prev = b;
    n->magic = 0;
    split(b, want);
    if (b->next != nullptr && b->next->free) coalesce(b->next);
    return p;
  }
  void* moved = alloc(bytes);
  if (moved == nullptr) return nullptr;  // original block untouched
  std::memcpy(moved, p, b->size);
  free(p);
  return moved;
}

std::size_t SymHeap::bytes_in_use() const noexcept {
  std::size_t total = 0;
  for (Block* b = head_; b != nullptr; b = b->next) {
    if (!b->free) total += b->size;
  }
  return total;
}

std::size_t SymHeap::bytes_free() const noexcept {
  std::size_t total = 0;
  for (Block* b = head_; b != nullptr; b = b->next) {
    if (b->free) total += b->size;
  }
  return total;
}

std::size_t SymHeap::block_count() const noexcept {
  std::size_t n = 0;
  for (Block* b = head_; b != nullptr; b = b->next) ++n;
  return n;
}

std::size_t SymHeap::largest_free_block() const noexcept {
  std::size_t best = 0;
  for (Block* b = head_; b != nullptr; b = b->next) {
    if (b->free && b->size > best) best = b->size;
  }
  return best;
}

bool SymHeap::owns(const void* p) const noexcept {
  const auto* bp = static_cast<const std::byte*>(p);
  return bp >= base_ + sizeof(Block) && bp < base_ + capacity_;
}

std::size_t SymHeap::allocation_size(const void* p) const {
  Block* b = block_of(const_cast<void*>(p));
  if (b->free) throw std::invalid_argument("block is free");
  return b->size;
}

bool SymHeap::cap_would_deny(std::size_t bytes) const noexcept {
  return cap_bytes_ != 0 && bytes_in_use() + align_up(bytes) > cap_bytes_;
}

bool SymHeap::contains_range(const void* p, std::size_t bytes) const noexcept {
  const auto* bp = static_cast<const std::byte*>(p);
  for (const Block* b = head_; b != nullptr; b = b->next) {
    if (b->free) continue;
    const auto* payload =
        reinterpret_cast<const std::byte*>(b) + sizeof(Block);
    // Compared as sizes so a huge `bytes` cannot overflow the pointer.
    if (bp >= payload && bp <= payload + b->size &&
        bytes <= static_cast<std::size_t>(payload + b->size - bp)) {
      return true;
    }
  }
  return false;
}

bool SymHeap::validate() const noexcept {
  std::size_t accounted = 0;
  Block* prev = nullptr;
  for (Block* b = head_; b != nullptr; b = b->next) {
    if (b->magic != kMagic) return false;
    if (b->prev != prev) return false;
    if (prev != nullptr && prev->free && b->free) return false;  // uncoalesced
    const auto* start = reinterpret_cast<const std::byte*>(b);
    if (start < base_ || start + sizeof(Block) + b->size > base_ + capacity_) {
      return false;
    }
    accounted += sizeof(Block) + b->size;
    prev = b;
  }
  return accounted == capacity_;
}

}  // namespace tshmem
