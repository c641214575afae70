// An allocator that maps whole pages straight from the operating system.
//
// For large tables that many threads build and free, such as an unfolding's
// concurrency rows.  glibc serves a block of 128 KiB or more with mmap at
// first, but each such block freed raises its mmap threshold past the block,
// so the next table of that size lands in the allocating thread's arena, and
// each worker arena keeps a table's worth of memory after the table is gone.
// Mapping the pages directly returns them to the system when the table dies.
#pragma once

#include <cstddef>

namespace punt::util {

/// Zero-filled, page-aligned memory for at least `bytes` bytes; throws
/// std::bad_alloc when the system refuses.
void* map_pages(std::size_t bytes);
/// Returns memory from map_pages(bytes) to the system.
void unmap_pages(void* pages, std::size_t bytes) noexcept;

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) {}

  T* allocate(std::size_t n) { return static_cast<T*>(map_pages(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { unmap_pages(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PageAllocator<U>& /*other*/) const {
    return true;
  }
};

}  // namespace punt::util
