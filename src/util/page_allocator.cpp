#include "src/util/page_allocator.hpp"

#include <sys/mman.h>

#include <new>

namespace punt::util {

void* map_pages(std::size_t bytes) {
  // mmap rejects a zero length; one page keeps allocate(0) well defined.
  void* pages = ::mmap(nullptr, bytes == 0 ? 1 : bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

void unmap_pages(void* pages, std::size_t bytes) noexcept {
  ::munmap(pages, bytes == 0 ? 1 : bytes);
}

}  // namespace punt::util
