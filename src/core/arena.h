// Per-thread bump arena for PHY trial scratch.
//
// A Monte-Carlo sweep runs the same receive chain thousands of times; the
// chain's intermediate waveforms used to be fresh std::vector allocations
// every trial. The arena replaces that churn with pointer bumps into
// thread-local blocks that are reused across trials: a frame is opened at
// the top of a trial, scratch spans are carved out of it, and closing the
// frame rewinds the arena so the next trial reuses the same memory.
//
// Determinism: the arena hands out memory only — no addresses ever reach
// results, hashes, or orderings (detlint's ptr-order rule still applies to
// users). Each thread owns its arena outright, so there is no sharing to
// synchronize and no allocation-order coupling between threads.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace itb::core {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 1u << 20;  // 1 MiB

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Position snapshot for frame-style rewind.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  /// Raw aligned allocation. The returned storage is uninitialized and
  /// stays valid until the enclosing mark is rewound (or the arena dies).
  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    while (active_ < blocks_.size()) {
      Block& b = blocks_[active_];
      const std::size_t at = align_up(b.used, align);
      if (at + bytes <= b.size) {
        b.used = at + bytes;
        return b.data.get() + at;
      }
      // Leave the block's bump position untouched (rewind still works) and
      // spill to the next block.
      ++active_;
    }
    const std::size_t size = bytes + align > block_bytes_
                                 ? bytes + align
                                 : block_bytes_;
    // for_overwrite: the storage is handed out uninitialized, so zeroing a
    // fresh block would only touch pages nobody reads.
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
    active_ = blocks_.size() - 1;
    Block& b = blocks_.back();
    const std::size_t at = align_up(0, align);
    b.used = at + bytes;
    return b.data.get() + at;
  }

  /// Typed scratch span (uninitialized; T must be trivially destructible —
  /// rewind never runs destructors).
  template <typename T>
  std::span<T> alloc_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is rewound without destructor calls");
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    return {p, n};
  }

  /// Typed scratch span, value-initialized (zeroed for arithmetic T).
  template <typename T>
  std::span<T> alloc_span_zeroed(std::size_t n) {
    std::span<T> s = alloc_span<T>(n);
    for (T& v : s) v = T{};
    return s;
  }

  Mark mark() const { return {active_, active_ < blocks_.size()
                                             ? blocks_[active_].used
                                             : 0}; }

  void rewind(Mark m) {
    for (std::size_t b = m.block + 1; b < blocks_.size(); ++b)
      blocks_[b].used = 0;
    if (m.block < blocks_.size()) blocks_[m.block].used = m.used;
    active_ = m.block;
  }

  /// Total bytes currently reserved from the OS (capacity, not live use).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Bytes live in the current frame stack.
  std::size_t used_bytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.used;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t align_up(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t block_bytes_;
};

/// The calling thread's scratch arena. Blocks persist for the thread's
/// lifetime, so steady-state sweeps allocate nothing after warm-up.
Arena& thread_arena();

/// RAII frame: captures the arena position on entry and rewinds on exit.
/// Spans carved inside the frame must not escape it.
class ArenaFrame {
 public:
  explicit ArenaFrame(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ArenaFrame() : ArenaFrame(thread_arena()) {}
  ~ArenaFrame() { arena_.rewind(mark_); }
  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;

  Arena& arena() { return arena_; }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace itb::core
