// SmallVector<T, N>: a vector with inline storage for up to N elements.
//
// The super covering stores one polygon-reference list per cell; for largely
// disjoint polygon sets the vast majority of cells carry one or two
// references (the paper inlines up to two references into the trie for the
// same reason). Keeping short lists inline avoids one heap allocation per
// cell during the build phase.
//
// Restricted to trivially copyable T, which is all this codebase needs.

#ifndef ACTJOIN_UTIL_SMALL_VECTOR_H_
#define ACTJOIN_UTIL_SMALL_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <type_traits>

#include "util/check.h"

namespace actjoin::util {

template <typename T, uint32_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector requires trivially copyable T");
  static_assert(N >= 1, "inline capacity must be at least 1");

 public:
  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  explicit SmallVector(std::span<const T> init) {
    reserve(static_cast<uint32_t>(init.size()));
    for (const T& v : init) push_back(v);
  }

  SmallVector(const SmallVector& other) { CopyFrom(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      FreeHeap();
      size_ = 0;
      capacity_ = N;
      CopyFrom(other);
    }
    return *this;
  }

  SmallVector(SmallVector&& other) noexcept { MoveFrom(std::move(other)); }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  ~SmallVector() { FreeHeap(); }

  T* data() { return IsInline() ? InlinePtr() : heap_; }
  const T* data() const { return IsInline() ? InlinePtr() : heap_; }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t capacity() const { return capacity_; }

  T& operator[](uint32_t i) { return data()[i]; }
  const T& operator[](uint32_t i) const { return data()[i]; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void push_back(const T& v) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    data()[size_++] = v;
  }

  void pop_back() {
    ACT_CHECK(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  void resize(uint32_t n) {
    if (n > capacity_) Grow(n);
    if (n > size_) std::memset(data() + size_, 0, (n - size_) * sizeof(T));
    size_ = n;
  }

  void reserve(uint32_t n) {
    if (n > capacity_) Grow(n);
  }

  bool operator==(const SmallVector& other) const {
    return size_ == other.size_ &&
           std::equal(begin(), end(), other.begin());
  }

 private:
  bool IsInline() const { return capacity_ <= N; }

  T* InlinePtr() { return reinterpret_cast<T*>(inline_); }
  const T* InlinePtr() const { return reinterpret_cast<const T*>(inline_); }

  void Grow(uint32_t new_cap) {
    new_cap = std::max(new_cap, uint32_t{2} * N);
    T* fresh = new T[new_cap];
    std::memcpy(fresh, data(), size_ * sizeof(T));
    FreeHeap();
    heap_ = fresh;
    capacity_ = new_cap;
  }

  void FreeHeap() {
    if (!IsInline()) {
      delete[] heap_;
      heap_ = nullptr;
    }
  }

  void CopyFrom(const SmallVector& other) {
    reserve(other.size_);
    std::memcpy(data(), other.data(), other.size_ * sizeof(T));
    size_ = other.size_;
  }

  void MoveFrom(SmallVector&& other) noexcept {
    if (other.IsInline()) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      capacity_ = N;  // NOLINT(bugprone-use-after-move): raw byte copy
    } else {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
    }
    size_ = other.size_;
    other.size_ = 0;
    other.capacity_ = N;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  union {
    alignas(T) unsigned char inline_[N * sizeof(T)];
    T* heap_;
  };
};

}  // namespace actjoin::util

#endif  // ACTJOIN_UTIL_SMALL_VECTOR_H_
