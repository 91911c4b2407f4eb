// A growable power-of-two FIFO ring: push/pop are an index increment and a
// masked store/load into one contiguous buffer, with none of std::deque's
// segment bookkeeping.  The link's in-flight symbols and a switch port's
// packet records both sit on the per-byte path, so it is header-only.  The
// ring allocates nothing until its first push and then doubles only when
// full, so each ring is sized to what it has held at once.
#ifndef SRC_COMMON_RING_H_
#define SRC_COMMON_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace autonet {

template <typename T>
class Ring {
 public:
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == buf_.size(); }
  std::size_t size() const { return tail_ - head_; }
  T& front() { return buf_[head_ & (buf_.size() - 1)]; }
  const T& front() const { return buf_[head_ & (buf_.size() - 1)]; }
  T& back() { return buf_[(tail_ - 1) & (buf_.size() - 1)]; }
  void push_back(T v) {
    if (full()) {
      Grow();
    }
    buf_[tail_ & (buf_.size() - 1)] = std::move(v);
    ++tail_;
  }
  // Moves the front element out, so a slot keeps no resource it held.
  T pop_front() { return std::move(buf_[head_++ & (buf_.size() - 1)]); }
  // Discards the first n elements (trivially copyable T only).
  void drop_front(std::size_t n) { head_ += n; }
  void clear() {
    while (!empty()) {
      pop_front();
    }
  }
  // The i-th element from the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }

 private:
  static constexpr std::size_t kInitialCapacity = 4;

  void Grow() {
    std::vector<T> bigger(buf_.empty() ? kInitialCapacity : buf_.size() * 2);
    std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace autonet

#endif  // SRC_COMMON_RING_H_
