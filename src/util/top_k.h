/// \file top_k.h
/// \brief Bounded top-k accumulator for the kNN scans: keeps the k
/// smallest (distance, index) pairs seen so far in a max-heap, so a
/// scan over n candidates costs O(n log k) with k live entries instead
/// of materializing and partially sorting all n.
///
/// Ordering contract: candidates compare by (distance, index)
/// lexicographically — equal distances break toward the *smaller*
/// index. Every kNN path (linear scan, pruned index, classifier
/// final-feature scan) uses this same rule, so ties resolve
/// identically everywhere and reported hit lists are a pure function
/// of the candidate set. Distances must be non-NaN (callers validate
/// inputs; NaN would poison the heap invariant).

#ifndef MOCEMG_UTIL_TOP_K_H_
#define MOCEMG_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace mocemg {

/// \brief One scored candidate: (distance, index).
using TopKEntry = std::pair<double, size_t>;

/// \brief Max-heap of the k best (smallest) candidates.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k = 0) { Reset(k); }

  /// \brief Clears and sets the capacity (k >= 1 for useful work).
  void Reset(size_t k) {
    k_ = k;
    heap_.clear();
    heap_.reserve(k);
  }

  size_t size() const { return heap_.size(); }
  size_t k() const { return k_; }
  bool full() const { return heap_.size() >= k_; }

  /// \brief The current k-th best distance: +inf until the heap is
  /// full, afterwards the largest kept distance. A candidate with
  /// distance strictly greater than this can never enter.
  double worst() const {
    return full() ? heap_.front().first
                  : std::numeric_limits<double>::infinity();
  }

  /// \brief Offers (distance, index); keeps it iff it is among the k
  /// best seen so far under the (distance, index) order.
  void Push(double distance, size_t index) {
    if (k_ == 0) return;
    const TopKEntry entry{distance, index};
    if (heap_.size() < k_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end());
      return;
    }
    if (entry < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  /// \brief Writes the kept entries ascending by (distance, index)
  /// into `out` (replacing its contents). The heap stays valid for
  /// further pushes only after the next Reset.
  void ExtractSorted(std::vector<TopKEntry>* out) {
    std::sort_heap(heap_.begin(), heap_.end());
    out->assign(heap_.begin(), heap_.end());
    heap_.clear();
  }

 private:
  size_t k_ = 0;
  /// std::pair's operator< is exactly the (distance, index)
  /// lexicographic order; the default std::push_heap comparator makes
  /// this a max-heap with the worst kept candidate at front().
  std::vector<TopKEntry> heap_;
};

}  // namespace mocemg

#endif  // MOCEMG_UTIL_TOP_K_H_
