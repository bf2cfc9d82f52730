#ifndef AGGVIEW_STORAGE_IO_ACCOUNTANT_H_
#define AGGVIEW_STORAGE_IO_ACCOUNTANT_H_

#include <atomic>
#include <cstdint>

#include "common/thread_annotations.h"

namespace aggview {

/// Page geometry shared by the storage layer and the cost model. Using the
/// same unit on both sides is what makes "estimated IO" and "measured IO"
/// directly comparable in the experiments.
inline constexpr int64_t kPageSizeBytes = 8192;

/// Number of buffer pages available to each operator (the `B` of the
/// textbook cost formulas). Small enough that the experiment-scale tables do
/// not all fit in memory, so join/sort/aggregate algorithm choice matters.
inline constexpr int64_t kBufferPages = 64;

/// Rows per page for a given row width, and pages for a given row count —
/// the single definition used everywhere.
int64_t RowsPerPage(int64_t row_width_bytes);
int64_t PagesForRows(int64_t rows, int64_t row_width_bytes);

/// Counts page reads and writes charged by the execution engine. The
/// executor charges base-table scans per page and charges spill passes of
/// out-of-core joins / sorts / aggregations, mirroring the cost model's
/// formulas with actual (not estimated) cardinalities.
///
/// Charging is atomic (relaxed increments — the counters carry no ordering),
/// so one accountant may be shared by operators running on different worker
/// threads. The parallel executor additionally makes every data-dependent
/// charge once, on totals summed over the workers (by the driver after a
/// merge, or by the last worker to finish), which keeps the charged page
/// counts byte-identical to serial execution at any thread count.
class IoAccountant {
 public:
  IoAccountant() = default;
  IoAccountant(const IoAccountant&) = delete;
  IoAccountant& operator=(const IoAccountant&) = delete;

  void ChargeRead(int64_t pages) {
    reads_.fetch_add(pages, std::memory_order_relaxed);
  }
  void ChargeWrite(int64_t pages) {
    writes_.fetch_add(pages, std::memory_order_relaxed);
  }
  void Reset() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
  }

  int64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  int64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  int64_t total() const { return reads() + writes(); }

 private:
  std::atomic<int64_t> reads_ AGGVIEW_LOCK_FREE("relaxed atomic counter"){0};
  std::atomic<int64_t> writes_ AGGVIEW_LOCK_FREE("relaxed atomic counter"){0};
};

}  // namespace aggview

#endif  // AGGVIEW_STORAGE_IO_ACCOUNTANT_H_
