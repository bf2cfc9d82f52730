#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>

#include "analysis/dataflow.h"
#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "obs/runtime_stats.h"

namespace aggview {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pages occupied by `rows` rows whose layout has `width` bytes.
double ActualPages(int64_t rows, int64_t width) {
  return CostModel::Pages(static_cast<double>(rows), width);
}

/// Concatenated layout of two inputs.
RowLayout ConcatLayouts(const RowLayout& a, const RowLayout& b) {
  std::vector<ColId> cols = a.columns();
  for (ColId c : b.columns()) cols.push_back(c);
  return RowLayout(cols);
}

/// Writes a|b into `out` (assumed empty), reusing its storage.
void ConcatInto(const Row& a, const Row& b, Row* out) {
  out->reserve(a.size() + b.size());
  out->insert(out->end(), a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
}

/// Drains `op` batch-by-batch into `rows` (Open-time materialization).
Status Drain(Operator* op, int batch_size, std::vector<Row>* rows) {
  RowBatch batch(batch_size);
  while (true) {
    auto more = op->Next(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    for (int i = 0; i < batch.size(); ++i) {
      rows->push_back(std::move(batch.row(i)));
    }
  }
}

}  // namespace

// ----------------------------------------------------------------- Operator

Operator::~Operator() = default;

Status Operator::Open() {
  if (stats_ == nullptr) return OpenImpl();
  int64_t t0 = NowNs();
  Status s = OpenImpl();
  stats_->open_ns += NowNs() - t0;
  return s;
}

Result<bool> Operator::Next(RowBatch* out) {
  out->Clear();
  if (stats_ == nullptr && verify_ == nullptr) return NextBatchImpl(out);
  int64_t t0 = stats_ != nullptr ? NowNs() : 0;
  Result<bool> r = NextBatchImpl(out);
  if (stats_ != nullptr) {
    stats_->next_ns += NowNs() - t0;
    ++stats_->next_calls;
    if (r.ok() && *r) {
      ++stats_->batches_produced;
      stats_->rows_produced += out->size();
    }
  }
  if (verify_ != nullptr && r.ok() && *r) {
    AGGVIEW_RETURN_NOT_OK(verify_->CheckBatch(verify_node_, layout_, *out));
  }
  return r;
}

void Operator::Close() { CloseImpl(); }

void Operator::InitWorkerClone(const Operator& primary) {
  layout_ = primary.layout_;
  batch_size_ = primary.batch_size_;
  exec_ = primary.exec_;
  verify_ = primary.verify_;
  verify_node_ = primary.verify_node_;
  stats_ = exec_->WorkerStats(primary.stats_);
}

void Operator::ChargeRead(IoAccountant* io, int64_t pages) {
  if (io != nullptr) io->ChargeRead(pages);
  if (stats_ != nullptr) stats_->pages_charged += pages;
}

void Operator::ChargeWrite(IoAccountant* io, int64_t pages) {
  if (io != nullptr) io->ChargeWrite(pages);
  if (stats_ != nullptr) stats_->pages_charged += pages;
}

void Operator::CountInput(int64_t rows) {
  if (stats_ != nullptr) stats_->input_rows += rows;
}

// -------------------------------------------------- morsel-parallel driving

int MorselWorkers(const Operator& pipeline) {
  ExecRuntime* rt = pipeline.exec_runtime();
  if (rt == nullptr || !rt->parallel()) return 1;
  if (!pipeline.CanRunMorselParallel()) return 1;
  return rt->threads();
}

Status RunMorselParallel(Operator* primary, int workers,
                         const std::function<Status(int, Operator*)>& consume) {
  ExecRuntime* rt = primary->exec_runtime();
  if (workers <= 1 || rt == nullptr || !primary->CanRunMorselParallel()) {
    return consume(0, primary);
  }
  std::vector<OperatorPtr> clones;
  clones.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    clones.push_back(primary->CloneForWorker());
  }
  std::vector<Status> status(static_cast<size_t>(workers), Status::OK());
  rt->pool()->ParallelFor(workers, [&](int w) {
    Operator* instance =
        w == 0 ? primary : clones[static_cast<size_t>(w - 1)].get();
    status[static_cast<size_t>(w)] = consume(w, instance);
  });
  // Fold every clone's counters even on error, so they stay consistent. A
  // failed instance never reached end of stream, so no end-of-stream charge
  // fired for its pipeline. The first worker's error (by index) wins,
  // deterministically.
  rt->FoldWorkerStats();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ---------------------------------------------------------------- TableScan

TableScanOp::TableScanOp(const Table* table, RowLayout table_layout,
                         std::vector<Predicate> filter, RowLayout output,
                         const ColumnCatalog* columns, IoAccountant* io,
                         bool charge_io, ColId rowid_col)
    : table_(table),
      table_layout_(std::move(table_layout)),
      filter_(std::move(filter)),
      columns_(columns),
      io_(io),
      charge_io_(charge_io) {
  layout_ = std::move(output);
  for (ColId c : layout_.columns()) {
    if (rowid_col != kInvalidColId && c == rowid_col) {
      projection_.push_back(kRowIdIndex);
    } else {
      projection_.push_back(table_layout_.IndexOf(c));
    }
  }
}

TableScanOp::TableScanOp(const TableScanOp& primary, WorkerCloneTag)
    : table_(primary.table_),
      table_layout_(primary.table_layout_),
      filter_(primary.filter_),
      bound_filter_(primary.bound_filter_),
      columns_(primary.columns_),
      projection_(primary.projection_),
      columns_base_(primary.columns_base_),
      io_(primary.io_),
      charge_io_(false),  // the primary charged the table's pages at Open
      morsels_(primary.morsels_) {
  InitWorkerClone(primary);
}

OperatorPtr TableScanOp::CloneForWorker() {
  return OperatorPtr(new TableScanOp(*this, WorkerCloneTag{}));
}

Status TableScanOp::OpenImpl() {
  morsels_ = std::make_shared<MorselDispenser>();
  if (exec_ != nullptr) morsels_->morsel_rows = exec_->morsel_rows();
  pos_ = pos_end_ = 0;
  if (charge_io_) ChargeRead(io_, table_->page_count());
  if (table_layout_.size() > table_->schema().num_columns()) {
    return Status::Internal("scan layout is wider than its table");
  }
  for (int idx : projection_) {
    if (idx < 0 && idx != kRowIdIndex) {
      return Status::Internal("scan projects a non-table column");
    }
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_filter_,
      BoundConjunction::Bind(filter_, table_layout_, *columns_, "scan"));
  columns_base_.clear();
  for (int c = 0; c < table_layout_.size(); ++c) {
    columns_base_.push_back(table_->column(c).data());
  }
  return Status::OK();
}

Result<bool> TableScanOp::NextBatchImpl(RowBatch* out) {
  const int64_t n = table_->row_count();
  const Value* const* cols = columns_base_.data();
  int64_t examined = 0;
  while (!out->full()) {
    if (pos_ >= pos_end_) {
      // Claim the next morsel. A lone instance claims every morsel in
      // ascending order — identical row order to the pre-morsel scan.
      int64_t start = morsels_->next.fetch_add(morsels_->morsel_rows,
                                               std::memory_order_relaxed);
      if (start >= n) break;
      pos_ = start;
      pos_end_ = std::min(n, start + morsels_->morsel_rows);
    }
    while (pos_ < pos_end_ && !out->full()) {
      const size_t rowid = static_cast<size_t>(pos_++);
      ++examined;
      if (!bound_filter_.Eval(ColumnCells{cols, rowid})) continue;
      Row& dst = out->AppendRow();
      dst.reserve(projection_.size());
      for (int idx : projection_) {
        if (idx == kRowIdIndex) {
          dst.push_back(Value::Int(static_cast<int64_t>(rowid)));
        } else {
          dst.push_back(cols[idx][rowid]);
        }
      }
    }
  }
  CountInput(examined);
  return !out->empty();
}

// ------------------------------------------------------------------- Filter

FilterOp::FilterOp(OperatorPtr child, std::vector<Predicate> preds,
                   const ColumnCatalog* columns)
    : child_(std::move(child)), preds_(std::move(preds)), columns_(columns) {
  layout_ = child_->layout();
}

FilterOp::FilterOp(const FilterOp& primary, OperatorPtr child)
    : child_(std::move(child)),
      preds_(primary.preds_),
      bound_preds_(primary.bound_preds_),
      columns_(primary.columns_) {
  InitWorkerClone(primary);
}

OperatorPtr FilterOp::CloneForWorker() {
  return OperatorPtr(new FilterOp(*this, child_->CloneForWorker()));
}

Status FilterOp::OpenImpl() {
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_preds_,
      BoundConjunction::Bind(preds_, layout_, *columns_, "filter"));
  return child_->Open();
}

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    auto more = child_->Next(out);
    if (!more.ok()) return more.status();
    if (!*more) return false;
    CountInput(out->size());
    // Selection compaction: swap survivors to the front (buffer pointer
    // swaps, no row copies) and truncate.
    int kept = 0;
    for (int i = 0; i < out->size(); ++i) {
      Row& row = out->row(i);
      if (bound_preds_.Eval(row)) {
        if (kept != i) out->row(kept).swap(row);
        ++kept;
      }
    }
    out->Truncate(kept);
    if (!out->empty()) return true;  // else the whole batch was filtered out
  }
}

void FilterOp::CloseImpl() { child_->Close(); }

// ------------------------------------------------------------------ Project

ProjectOp::ProjectOp(OperatorPtr child, RowLayout output)
    : child_(std::move(child)) {
  layout_ = std::move(output);
  for (ColId c : layout_.columns()) {
    projection_.push_back(child_->layout().IndexOf(c));
  }
}

ProjectOp::ProjectOp(const ProjectOp& primary, OperatorPtr child)
    : child_(std::move(child)), projection_(primary.projection_) {
  InitWorkerClone(primary);
}

OperatorPtr ProjectOp::CloneForWorker() {
  return OperatorPtr(new ProjectOp(*this, child_->CloneForWorker()));
}

Status ProjectOp::OpenImpl() {
  for (int idx : projection_) {
    if (idx < 0) return Status::Internal("projection references missing column");
  }
  return child_->Open();
}

Result<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  auto more = child_->Next(out);
  if (!more.ok()) return more.status();
  if (!*more) return false;
  CountInput(out->size());
  // Rewrite each row in place: build the projection in the reused scratch
  // buffer (projection may duplicate columns, so the row itself cannot be
  // the destination), then swap buffers — no allocation in steady state.
  for (int i = 0; i < out->size(); ++i) {
    Row& row = out->row(i);
    scratch_.clear();
    scratch_.reserve(projection_.size());
    for (int idx : projection_) {
      scratch_.push_back(row[static_cast<size_t>(idx)]);
    }
    row.swap(scratch_);
  }
  return true;
}

void ProjectOp::CloseImpl() { child_->Close(); }

// -------------------------------------------------------------- Hash tables

namespace {

/// log2 of the radix partitions of a join's held side or an aggregate's
/// groups built by workers. Sixteen keep a 4- or 8-thread pool busy through
/// the merge, and a 10k-key partition stays cache-sized.
constexpr int kHashPartitionBits = 4;

/// Key hash `h`'s partition among `parts` (1 or 1 << kHashPartitionBits):
/// its high bits, so the low bits choose a slot.
size_t PartitionOf(uint64_t h, size_t parts) {
  return (h >> (64 - kHashPartitionBits)) & (parts - 1);
}

/// The key hash of `row`'s cells `idx`: MurmurHash3's 64-bit finalizer, so
/// every input bit reaches every output bit, over the FNV fold of
/// Value::Hash, which hashes Int(3) and Real(3.0) alike.
uint64_t KeyHash(const Row& row, const std::vector<int>& idx) {
  uint64_t h = 1469598103934665603ull;
  for (int i : idx) {
    h ^= row[static_cast<size_t>(i)].Hash();
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Fibonacci hashing folded onto the low half: the product's high bits
/// choose a partition, the fold gives the low bits a slot. Both steps are
/// bijections, so two INT64 keys share a hash only when they are equal.
uint64_t IntKeyHash(int64_t k) {
  uint64_t h = static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}
/// The INT64 lane's NULL key. An INT64 key may share this hash; the lookup
/// tells the two apart by `null_group`.
constexpr uint64_t kNullKeyHash = 0x9e3779b97f4a7c15ULL;

/// Value equality of `a`'s cells `ai` and `b`'s cells `bi`, pairwise: a
/// held row's join key against a streamed row's. NULL equals NULL here; a
/// join keeps NULL keys out.
bool KeysEqual(const Row& a, const std::vector<int>& ai, const Row& b,
               const std::vector<int>& bi) {
  for (size_t k = 0; k < ai.size(); ++k) {
    if (a[static_cast<size_t>(ai[k])] != b[static_cast<size_t>(bi[k])]) {
      return false;
    }
  }
  return true;
}

/// True when any join-key column of `row` is NULL. SQL equality is never
/// true on NULL, so such rows cannot match under any join algorithm.
bool HasNullKey(const Row& row, const std::vector<int>& idx) {
  for (int i : idx) {
    if (row[static_cast<size_t>(i)].is_null()) return true;
  }
  return false;
}

/// The engine's hash index: dense int32_t entries (an aggregate's groups, a
/// join's held rows) with their key hashes, and an open-addressing index
/// (linear probing, at most half full) to one entry per distinct key, or per
/// distinct hash for a join.
class FlatIndex {
 public:
  size_t size() const { return hashes_.size(); }
  uint64_t hash(int32_t e) const { return hashes_[static_cast<size_t>(e)]; }

  /// The indexed entry with hash `h` for which `same(entry)` holds, or -1;
  /// either way `*slot` is where Add indexes an entry with that key.
  template <typename Same>
  int32_t Find(uint64_t h, const Same& same, size_t* slot) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.entry < 0 || (s.hash == h && same(s.entry))) {
        *slot = i;
        return s.entry;
      }
    }
  }
  /// Numbers a new entry with hash `h` and indexes it at `slot` (from Find,
  /// with no Add between), in place of the equal-keyed entry there if any.
  int32_t Add(uint64_t h, size_t slot) {
    const int32_t e = static_cast<int32_t>(size());
    hashes_.push_back(h);
    const bool fresh = slots_[slot].entry < 0;
    slots_[slot] = Slot{h, e};
    if (fresh && 2 * ++keys_ > slots_.size()) Grow();
    return e;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t entry = -1;  // -1: empty
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.entry < 0) continue;
      size_t i = s.hash & mask;
      while (slots_[i].entry >= 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<uint64_t> hashes_;
  std::vector<Slot> slots_ = std::vector<Slot>(16);
  uint32_t keys_ = 0;  // occupied slots
};

}  // namespace

// --------------------------------------------------------------------- Join

/// One partition of a join's held side: entry r is held row rows[r], and
/// next[r] the previous held row with its key hash (-1 ends the chain).
/// Rows chain by hash, not by key: past 2^53 Real(2^53) equals both
/// Int(2^53) and Int(2^53 + 1), which differ, so no one held key stands for
/// a chain, and a probe compares every row's key.
struct JoinOp::HeldPart : FlatIndex {
  std::vector<Row> rows;
  std::vector<int32_t> next;

  /// The newest held row whose key hashes to `h`, or -1.
  int32_t Chain(uint64_t h, size_t* slot) const {
    return Find(h, [](int32_t) { return true; }, slot);
  }
  /// Appends `row`, whose key hashes to `h`, at its chain's head.
  void Hold(Row row, uint64_t h) {
    size_t slot = 0;
    next.push_back(Chain(h, &slot));
    rows.push_back(std::move(row));
    Add(h, slot);
  }
};

/// The held side: 1 or 1 << kHashPartitionBits partitions, without NULL keys
/// (`drained_rows` and `pages` count them). `live_probes` counts the
/// streaming instances still probing; `probe_rows` sums the others' rows.
struct JoinOp::HeldTable {
  std::vector<HeldPart> parts AGGVIEW_LOCK_FREE(
      "built at Open; the merge's ParallelFor barrier publishes its "
      "disjoint partitions; immutable once shared with streaming clones");
  int64_t drained_rows = 0;
  double pages = 0.0;
  std::atomic<int> live_probes AGGVIEW_LOCK_FREE(
      "seq_cst decrement; the instance that takes it to zero charges"){1};
  std::atomic<int64_t> probe_rows AGGVIEW_LOCK_FREE(
      "seq_cst add, before the adding instance's live_probes decrement"){0};
};

JoinOp::JoinOp(OperatorPtr left, OperatorPtr right,
               std::vector<Predicate> preds, const ColumnCatalog* columns,
               IoAccountant* io, JoinCharge charge, bool left_outer,
               bool hold_left)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_outer_(left_outer),
      hold_left_(hold_left && !left_outer),
      charge_(charge),
      columns_(columns),
      io_(io) {
  const RowLayout& l = left_->layout();
  const RowLayout& r = right_->layout();
  layout_ = ConcatLayouts(l, r);
  left_width_ = l.RowWidth(*columns_);
  right_width_ = r.RowWidth(*columns_);
  JoinPredicates split = SplitJoinPredicates(preds, l, r);
  residual_ = std::move(split.residual);
  for (const auto& [lc, rc] : split.keys) {
    left_key_idx_.push_back(l.IndexOf(lc));
    right_key_idx_.push_back(r.IndexOf(rc));
  }
}

JoinOp::JoinOp(const JoinOp& primary, OperatorPtr streamed)
    : left_outer_(primary.left_outer_),
      hold_left_(primary.hold_left_),
      charge_(primary.charge_),
      residual_(primary.residual_),
      bound_residual_(primary.bound_residual_),
      columns_(primary.columns_),
      io_(primary.io_),
      left_width_(primary.left_width_),
      right_width_(primary.right_width_),
      left_key_idx_(primary.left_key_idx_),
      right_key_idx_(primary.right_key_idx_),
      held_(primary.held_) {
  // The held side was drained once, by the primary.
  (hold_left_ ? right_ : left_) = std::move(streamed);
  InitWorkerClone(primary);
  probe_ = RowBatch(batch_size_);
  // Runs on the driver before the region starts: one more instance must
  // finish its probe before the join charges.
  ++held_->live_probes;
}

OperatorPtr JoinOp::CloneForWorker() {
  return OperatorPtr(new JoinOp(*this, streamed()->CloneForWorker()));
}

Status JoinOp::Build() {
  // Each worker (or the serial run) drains its share into its own table,
  // dropping NULL keys, which never match, but counting them as drained.
  const int workers = MorselWorkers(*held());
  const size_t parts = workers > 1 ? size_t{1} << kHashPartitionBits : 1;
  const std::vector<int>& key_idx = held_key_idx();
  std::vector<std::vector<HeldPart>> tables(static_cast<size_t>(workers),
                                            std::vector<HeldPart>(parts));
  std::vector<int64_t> drained(static_cast<size_t>(workers), 0);
  AGGVIEW_RETURN_NOT_OK(RunMorselParallel(
      held(), workers, [&](int w, Operator* src) -> Status {
        std::vector<HeldPart>& table = tables[static_cast<size_t>(w)];
        RowBatch batch(batch_size_);
        while (true) {
          auto more = src->Next(&batch);
          if (!more.ok()) return more.status();
          if (!*more) return Status::OK();
          drained[static_cast<size_t>(w)] += batch.size();
          for (int i = 0; i < batch.size(); ++i) {
            Row& row = batch.row(i);
            if (HasNullKey(row, key_idx)) continue;
            uint64_t h = KeyHash(row, key_idx);
            table[PartitionOf(h, parts)].Hold(std::move(row), h);
          }
        }
      }));
  for (int64_t n : drained) held_->drained_rows += n;
  // Each partition appends workers 1..W-1 into worker 0, in worker order.
  auto merge = [&](int p) {
    HeldPart& into = tables[0][static_cast<size_t>(p)];
    for (size_t w = 1; w < tables.size(); ++w) {
      HeldPart& from = tables[w][static_cast<size_t>(p)];
      for (size_t r = 0; r < from.rows.size(); ++r) {
        into.Hold(std::move(from.rows[r]), from.hash(static_cast<int32_t>(r)));
      }
      from = HeldPart();
    }
  };
  if (parts > 1) exec_->pool()->ParallelFor(static_cast<int>(parts), merge);
  held_->parts = std::move(tables[0]);
  return Status::OK();
}

Status JoinOp::OpenImpl() {
  const std::string name =
      charge_.block_nested_loop ? "nested-loop join" : "hash join";
  // SplitJoinPredicates keys only columns both layouts contain, so every
  // key index is valid; a hash join needs at least one.
  if (!charge_.block_nested_loop && left_key_idx_.empty()) {
    return Status::Internal(name +
                            ": no equi-join conjunct between its inputs");
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_residual_,
      BoundConjunction::Bind(residual_, layout_, *columns_, name.c_str()));
  AGGVIEW_RETURN_NOT_OK(left_->Open());
  AGGVIEW_RETURN_NOT_OK(right_->Open());
  held_ = std::make_shared<HeldTable>();
  AGGVIEW_RETURN_NOT_OK(Build());
  CountInput(held_->drained_rows);
  held_->pages = ActualPages(held_->drained_rows,
                             hold_left_ ? left_width_ : right_width_);
  int64_t build_rows = 0;
  for (const HeldPart& part : held_->parts) build_rows += part.rows.size();
  if (stats_ != nullptr) stats_->hash_build_rows = build_rows;
  probe_ = RowBatch(batch_size_);
  probe_pos_ = 0;
  current_ = nullptr;
  streamed_rows_ = 0;
  probe_done_ = false;
  return Status::OK();
}

void JoinOp::FinishProbe() {
  if (probe_done_) return;
  probe_done_ = true;
  held_->probe_rows += streamed_rows_;
  // Every instance adds its rows before it leaves, so the one that takes
  // the live count to zero sees the full total.
  if (--held_->live_probes == 0) ChargeAtProbeEos(held_->probe_rows);
}

void JoinOp::ChargeAtProbeEos(int64_t streamed_rows) {
  // Same formulas as the cost model, on actual sizes. In a parallel probe
  // this runs once, in the last instance to finish, on every instance's
  // streamed rows summed — so the charge is byte-identical to the serial
  // engine's.
  double streamed_pages =
      ActualPages(streamed_rows, hold_left_ ? right_width_ : left_width_);
  double lp = hold_left_ ? held_->pages : streamed_pages;
  double rp = hold_left_ ? streamed_pages : held_->pages;
  if (charge_.block_nested_loop) {
    if (charge_.materialize_inner) ChargeWrite(io_, static_cast<int64_t>(rp));
    double per_pass = charge_.inner_pages_per_pass > 0.0
                          ? charge_.inner_pages_per_pass
                          : rp;
    ChargeRead(io_,
               static_cast<int64_t>(CostModel::BnlLocalCost(lp, per_pass)));
    return;
  }
  ChargeRead(io_, static_cast<int64_t>(lp + rp));
  double spill = CostModel::HashJoinLocalCost(lp, rp) - (lp + rp);
  ChargeWrite(io_, static_cast<int64_t>(spill / 2.0));
  ChargeRead(io_, static_cast<int64_t>(spill / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(spill / 2.0) * 2;
  }
}

Result<bool> JoinOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    // Emit the rest of the current streamed row's chain, the held rows its
    // key equals, then its outer padding if nothing matched. current_ points
    // into probe_, which stays untouched until every pending emission has
    // drained.
    if (current_ != nullptr) {
      while (match_ >= 0) {
        if (out->full()) return true;
        const Row& held_row = match_part_->rows[static_cast<size_t>(match_)];
        match_ = match_part_->next[static_cast<size_t>(match_)];
        if (!KeysEqual(held_row, held_key_idx(), *current_,
                       streamed_key_idx())) {
          continue;
        }
        Row& dst = out->AppendRow();
        if (hold_left_) {
          ConcatInto(held_row, *current_, &dst);
        } else {
          ConcatInto(*current_, held_row, &dst);
        }
        if (bound_residual_.Eval(dst)) {
          emitted_for_current_ = true;
        } else {
          out->PopRow();
        }
      }
      if (left_outer_ && !emitted_for_current_) {
        if (out->full()) return true;
        Row& dst = out->AppendRow();
        dst = *current_;
        dst.resize(static_cast<size_t>(layout_.size()), Value::Null());
      }
      current_ = nullptr;
    }
    // Advance to the next streamed row, pulling a fresh batch when this one
    // is spent; one virtual dispatch brings in batch_size_ streamed rows.
    if (probe_pos_ >= probe_.size()) {
      auto more = streamed()->Next(&probe_);
      if (!more.ok()) return more.status();
      if (!*more) {
        FinishProbe();
        return !out->empty();
      }
      streamed_rows_ += probe_.size();
      CountInput(probe_.size());
      probe_pos_ = 0;
    }
    current_ = &probe_.row(probe_pos_++);
    emitted_for_current_ = false;
    // SQL: a NULL key matches nothing (in outer mode the row still surfaces
    // as a padded row via the emission branch above).
    const std::vector<int>& key_idx = streamed_key_idx();
    if (HasNullKey(*current_, key_idx)) continue;
    if (stats_ != nullptr) ++stats_->hash_probes;
    uint64_t h = KeyHash(*current_, key_idx);
    const HeldPart& part =
        held_->parts[PartitionOf(h, held_->parts.size())];
    match_part_ = &part;
    size_t slot = 0;
    match_ = part.Chain(h, &slot);
  }
}

void JoinOp::CloseImpl() {
  if (left_ != nullptr) left_->Close();
  if (right_ != nullptr) right_->Close();
  held_.reset();
}

// --------------------------------------------------------------------- Sort

SortOp::SortOp(OperatorPtr child, std::vector<OrderKey> keys,
               const ColumnCatalog* columns, IoAccountant* io)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      columns_(columns),
      io_(io) {
  layout_ = child_->layout();
  for (const OrderKey& key : keys_) {
    key_idx_.push_back(layout_.IndexOf(key.column));
  }
}

Status SortOp::OpenImpl() {
  for (int idx : key_idx_) {
    if (idx < 0) return Status::Internal("sort key column missing from input");
  }
  AGGVIEW_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  AGGVIEW_RETURN_NOT_OK(Drain(child_.get(), batch_size_, &rows_));
  CountInput(static_cast<int64_t>(rows_.size()));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (size_t k = 0; k < keys_.size(); ++k) {
                       size_t i = static_cast<size_t>(key_idx_[k]);
                       int c = a[i].Compare(b[i]);
                       if (c != 0) return keys_[k].descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  double pages = ActualPages(static_cast<int64_t>(rows_.size()),
                             layout_.RowWidth(*columns_));
  double sort_io = CostModel::SortCost(pages);
  ChargeWrite(io_, static_cast<int64_t>(sort_io / 2.0));
  ChargeRead(io_, static_cast<int64_t>(sort_io / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(sort_io / 2.0) * 2;
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < rows_.size() && !out->full()) {
    out->AppendRow() = rows_[pos_++];
  }
  return !out->empty();
}

void SortOp::CloseImpl() {
  child_->Close();
  rows_.clear();
}

// ------------------------------------------------------------ HashAggregate

/// One flat group table: groups are the index's entries, numbered in
/// first-seen order. Group g's key is int_keys[g] on the INT64 lane (NULL
/// when g == null_group) or row_keys[g] on the generic lane, and its
/// accumulators are the n_aggs entries of `accs` from g * n_aggs.
struct HashAggregateOp::GroupTable : FlatIndex {
  // First, in FlatIndex's tail padding: a table stays 128 bytes (asserted
  // in WorkerGroups), so finding a row's partition costs a shift, not a
  // multiply.
  int32_t null_group = -1;
  std::vector<int64_t> int_keys;
  std::vector<Row> row_keys;
  std::vector<AggAccumulator> accs;

  /// INT64 lane: IntKeyHash is a bijection, so equal hashes mean equal
  /// keys unless one side is the NULL group.
  int32_t FindInt(bool null, uint64_t h, size_t* slot) const {
    return Find(h, [&](int32_t g) { return (g == null_group) == null; },
                slot);
  }
  int32_t FindRow(const Row& key, uint64_t h, size_t* slot) const {
    return Find(h, [&](int32_t g) { return RowEq()(row_keys[g], key); },
                slot);
  }
  /// Generic lane: the group whose key is `row`'s cells `idx`.
  int32_t FindCells(const Row& row, const std::vector<int>& idx, uint64_t h,
                    size_t* slot) const {
    auto same = [&](int32_t g) {
      for (size_t k = 0; k < idx.size(); ++k) {
        if (row_keys[g][k] != row[static_cast<size_t>(idx[k])]) return false;
      }
      return true;
    };
    return Find(h, same, slot);
  }

  /// Number a new group and index it at `slot` (from Find). The caller
  /// appends its accumulators.
  int32_t AddInt(int64_t k, bool null, uint64_t h, size_t slot) {
    if (null) null_group = static_cast<int32_t>(size());
    int_keys.push_back(k);
    return Add(h, slot);
  }
  int32_t AddRow(Row key, uint64_t h, size_t slot) {
    row_keys.push_back(std::move(key));
    return Add(h, slot);
  }
};

/// One worker's groups (or the serial run's), split into radix partitions
/// by PartitionOf. The lane is per worker: migrating it re-partitions every
/// group by the generic hash.
struct HashAggregateOp::WorkerGroups {
  static_assert(sizeof(GroupTable) == 128,
                "GroupTable outgrew 128 bytes: PartOf would multiply");
  bool int_lane = false;
  std::vector<GroupTable> parts;

  GroupTable& PartOf(uint64_t h) {
    return parts[PartitionOf(h, parts.size())];
  }

  /// Re-keys every INT64-lane group as the one-column Row the generic lane
  /// would have built for its input rows (Int(k), or NULL) and leaves the
  /// lane. Distinct lane keys stay distinct Rows.
  void MigrateToGeneric(size_t n_aggs) {
    std::vector<GroupTable> old = std::move(parts);
    parts = std::vector<GroupTable>(old.size());
    int_lane = false;
    for (GroupTable& from : old) {
      for (size_t g = 0; g < from.size(); ++g) {
        Row key(1, Value::Null());
        if (static_cast<int32_t>(g) != from.null_group) {
          key[0] = Value::Int(from.int_keys[g]);
        }
        uint64_t h = KeyHash(key, {0});
        GroupTable& into = PartOf(h);
        size_t slot = 0;
        into.FindRow(key, h, &slot);
        into.AddRow(std::move(key), h, slot);
        auto first = from.accs.begin() + static_cast<ptrdiff_t>(g * n_aggs);
        into.accs.insert(into.accs.end(), std::make_move_iterator(first),
                         std::make_move_iterator(first + n_aggs));
      }
    }
  }
};

HashAggregateOp::HashAggregateOp(OperatorPtr child, GroupBySpec spec,
                                 const ColumnCatalog* columns,
                                 IoAccountant* io)
    : child_(std::move(child)),
      spec_(std::move(spec)),
      columns_(columns),
      io_(io) {
  layout_ = RowLayout(spec_.OutputColumns());
}

HashAggregateOp::WorkerGroups HashAggregateOp::NewWorkerGroups(
    size_t parts) const {
  WorkerGroups groups;
  groups.int_lane = group_idx_.size() == 1;
  groups.parts.resize(parts);
  if (group_idx_.empty()) {
    GroupTable& table = groups.parts[0];
    const uint64_t h = KeyHash(Row{}, group_idx_);
    size_t slot = 0;
    table.FindRow(Row{}, h, &slot);
    NewGroup(&table, table.AddRow(Row{}, h, slot));
  }
  return groups;
}

AggAccumulator* HashAggregateOp::NewGroup(GroupTable* table,
                                          int32_t g) const {
  for (const AggregateCall& a : spec_.aggregates) {
    table->accs.emplace_back(a.kind);
  }
  return table->accs.data() + static_cast<size_t>(g) * n_aggs_;
}

inline AggAccumulator* HashAggregateOp::GroupOf(const Row& row,
                                                WorkerGroups* groups) const {
  // The hot path: an existing group of an INT64 key on the INT64 lane.
  // Everything else stays out of line, so this path saves no registers.
  if (groups->int_lane) {
    const Value& k = row[static_cast<size_t>(group_idx_[0])];
    if (k.is_int()) {
      uint64_t h = IntKeyHash(k.AsInt());
      GroupTable& table = groups->PartOf(h);
      size_t slot = 0;
      int32_t g = table.FindInt(/*null=*/false, h, &slot);
      if (g >= 0) return table.accs.data() + static_cast<size_t>(g) * n_aggs_;
    }
  }
  return OtherGroupOf(row, groups);
}

AggAccumulator* HashAggregateOp::OtherGroupOf(const Row& row,
                                              WorkerGroups* groups) const {
  size_t slot = 0;
  if (groups->int_lane) {
    const Value& k = row[static_cast<size_t>(group_idx_[0])];
    if (k.is_int() || k.is_null()) {
      bool null = k.is_null();
      uint64_t h = null ? kNullKeyHash : IntKeyHash(k.AsInt());
      GroupTable& table = groups->PartOf(h);
      int32_t g = table.FindInt(null, h, &slot);
      if (g < 0) {
        return NewGroup(&table,
                        table.AddInt(null ? 0 : k.AsInt(), null, h, slot));
      }
      return table.accs.data() + static_cast<size_t>(g) * n_aggs_;
    }
    groups->MigrateToGeneric(n_aggs_);
  }
  // The key is hashed and compared in place, and copied for a new group.
  uint64_t h = KeyHash(row, group_idx_);
  GroupTable& table = groups->PartOf(h);
  int32_t g = table.FindCells(row, group_idx_, h, &slot);
  if (g < 0) {
    Row key;
    key.reserve(group_idx_.size());
    for (int idx : group_idx_) key.push_back(row[static_cast<size_t>(idx)]);
    return NewGroup(&table, table.AddRow(std::move(key), h, slot));
  }
  return table.accs.data() + static_cast<size_t>(g) * n_aggs_;
}

Status HashAggregateOp::Accumulate(Operator* src, WorkerGroups* groups,
                                   int64_t* input_rows) const {
  // A whole input batch is accumulated per child dispatch. In a parallel
  // drain this runs once per worker against a thread-local table and must
  // not touch the operator's shared stats block — the caller counts the
  // summed input.
  const size_t n_aggs = n_aggs_;
  // A scalar aggregate's one group never moves: the arena is never resized.
  AggAccumulator* scalar =
      group_idx_.empty() ? groups->parts[0].accs.data() : nullptr;
  RowBatch batch(batch_size_);
  while (true) {
    auto more = src->Next(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    *input_rows += batch.size();
    for (int i = 0; i < batch.size(); ++i) {
      const Row& row = batch.row(i);
      AggAccumulator* accs =
          scalar != nullptr ? scalar : GroupOf(row, groups);
      for (size_t a = 0; a < n_aggs; ++a) {
        const AggArgs& args = args_[a];
        switch (args.arity) {
          case 0:
            accs[a].Add0();
            break;
          case 1:
            accs[a].Add1(row[static_cast<size_t>(args.idx[0])]);
            break;
          default:
            accs[a].Add2(row[static_cast<size_t>(args.idx[0])],
                         row[static_cast<size_t>(args.idx[1])]);
            break;
        }
      }
    }
  }
}

void HashAggregateOp::MergeAndFinish(std::vector<WorkerGroups>* workers,
                                     size_t part,
                                     const BoundConjunction& having,
                                     std::vector<Row>* out) const {
  const size_t n_aggs = n_aggs_;
  const bool int_lane = (*workers)[0].int_lane;
  GroupTable& into = (*workers)[0].parts[part];
  for (size_t w = 1; w < workers->size(); ++w) {
    GroupTable& from = (*workers)[w].parts[part];
    for (size_t g = 0; g < from.size(); ++g) {
      uint64_t h = from.hash(static_cast<int32_t>(g));
      size_t slot = 0;
      int32_t mine;
      if (int_lane) {
        bool null = static_cast<int32_t>(g) == from.null_group;
        mine = into.FindInt(null, h, &slot);
        if (mine < 0) mine = into.AddInt(from.int_keys[g], null, h, slot);
      } else {
        mine = into.FindRow(from.row_keys[g], h, &slot);
        if (mine < 0) mine = into.AddRow(std::move(from.row_keys[g]), h, slot);
      }
      auto theirs = from.accs.begin() + static_cast<ptrdiff_t>(g * n_aggs);
      size_t first = static_cast<size_t>(mine) * n_aggs;
      if (first == into.accs.size()) {
        into.accs.insert(into.accs.end(), std::make_move_iterator(theirs),
                         std::make_move_iterator(theirs + n_aggs));
      } else {
        for (size_t a = 0; a < n_aggs; ++a) {
          into.accs[first + a].Merge(theirs[a]);
        }
      }
    }
    from = GroupTable();
  }
  out->reserve(into.size());
  for (size_t g = 0; g < into.size(); ++g) {
    Row row;
    row.reserve(group_idx_.size() + n_aggs);
    if (int_lane) {
      row.push_back(static_cast<int32_t>(g) == into.null_group
                        ? Value::Null()
                        : Value::Int(into.int_keys[g]));
    } else {
      for (Value& v : into.row_keys[g]) row.push_back(std::move(v));
    }
    for (size_t a = 0; a < n_aggs; ++a) {
      row.push_back(into.accs[g * n_aggs + a].Finish());
    }
    if (having.Eval(row)) out->push_back(std::move(row));
  }
}

Status HashAggregateOp::OpenImpl() {
  AGGVIEW_ASSIGN_OR_RETURN(
      BoundConjunction having,
      BoundConjunction::Bind(spec_.having, layout_, *columns_, "having"));
  AGGVIEW_RETURN_NOT_OK(child_->Open());
  const RowLayout& in = child_->layout();

  group_idx_.clear();
  for (ColId g : spec_.grouping) {
    int idx = in.IndexOf(g);
    if (idx < 0) return Status::Internal("group-by column missing from input");
    group_idx_.push_back(idx);
  }
  args_.clear();
  n_aggs_ = spec_.aggregates.size();
  for (const AggregateCall& a : spec_.aggregates) {
    AggArgs args;
    if (a.args.size() > args.idx.size()) {
      return Status::Internal("aggregate with more than two arguments");
    }
    for (ColId arg : a.args) {
      int idx = in.IndexOf(arg);
      if (idx < 0) return Status::Internal("aggregate argument missing from input");
      args.idx[args.arity++] = idx;
    }
    args_.push_back(args);
  }

  // Thread-local partial aggregation when workers > 1: every worker folds
  // its morsels into private radix-partitioned tables; a scalar aggregate
  // has one group and so one partition.
  int workers = MorselWorkers(*child_);
  size_t parts = workers > 1 && !group_idx_.empty()
                     ? size_t{1} << kHashPartitionBits
                     : 1;
  std::vector<WorkerGroups> groups;
  groups.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) groups.push_back(NewWorkerGroups(parts));
  std::vector<int64_t> counts(static_cast<size_t>(workers), 0);
  AGGVIEW_RETURN_NOT_OK(RunMorselParallel(
      child_.get(), workers, [&](int w, Operator* src) {
        return Accumulate(src, &groups[static_cast<size_t>(w)],
                          &counts[static_cast<size_t>(w)]);
      }));
  int64_t input_rows = 0;
  for (int64_t c : counts) input_rows += c;
  if (workers > 1 && stats_ != nullptr) stats_->workers = workers;
  CountInput(input_rows);

  // Lanes must agree before groups can meet: Int(3) in one worker's lane and
  // Real(3.0) in another's generic table are the same group.
  if (std::any_of(groups.begin(), groups.end(),
                  [](const WorkerGroups& g) { return !g.int_lane; })) {
    for (WorkerGroups& g : groups) {
      if (g.int_lane) g.MigrateToGeneric(n_aggs_);
    }
  }
  // Partitions are disjoint, so each merges and finalizes on its own.
  std::vector<std::vector<Row>> outs(parts);
  std::vector<int64_t> part_groups(parts, 0);
  auto finish_part = [&](int p) {
    size_t i = static_cast<size_t>(p);
    MergeAndFinish(&groups, i, having, &outs[i]);
    part_groups[i] = static_cast<int64_t>(groups[0].parts[i].size());
    groups[0].parts[i] = GroupTable();
  };
  if (parts > 1) {
    exec_->pool()->ParallelFor(static_cast<int>(parts), finish_part);
  } else {
    finish_part(0);
  }
  int64_t num_groups = 0;
  for (int64_t n : part_groups) num_groups += n;

  double in_pages = ActualPages(input_rows, in.RowWidth(*columns_));
  double spill = CostModel::HashAggLocalCost(in_pages);
  ChargeWrite(io_, static_cast<int64_t>(spill / 2.0));
  ChargeRead(io_, static_cast<int64_t>(spill / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(spill / 2.0) * 2;
    stats_->hash_build_rows = num_groups;
  }

  results_.clear();
  for (std::vector<Row>& rows : outs) {
    std::move(rows.begin(), rows.end(), std::back_inserter(results_));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < results_.size() && !out->full()) {
    out->AppendRow() = std::move(results_[pos_++]);
  }
  return !out->empty();
}

void HashAggregateOp::CloseImpl() {
  child_->Close();
  results_.clear();
}

}  // namespace aggview
