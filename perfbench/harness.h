// Measurement windows of the perfbench harness.
//
// RunWindow drives one workload's clients for a fixed time, closed loop, and
// returns everything measured: per-statement latencies, result and plan
// signatures, the harness's own counts, engine-counter deltas and, in a traced
// window, the spans recorded around every call into the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// The engine counters (MetricsRegistry) the harness reads.
struct EngineCounters {
  uint64_t disk_page_reads = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_dirty_writebacks = 0;
  uint64_t pool_latch_waits = 0;
  uint64_t threadpool_tasks_run = 0;
  uint64_t threadpool_busy_nanos = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_evictions = 0;
  uint64_t join_enum_joins_costed = 0;
  uint64_t join_enum_dp_entries = 0;
  uint64_t join_enum_subsets_visited = 0;
  uint64_t join_enum_csg_cmp_pairs = 0;

  static EngineCounters Snapshot();
  EngineCounters operator-(const EngineCounters& before) const;
};

/// Join-enumeration work, summed over optimizations.
struct EnumTotals {
  uint64_t optimizations = 0;
  uint64_t joins_costed = 0;
  uint64_t dp_entries = 0;
  uint64_t subsets_visited = 0;
  uint64_t csg_cmp_pairs = 0;
  void Add(const relopt::JoinEnumStats& s);
  void Add(const EnumTotals& o);
};

/// Span names. Operator spans use kOperatorBase + PhysicalNodeKind.
enum SpanName : uint16_t {
  kSpanStatement,
  kSpanParse,
  kSpanCacheLookup,
  kSpanCacheInsert,
  kSpanBind,
  kSpanOptimize,
  kSpanExecute,
  kSpanDml,
  kSpanLockWait,
  kOperatorBase,
};
std::string SpanNameString(uint16_t name);

/// One recorded span. Times are nanoseconds since the window started.
struct Span {
  uint64_t stmt = 0;   ///< statement id, shared by all spans of one statement
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;  ///< index of the parent span in the same client's list
  uint16_t name = 0;
  uint16_t client = 0;
  bool measured = false;
};

/// Per-layer samples gathered by a traced window over measured statements.
struct LayerSamples {
  std::vector<double> io_qerror;    ///< per read: estimated vs actual page I/O
  std::vector<double> card_qerror;  ///< per operator of every read
  uint64_t lookups = 0;
  uint64_t hits = 0;
  EnumTotals enumeration;
  uint64_t tuples_processed = 0;
  uint64_t op_rows = 0;
  uint64_t op_batches = 0;
  uint64_t op_fallback_rows = 0;
  void Add(const LayerSamples& o);
};

struct WindowOptions {
  double warmup_s = 1;
  double seconds = 10;
  bool traced = false;
};

struct WindowResult {
  // Whole window (warm-up included).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;          ///< first few failure messages
  std::vector<uint64_t> writes_by_kind;     ///< successful writes per Stmt::kind
  /// Per client, per stream position: plan signature and result checksum.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> signatures;
  uint64_t harness_cache_hits = 0;   ///< statements served by the plan cache
  uint64_t harness_page_reads = 0;   ///< summed from per-statement metrics
  /// Engine page reads during Optimizer::Optimize calls (traced windows).
  uint64_t optimizer_page_reads = 0;
  EnumTotals harness_enumeration;    ///< summed from per-statement enum stats
  EngineCounters engine;             ///< engine-counter deltas, whole window

  // Measured part only.
  double measured_seconds = 0;
  uint64_t measured = 0;
  uint64_t measured_failed = 0;
  uint64_t measured_page_reads = 0;
  uint64_t measured_reads = 0;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<std::vector<double>> ms_by_kind;  ///< latencies per Stmt::kind
  EngineCounters measured_engine;  ///< deltas over the measured interval

  // Traced windows only.
  std::vector<std::vector<Span>> spans;  ///< per client
  LayerSamples layers;
};

/// Runs one window on `sessions` (one per client). Clears the plan cache
/// first, so every window starts from the same cache state.
WindowResult RunWindow(Workload* workload, relopt::Database* db,
                       const std::vector<relopt::Session*>& sessions,
                       const WindowOptions& options);

/// Writes the spans of the first `max_statements` statements of every client
/// as a Chrome trace_event JSON file.
relopt::Status WriteChromeTrace(const WindowResult& window, const std::string& path,
                               uint64_t max_statements);

/// Self time of every span: its duration minus its children's durations.
std::vector<std::vector<int64_t>> SelfTimes(const WindowResult& window);

}  // namespace perfbench
