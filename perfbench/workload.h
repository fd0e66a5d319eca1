// Workload interface of the perfbench harness.
//
// A workload builds its database through the engine, computes its own
// reference answers outside any timed window, and hands out a deterministic
// statement stream per client: statement i of client c depends only on the
// workload seed, c and i, never on scheduling. Every result is checked
// against the workload's oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"

namespace perfbench {

/// Fixture and stream sizes. `kSmoke` is the self-test size: tiny fixtures
/// and the same code paths, so every oracle runs in seconds.
enum class Size { kFull, kSmoke };

/// One statement of a client's stream.
struct Stmt {
  std::string sql;
  bool write = false;
  /// Workload-private oracle key (template id and parameters).
  int kind = 0;
  int64_t a = 0;
  int64_t b = 0;
};

/// Wall time of each set-up phase, in seconds.
struct SetupTimes {
  double load_s = 0;
  double index_s = 0;
  double analyze_s = 0;
  double total() const { return load_s + index_s + analyze_s; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Concurrent client sessions (closed loop, one thread each).
  virtual size_t clients() const = 0;
  /// Options for the Database and for every client session.
  virtual relopt::SessionOptions options() const = 0;

  /// Creates the tables, loads them, builds indexes and runs ANALYZE, all
  /// through the engine, timing each phase into `times`.
  virtual relopt::Status Build(relopt::Database* db, SetupTimes* times) = 0;

  /// Computes reference answers; runs once, outside every timed window.
  virtual relopt::Status Prepare(relopt::Database* db) = 0;

  /// Statement `i` of client `client`.
  virtual Stmt Next(size_t client, uint64_t i) const = 0;

  /// True if `result` is the right answer to read `stmt`.
  virtual bool CheckRead(const Stmt& stmt, const relopt::QueryResult& result) const = 0;

  /// Checks the final database state after every window has run, given the
  /// number of writes of each kind that succeeded. Default: nothing to check.
  virtual relopt::Status CheckFinalState(relopt::Database* db,
                                         const std::vector<uint64_t>& writes_by_kind) {
    (void)db;
    (void)writes_by_kind;
    return relopt::Status::OK();
  }

  /// One line describing the fixture (table sizes, pool size).
  virtual std::string Describe(relopt::Database* db) const = 0;
};

std::unique_ptr<Workload> MakeServe(uint64_t seed, Size size);
std::unique_ptr<Workload> MakeAnalytics(uint64_t seed, Size size);
std::unique_ptr<Workload> MakeJoinOrder(uint64_t seed, Size size);

/// Rows rendered one string per row ("v1|v2|..."), sorted: two results are
/// bag-equal iff their rendered rows are equal.
std::vector<std::string> SortedRows(const relopt::QueryResult& result);

/// Order-independent digest of a result: per-row hashes summed mod 2^64.
uint64_t ResultChecksum(const relopt::QueryResult& result);

/// Heap pages of every table in `db`.
size_t HeapPages(relopt::Database* db);

/// Seconds since an arbitrary fixed point (steady clock).
double NowSeconds();

/// Runs `sql` on `session`; returns its status.
relopt::Status Exec(relopt::Session* session, const std::string& sql);

}  // namespace perfbench
