// serve: four client sessions of short statements through Session::Execute.
//
// 90% reads over emp/dept with Zipf-skewed keys (point lookup, 3-way point
// join, count by department, small range join), 10% writes (UPDATE of a
// counter row, append to events). No read touches a written table, so every
// read has a fixed answer computed from the fixture's generating formula.
// The buffer pool is sized to hold the whole working set.
#include <algorithm>
#include <random>

#include "util/rng.h"
#include "util/str_util.h"
#include "workload.h"

namespace perfbench {
namespace {

using relopt::QueryResult;
using relopt::Status;
using relopt::Value;

enum Kind { kPoint, kJoin3, kCountDept, kRangeJoin, kUpdate, kInsert };

class Serve final : public Workload {
 public:
  Serve(uint64_t seed, Size size)
      : seed_(seed),
        emp_rows_(size == Size::kFull ? 20000 : 2000),
        depts_(size == Size::kFull ? 100 : 20),
        counters_(64),
        zipf_(static_cast<uint64_t>(emp_rows_), 1.0) {}

  size_t clients() const override { return 4; }

  relopt::SessionOptions options() const override {
    relopt::SessionOptions o;
    // 4096 x 4 KiB pages (16 MiB): emp, dept, counters, their indexes and
    // every events row appended during a run fit with room to spare.
    o.buffer_pool_pages = 4096;
    return o;
  }

  // --- the fixture's generating formula -----------------------------------
  int64_t Dept(int64_t id) const { return (id * 31 + static_cast<int64_t>(seed_)) % depts_; }
  int64_t Salary(int64_t id) const {
    return 1000 + (id * 7 + static_cast<int64_t>(seed_ % 9000)) % 9000;
  }
  /// Zipf rank (1 = hottest) -> emp id; a seeded bijection on [0, emp_rows).
  int64_t KeyOfRank(uint64_t rank) const {
    return static_cast<int64_t>(((rank - 1) * 7919 + seed_) % static_cast<uint64_t>(emp_rows_));
  }

  Status Build(relopt::Database* db, SetupTimes* times) override {
    relopt::Session* s = db->default_session();
    double t0 = NowSeconds();
    RELOPT_RETURN_NOT_OK(
        Exec(s, "CREATE TABLE emp (id INT, name TEXT, dept_id INT, salary INT)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE TABLE dept (id INT, dname TEXT)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE TABLE counters (id INT, n INT)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE TABLE events (id INT, client INT, note TEXT)"));
    std::string sql;
    for (int64_t i = 0; i < emp_rows_; ++i) {
      sql += sql.empty() ? "INSERT INTO emp VALUES " : ", ";
      sql += relopt::StringPrintf("(%lld, 'e%lld', %lld, %lld)", static_cast<long long>(i),
                                  static_cast<long long>(i), static_cast<long long>(Dept(i)),
                                  static_cast<long long>(Salary(i)));
      if ((i + 1) % 500 == 0 || i + 1 == emp_rows_) {
        RELOPT_RETURN_NOT_OK(Exec(s, sql));
        sql.clear();
      }
    }
    sql = "INSERT INTO dept VALUES ";
    for (int64_t d = 0; d < depts_; ++d) {
      sql += (d > 0 ? ", (" : "(") + std::to_string(d) + ", 'd" + std::to_string(d) + "')";
    }
    RELOPT_RETURN_NOT_OK(Exec(s, sql));
    sql = "INSERT INTO counters VALUES ";
    for (int64_t c = 0; c < counters_; ++c) {
      sql += (c > 0 ? ", (" : "(") + std::to_string(c) + ", 0)";
    }
    RELOPT_RETURN_NOT_OK(Exec(s, sql));
    double t1 = NowSeconds();
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE INDEX emp_id ON emp (id)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE INDEX emp_dept ON emp (dept_id)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE INDEX dept_id ON dept (id)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE INDEX counters_id ON counters (id)"));
    double t2 = NowSeconds();
    RELOPT_RETURN_NOT_OK(Exec(s, "ANALYZE"));
    double t3 = NowSeconds();
    times->load_s = t1 - t0;
    times->index_s = t2 - t1;
    times->analyze_s = t3 - t2;
    return Status::OK();
  }

  Status Prepare(relopt::Database* db) override {
    (void)db;
    dept_salary_.assign(static_cast<size_t>(depts_), 0);
    dept_count_.assign(static_cast<size_t>(depts_), 0);
    for (int64_t i = 0; i < emp_rows_; ++i) {
      dept_salary_[static_cast<size_t>(Dept(i))] += Salary(i);
      dept_count_[static_cast<size_t>(Dept(i))] += 1;
    }
    return Status::OK();
  }

  Stmt Next(size_t client, uint64_t i) const override {
    std::mt19937_64 rng(seed_ * 1000003 + client * 7777777 + i);
    relopt::Rng zrng(rng());
    auto key = [&]() { return KeyOfRank(zipf_.Next(&zrng)); };
    const uint64_t pick = rng() % 100;
    Stmt st;
    if (pick < 40) {
      st.kind = kPoint;
      st.a = key();
      st.sql = "SELECT id, name, salary FROM emp WHERE id = " + std::to_string(st.a);
    } else if (pick < 60) {
      st.kind = kJoin3;
      st.a = key();
      // Half the pairs share a department (one row), half are independent
      // keys (usually no row).
      st.b = (rng() % 2 == 0) ? (st.a + depts_ * static_cast<int64_t>(1 + rng() % 50)) % emp_rows_
                              : key();
      st.sql =
          "SELECT e.name, d.dname, e2.name FROM emp e, dept d, emp e2 "
          "WHERE e.dept_id = d.id AND e2.dept_id = d.id AND e.id = " +
          std::to_string(st.a) + " AND e2.id = " + std::to_string(st.b);
    } else if (pick < 75) {
      st.kind = kCountDept;
      st.a = Dept(key());
      st.sql = "SELECT count(*), sum(salary) FROM emp WHERE dept_id = " + std::to_string(st.a);
    } else if (pick < 90) {
      st.kind = kRangeJoin;
      st.a = std::min<int64_t>(key(), emp_rows_ - 10);
      st.sql =
          "SELECT e.id, e.name, d.dname FROM emp e, dept d "
          "WHERE e.dept_id = d.id AND e.id >= " +
          std::to_string(st.a) + " AND e.id < " + std::to_string(st.a + 10);
    } else if (pick < 95) {
      st.kind = kUpdate;
      st.write = true;
      st.a = static_cast<int64_t>(rng() % static_cast<uint64_t>(counters_));
      st.sql = "UPDATE counters SET n = n + 1 WHERE id = " + std::to_string(st.a);
    } else {
      st.kind = kInsert;
      st.write = true;
      st.a = static_cast<int64_t>(client * 1000000000ULL + i);
      st.sql = "INSERT INTO events VALUES (" + std::to_string(st.a) + ", " +
               std::to_string(client) + ", 'ev')";
    }
    return st;
  }

  bool CheckRead(const Stmt& st, const QueryResult& result) const override {
    std::vector<std::vector<Value>> want;
    auto name = [](const char* prefix, int64_t v) {
      return Value::String(prefix + std::to_string(v));
    };
    switch (st.kind) {
      case kPoint:
        want.push_back({Value::Int(st.a), name("e", st.a), Value::Int(Salary(st.a))});
        break;
      case kJoin3:
        if (Dept(st.a) == Dept(st.b)) {
          want.push_back({name("e", st.a), name("d", Dept(st.a)), name("e", st.b)});
        }
        break;
      case kCountDept:
        want.push_back({Value::Int(dept_count_[static_cast<size_t>(st.a)]),
                        Value::Int(dept_salary_[static_cast<size_t>(st.a)])});
        break;
      case kRangeJoin:
        for (int64_t id = st.a; id < st.a + 10; ++id) {
          want.push_back({Value::Int(id), name("e", id), name("d", Dept(id))});
        }
        break;
      default:
        return false;
    }
    QueryResult expected;
    for (auto& row : want) expected.rows.emplace_back(std::move(row));
    return SortedRows(result) == SortedRows(expected);
  }

  Status CheckFinalState(relopt::Database* db,
                         const std::vector<uint64_t>& writes_by_kind) override {
    const uint64_t updates = writes_by_kind.size() > kUpdate ? writes_by_kind[kUpdate] : 0;
    const uint64_t inserts = writes_by_kind.size() > kInsert ? writes_by_kind[kInsert] : 0;
    RELOPT_ASSIGN_OR_RETURN(QueryResult sum, db->Execute("SELECT sum(n) FROM counters"));
    RELOPT_ASSIGN_OR_RETURN(QueryResult count, db->Execute("SELECT count(*) FROM events"));
    const int64_t got_updates = sum.rows.at(0).At(0).is_null() ? 0 : sum.rows[0].At(0).AsInt();
    const int64_t got_inserts = count.rows.at(0).At(0).AsInt();
    if (got_updates != static_cast<int64_t>(updates) ||
        got_inserts != static_cast<int64_t>(inserts)) {
      return Status::Internal("final state: sum(counters.n)=" + std::to_string(got_updates) +
                              " for " + std::to_string(updates) +
                              " UPDATEs, count(events)=" + std::to_string(got_inserts) +
                              " for " + std::to_string(inserts) + " INSERTs");
    }
    return Status::OK();
  }

  std::string Describe(relopt::Database* db) const override {
    return "emp=" + std::to_string(emp_rows_) + " rows, dept=" + std::to_string(depts_) +
           " rows, counters=" + std::to_string(counters_) + " rows, heap=" +
           std::to_string(HeapPages(db)) + " pages, pool=" +
           std::to_string(db->pool()->capacity()) + " pages, zipf skew 1.0";
  }

 private:
  const uint64_t seed_;
  const int64_t emp_rows_;
  const int64_t depts_;
  const int64_t counters_;
  relopt::ZipfGenerator zipf_;
  std::vector<int64_t> dept_salary_;
  std::vector<int64_t> dept_count_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(uint64_t seed, Size size) {
  return std::make_unique<Serve>(seed, size);
}

}  // namespace perfbench
