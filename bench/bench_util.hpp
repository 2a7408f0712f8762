// Shared helpers for the reproduction benches: fixed-width table printing,
// the standard experiment banner, and the structured JSON reporter. Every
// bench prints a human-readable table to stdout AND emits the same rows as
// schema-versioned JSON to results/BENCH_<name>.json via BenchReport, so the
// perf/DR trajectory accumulates machine-readably and CI can gate on the
// deterministic counter section (scripts/check_bench_counters.py).
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <chrono>
#include <cstdlib>
#include <memory>

#include "common/journal.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "common/watchdog.hpp"
#include "diagnosis/checkpoint.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace scandiag::benchutil {

inline void banner(const char* experiment, const char* paperClaim) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paperClaim);
  std::printf("==================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Ratio formatted as "x.xx" or "inf" guard.
inline std::string improvement(double baseline, double improved) {
  if (improved <= 0) return baseline > 0 ? std::string("inf") : std::string("1.00");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", baseline / improved);
  return buf;
}

/// Loosely-typed cell value for BenchReport rows/context (JSON scalar).
class Value {
 public:
  Value(bool v) : kind_(Kind::Bool), bool_(v) {}
  Value(int v) : kind_(Kind::Int), int_(v) {}
  Value(long v) : kind_(Kind::Int), int_(v) {}
  Value(long long v) : kind_(Kind::Int), int_(v) {}
  Value(unsigned v) : kind_(Kind::Uint), uint_(v) {}
  Value(unsigned long v) : kind_(Kind::Uint), uint_(v) {}
  Value(unsigned long long v) : kind_(Kind::Uint), uint_(v) {}
  Value(double v) : kind_(Kind::Double), double_(v) {}
  Value(const char* v) : kind_(Kind::String), string_(v) {}
  Value(std::string v) : kind_(Kind::String), string_(std::move(v)) {}

  void writeTo(JsonWriter& writer) const {
    switch (kind_) {
      case Kind::Bool: writer.value(bool_); break;
      case Kind::Int: writer.value(int_); break;
      case Kind::Uint: writer.value(uint_); break;
      case Kind::Double: writer.value(double_); break;
      case Kind::String: writer.value(string_); break;
    }
  }

 private:
  enum class Kind { Bool, Int, Uint, Double, String };
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
};

using Fields = std::vector<std::pair<std::string, Value>>;

/// Structured JSON output for one bench run. Construction resets the global
/// metrics registry, so the emitted "counters" section is the *delta* covered
/// by this report — benches with a nondeterministic warm-up (google-benchmark
/// adaptive iterations) construct the report after it, keeping the counters
/// section bit-identical run to run and thread count to thread count (the CI
/// golden contract). Timings land in "timing"/"phases"/"workers", which CI
/// ignores.
///
///   benchutil::BenchReport report("table1");
///   report.context("circuit", "s5378");
///   ... run experiment, print human table ...
///   report.row({{"scheme", "interval"}, {"dr", 0.98}});
///   report.timing("wall_millis", elapsed);
///   report.write();   // -> results/BENCH_table1.json
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    obs::MetricsRegistry::instance().reset();
  }

  /// Run-level metadata (circuit, scheme, pattern counts, ...).
  void context(const std::string& key, Value value) {
    context_.emplace_back(key, std::move(value));
  }

  /// One result row, mirroring one printed table row.
  void row(Fields fields) { rows_.push_back(std::move(fields)); }

  /// Wall-clock (non-deterministic) measurement, e.g. speedup numbers.
  void timing(const std::string& key, Value value) {
    timing_.emplace_back(key, std::move(value));
  }

  std::string path() const { return "results/BENCH_" + name_ + ".json"; }

  /// Writes results/BENCH_<name>.json (creating results/ if needed) and
  /// prints the path so reproduce.sh logs show where artifacts went. The
  /// write is atomic (temp + rename): an interrupted bench never leaves a
  /// torn report for CI to choke on.
  void write() const {
    const std::string file = path();
    std::ostringstream out;
    JsonWriter writer(out);
    writer.beginObject();
    writer.field("schema_version", obs::kMetricsSchemaVersion);
    writer.field("bench", name_);
    writer.key("context");
    writer.beginObject();
    for (const auto& [key, value] : context_) {
      writer.key(key);
      value.writeTo(writer);
    }
    writer.endObject();
    writer.key("rows");
    writer.beginArray();
    for (const Fields& fields : rows_) {
      writer.beginObject();
      for (const auto& [key, value] : fields) {
        writer.key(key);
        value.writeTo(writer);
      }
      writer.endObject();
    }
    writer.endArray();
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    writer.key("counters");
    obs::writeCountersObject(writer, snap);
    writer.key("timing");
    writer.beginObject();
    for (const auto& [key, value] : timing_) {
      writer.key(key);
      value.writeTo(writer);
    }
    writer.field("threads", static_cast<std::uint64_t>(globalPool().threadCount()));
    writer.key("phases");
    obs::writePhasesObject(writer, snap);
    writer.key("workers");
    obs::writeWorkersArray(writer, snap);
    writer.endObject();
    writer.endObject();
    out << '\n';
    atomicWriteFile(file, out.str());
    std::printf("wrote %s\n", file.c_str());
  }

 private:
  std::string name_;
  Fields context_;
  std::vector<Fields> rows_;
  Fields timing_;
};

/// Exit code for "interrupted by a signal or the watchdog; the checkpoint
/// journal and any flushed artifacts are valid". Shared with scandiag_cli.
inline constexpr int kExitInterrupted = 6;

/// Crash-safety harness for the long-running benches: parses
/// `--checkpoint <file>`, `--resume`, and `--deadline-ms <n>`, installs the
/// SIGINT/SIGTERM cancellation handlers, and hands the bench a RunControl to
/// thread through its sweeps. With none of the flags given everything stays
/// inert and the bench's counters/output are bit-identical to a harness-free
/// run (signal handlers aside). Unknown arguments are ignored so
/// google-benchmark flags pass through untouched.
///
///   int main(int argc, char** argv) {
///     BenchRun run(argc, argv);
///     BenchReport report("table1");
///     ...
///     SweepCheckpoint* ckpt = run.openCheckpoint(setupDigest, "table1 s953");
///     try {
///       ... pipeline.evaluate(responses, run.control(),
///                             SweepJournal{ckpt, sweepId}) ...
///     } catch (const OperationCancelled& err) {
///       return run.interrupted(report, err);
///     }
///     report.write();
///     return 0;
///   }
class BenchRun {
 public:
  BenchRun(int argc, char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--checkpoint" && i + 1 < argc) {
        checkpointPath_ = argv[++i];
      } else if (arg == "--resume") {
        resume_ = true;
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        deadlineMs_ = std::strtoll(argv[++i], nullptr, 10);
      }
    }
    if (resume_ && checkpointPath_.empty()) {
      throw std::invalid_argument("--resume requires --checkpoint <file>");
    }
    installCancellationSignalHandlers();
    if (deadlineMs_ > 0) {
      watchdog_ = std::make_unique<Watchdog>(globalCancelToken(),
                                             std::chrono::milliseconds(deadlineMs_));
    }
  }

  bool checkpointEnabled() const { return !checkpointPath_.empty(); }
  bool resuming() const { return resume_; }

  /// Opens (or creates) the sweep checkpoint; null when --checkpoint was not
  /// given. `setupDigest` must cover everything a resumed run needs to match
  /// (circuit, workload seeds/sizes — not the thread count).
  SweepCheckpoint* openCheckpoint(std::uint64_t setupDigest, const std::string& setupInfo) {
    if (checkpointPath_.empty()) return nullptr;
    checkpoint_ = std::make_unique<SweepCheckpoint>(checkpointPath_, setupDigest,
                                                    setupInfo, resume_);
    if (resume_) {
      std::fprintf(stderr, "resuming from %s: %zu journaled fault records%s\n",
                   checkpointPath_.c_str(), checkpoint_->loadedRecords(),
                   checkpoint_->hadTruncatedTail() ? " (torn tail truncated)" : "");
    }
    return checkpoint_.get();
  }

  /// The cancellation context to pass into every evaluate call.
  RunControl control() { return RunControl{&globalCancelToken(), watchdog_.get()}; }

  /// Standard interrupted exit: flushes the partial report (atomic write, CI
  /// ignores its timing-section marker), explains, and returns the exit code
  /// for main() to return. The checkpoint journal is already durable — every
  /// append was fsync'd before the corresponding fault was published.
  int interrupted(BenchReport& report, const OperationCancelled& err) {
    report.timing("interrupted", true);
    report.write();
    std::fprintf(stderr, "interrupted: %s\n", err.what());
    if (!checkpointPath_.empty()) {
      std::fprintf(stderr, "checkpoint journal flushed: %s (rerun with --resume)\n",
                   checkpointPath_.c_str());
    }
    return kExitInterrupted;
  }

 private:
  std::string checkpointPath_;
  bool resume_ = false;
  long long deadlineMs_ = 0;
  std::unique_ptr<Watchdog> watchdog_;
  std::unique_ptr<SweepCheckpoint> checkpoint_;
};

}  // namespace scandiag::benchutil
