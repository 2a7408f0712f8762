// JSON export for metrics snapshots. The schema is stable and
// versioned so CI goldens and external tooling can rely on it:
//
//   {
//     "schema_version": 1,
//     "circuit": "s38584",          // context, "" when unknown
//     "scheme": "interval",
//     "threads": 4,
//     "counters": { "sessions_run": 123, ... },      // deterministic section
//     "phases": { "faulty_sim": {"nanos": N, "calls": C}, ... },
//     "workers": [ {"worker": 0, "busy_nanos": N, "tasks": T}, ... ]
//   }
//
// "counters" is the only section with cross-run/cross-thread-count guarantees
// (see metrics.hpp); "phases"/"workers" are wall-clock and excluded from CI
// comparison.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace scandiag {
class JsonWriter;
}  // namespace scandiag

namespace scandiag::obs {

inline constexpr int kMetricsSchemaVersion = 1;

/// Run description attached to an exported snapshot.
struct MetricsContext {
  std::string circuit;
  std::string scheme;
  std::size_t threads = 0;
};

/// Emits just the {"name": value, ...} counters object (reused by bench
/// reports, which embed it next to their own rows).
void writeCountersObject(JsonWriter& writer, const MetricsSnapshot& snap);

/// Emits the {"name": {"nanos":..,"calls":..}, ...} phases object.
void writePhasesObject(JsonWriter& writer, const MetricsSnapshot& snap);

/// Emits the [{"worker":..,"busy_nanos":..,"tasks":..}, ...] array.
void writeWorkersArray(JsonWriter& writer, const MetricsSnapshot& snap);

/// Emits one complete schema-versioned metrics object (see header comment).
void writeMetricsObject(JsonWriter& writer, const MetricsSnapshot& snap,
                        const MetricsContext& context);

/// Snapshots the global registry and writes a full document to `path`.
/// Throws std::runtime_error if the file cannot be opened.
void writeMetricsFile(const std::string& path, const MetricsContext& context);

}  // namespace scandiag::obs
