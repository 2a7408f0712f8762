#include "obs/export.hpp"

#include <sstream>

#include "common/journal.hpp"
#include "common/json.hpp"

namespace scandiag::obs {

void writeCountersObject(JsonWriter& writer, const MetricsSnapshot& snap) {
  writer.beginObject();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    writer.field(counterName(static_cast<Counter>(i)), snap.counters[i]);
  }
  writer.endObject();
}

void writePhasesObject(JsonWriter& writer, const MetricsSnapshot& snap) {
  writer.beginObject();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    writer.key(phaseName(static_cast<Phase>(i)));
    writer.beginObject();
    writer.field("nanos", snap.phases[i].nanos);
    writer.field("calls", snap.phases[i].calls);
    writer.endObject();
  }
  writer.endObject();
}

void writeWorkersArray(JsonWriter& writer, const MetricsSnapshot& snap) {
  writer.beginArray();
  for (const WorkerStat& w : snap.workers) {
    writer.beginObject();
    writer.field("worker", static_cast<std::uint64_t>(w.worker));
    writer.field("busy_nanos", w.busyNanos);
    writer.field("tasks", w.tasks);
    writer.endObject();
  }
  writer.endArray();
}

void writeMetricsObject(JsonWriter& writer, const MetricsSnapshot& snap,
                        const MetricsContext& context) {
  writer.beginObject();
  writer.field("schema_version", kMetricsSchemaVersion);
  writer.field("circuit", context.circuit);
  writer.field("scheme", context.scheme);
  writer.field("threads", static_cast<std::uint64_t>(context.threads));
  writer.key("counters");
  writeCountersObject(writer, snap);
  writer.key("phases");
  writePhasesObject(writer, snap);
  writer.key("workers");
  writeWorkersArray(writer, snap);
  writer.endObject();
}

void writeMetricsFile(const std::string& path, const MetricsContext& context) {
  // Serialize to memory, then commit atomically (temp + rename, parent dirs
  // created): a crash mid-export can never leave a torn metrics snapshot.
  std::ostringstream out;
  JsonWriter writer(out);
  writeMetricsObject(writer, MetricsRegistry::instance().snapshot(), context);
  out << '\n';
  atomicWriteFile(path, out.str());
}

}  // namespace scandiag::obs
