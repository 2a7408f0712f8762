// Minimal streaming JSON writer for report output: metrics snapshots, bench
// reports, CLI --json. Integers are written exactly (a uint64 counter is
// never squeezed through double); doubles use %.6g. Nothing in the program
// reads JSON back — scripts/check_bench_counters.py and the tests read these
// files with Python's json module.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace scandiag {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool pretty = true);
  ~JsonWriter();

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Inside an object: sets the key for the next value/container.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  enum class Scope { Object, Array };
  void beforeValue();
  void newline();
  void writeEscaped(const std::string& s);

  std::ostream* out_;
  bool pretty_;
  std::vector<Scope> scopes_;
  std::vector<bool> hasItems_;
  bool keyPending_ = false;
};

}  // namespace scandiag
