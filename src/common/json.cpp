#include "common/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace scandiag {

JsonWriter::JsonWriter(std::ostream& out, bool pretty) : out_(&out), pretty_(pretty) {}

JsonWriter::~JsonWriter() = default;

void JsonWriter::newline() {
  if (!pretty_) return;
  *out_ << '\n';
  for (std::size_t i = 0; i < scopes_.size(); ++i) *out_ << "  ";
}

void JsonWriter::beforeValue() {
  if (scopes_.empty()) return;
  if (scopes_.back() == Scope::Object) {
    SCANDIAG_REQUIRE(keyPending_, "JSON object member needs a key()");
    keyPending_ = false;
    return;
  }
  if (hasItems_.back()) *out_ << ',';
  hasItems_.back() = true;
  newline();
}

JsonWriter& JsonWriter::key(const std::string& name) {
  SCANDIAG_REQUIRE(!scopes_.empty() && scopes_.back() == Scope::Object,
                   "key() outside an object");
  SCANDIAG_REQUIRE(!keyPending_, "two keys in a row");
  if (hasItems_.back()) *out_ << ',';
  hasItems_.back() = true;
  newline();
  writeEscaped(name);
  *out_ << (pretty_ ? ": " : ":");
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  *out_ << '{';
  scopes_.push_back(Scope::Object);
  hasItems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  SCANDIAG_REQUIRE(!scopes_.empty() && scopes_.back() == Scope::Object,
                   "endObject() without a matching beginObject()");
  SCANDIAG_REQUIRE(!keyPending_, "dangling key at endObject()");
  const bool had = hasItems_.back();
  scopes_.pop_back();
  hasItems_.pop_back();
  if (had) newline();
  *out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  *out_ << '[';
  scopes_.push_back(Scope::Array);
  hasItems_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  SCANDIAG_REQUIRE(!scopes_.empty() && scopes_.back() == Scope::Array,
                   "endArray() without a matching beginArray()");
  const bool had = hasItems_.back();
  scopes_.pop_back();
  hasItems_.pop_back();
  if (had) newline();
  *out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  beforeValue();
  writeEscaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  SCANDIAG_REQUIRE(std::isfinite(v), "JSON cannot represent NaN/Inf");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  *out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  *out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  *out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  *out_ << "null";
  return *this;
}

void JsonWriter::writeEscaped(const std::string& s) {
  *out_ << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out_ << "\\\"";
        break;
      case '\\':
        *out_ << "\\\\";
        break;
      case '\n':
        *out_ << "\\n";
        break;
      case '\t':
        *out_ << "\\t";
        break;
      case '\r':
        *out_ << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out_ << buf;
        } else {
          *out_ << c;
        }
    }
  }
  *out_ << '"';
}

}  // namespace scandiag
