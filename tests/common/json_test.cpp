#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>


namespace scandiag {
namespace {

std::string compact(const std::function<void(JsonWriter&)>& build) {
  std::ostringstream os;
  JsonWriter json(os, /*pretty=*/false);
  build(json);
  return os.str();
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(compact([](JsonWriter& j) { j.beginObject().endObject(); }), "{}");
  EXPECT_EQ(compact([](JsonWriter& j) { j.beginArray().endArray(); }), "[]");
}

TEST(JsonWriter, ObjectFields) {
  const std::string out = compact([](JsonWriter& j) {
    j.beginObject()
        .field("name", "scandiag")
        .field("dr", 0.5)
        .field("faults", std::uint64_t{500})
        .field("big", UINT64_MAX)
        .field("pruning", true)
        .endObject();
  });
  EXPECT_EQ(out,
            R"({"name":"scandiag","dr":0.5,"faults":500,"big":18446744073709551615,)"
            R"("pruning":true})");
}

TEST(JsonWriter, NestedStructures) {
  const std::string out = compact([](JsonWriter& j) {
    j.beginObject().key("rows").beginArray();
    j.beginObject().field("x", 1).endObject();
    j.beginObject().field("x", 2).endObject();
    j.endArray().key("none").null();
    j.endObject();
  });
  EXPECT_EQ(out, R"({"rows":[{"x":1},{"x":2}],"none":null})");
}

TEST(JsonWriter, ArraysSeparateWithCommas) {
  const std::string out = compact([](JsonWriter& j) {
    j.beginArray().value(1).value(2).value(3).endArray();
  });
  EXPECT_EQ(out, "[1,2,3]");
}

TEST(JsonWriter, EscapesStrings) {
  const std::string out = compact([](JsonWriter& j) {
    j.beginArray().value("a\"b\\c\nd\te").endArray();
  });
  EXPECT_EQ(out, "[\"a\\\"b\\\\c\\nd\\te\"]");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  {
    JsonWriter j(os, false);
    j.beginObject();
    EXPECT_THROW(j.value(1), std::invalid_argument);  // member without key
    EXPECT_THROW(j.endArray(), std::invalid_argument);
    j.key("k");
    EXPECT_THROW(j.key("k2"), std::invalid_argument);  // two keys in a row
    EXPECT_THROW(j.endObject(), std::invalid_argument);  // dangling key
  }
  {
    std::ostringstream os2;
    JsonWriter j(os2, false);
    j.beginArray();
    EXPECT_THROW(j.key("k"), std::invalid_argument);  // key inside array
  }
}

TEST(JsonWriter, RejectsNonFiniteNumbers) {
  std::ostringstream os;
  JsonWriter j(os, false);
  j.beginArray();
  EXPECT_THROW(j.value(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

TEST(JsonWriter, PrettyPrintingIndents) {
  std::ostringstream os;
  JsonWriter j(os, true);
  j.beginObject().field("a", 1).endObject();
  EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}");
}

}  // namespace
}  // namespace scandiag
