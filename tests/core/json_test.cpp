#include "core/json.hpp"

#include <gtest/gtest.h>

namespace mts {
namespace {

TEST(Json, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace mts
