// The number grammar (core/parse.hpp): each reader's verdict on one table
// of spellings, every site that reads numbers from outside giving its
// reader's verdict on the same table, and the finite-decimal reader
// agreeing with strtod bit for bit.
#include "core/parse.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "cli/cli.hpp"
#include "core/budget.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/rng.hpp"
#include "exp/checkpoint.hpp"
#include "net/protocol.hpp"
#include "osm/xml.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

constexpr ParseStatus kOk = ParseStatus::Ok;
constexpr ParseStatus kBad = ParseStatus::Malformed;
constexpr ParseStatus kBig = ParseStatus::Overflow;
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();

/// A spelling and each reader's verdict on it; the value counts only
/// where the verdict is Ok.
struct Spelling {
  const char* text;
  ParseStatus as_unsigned;
  std::uint64_t unsigned_value;
  ParseStatus as_signed;
  std::int64_t signed_value;
  ParseStatus as_finite;
  double finite_value;
};

constexpr Spelling kSpellings[] = {
    {"", kBad, 0, kBad, 0, kBad, 0.0},
    {"7", kOk, 7, kOk, 7, kOk, 7.0},
    {" 7", kBad, 0, kBad, 0, kBad, 0.0},
    {"7 ", kBad, 0, kBad, 0, kBad, 0.0},
    {"+7", kBad, 0, kBad, 0, kBad, 0.0},
    {"-7", kBad, 0, kOk, -7, kOk, -7.0},
    {"07", kOk, 7, kOk, 7, kOk, 7.0},
    {"0", kOk, 0, kOk, 0, kOk, 0.0},
    {"-0", kBad, 0, kOk, 0, kOk, -0.0},
    {"0x10", kBad, 0, kBad, 0, kBad, 0.0},
    {"1e3", kBad, 0, kBad, 0, kOk, 1000.0},
    {"1.5", kBad, 0, kBad, 0, kOk, 1.5},
    {".5", kBad, 0, kBad, 0, kOk, 0.5},
    {"7x", kBad, 0, kBad, 0, kBad, 0.0},
    {"-", kBad, 0, kBad, 0, kBad, 0.0},
    {"--7", kBad, 0, kBad, 0, kBad, 0.0},
    {"inf", kBad, 0, kBad, 0, kBad, 0.0},
    {"-inf", kBad, 0, kBad, 0, kBad, 0.0},
    {"nan", kBad, 0, kBad, 0, kBad, 0.0},
    {"1e999", kBad, 0, kBad, 0, kBig, 0.0},
    {"1e999x", kBad, 0, kBad, 0, kBad, 0.0},
    {"9223372036854775807", kOk, 9223372036854775807ULL, kOk, kI64Max, kOk, 9223372036854775807.0},
    {"9223372036854775808", kOk, 9223372036854775808ULL, kBig, 0, kOk, 9223372036854775808.0},
    {"-9223372036854775808", kBad, 0, kOk, kI64Min, kOk, -9223372036854775808.0},
    {"-9223372036854775809", kBad, 0, kBig, 0, kOk, -9223372036854775809.0},
    {"18446744073709551615", kOk, kU64Max, kBig, 0, kOk, 18446744073709551615.0},
    {"18446744073709551616", kBig, 0, kBig, 0, kOk, 18446744073709551616.0},
};

template <typename T>
void expect_verdict(const Parsed<T>& got, ParseStatus status, T value, const char* text) {
  EXPECT_EQ(got.status, status) << "'" << text << "'";
  if (status == kOk && got.status == kOk) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(got.value)),
              std::bit_cast<std::uint64_t>(static_cast<double>(value)))
        << "'" << text << "'";
    EXPECT_EQ(got.value, value) << "'" << text << "'";
  }
}

TEST(Parse, EachReaderGivesItsVerdictOnEverySpelling) {
  for (const Spelling& s : kSpellings) {
    expect_verdict(parse_unsigned(s.text), s.as_unsigned, s.unsigned_value, s.text);
    expect_verdict(parse_signed(s.text), s.as_signed, s.signed_value, s.text);
    expect_verdict(parse_finite(s.text), s.as_finite, s.finite_value, s.text);
  }
}

/// Sets `name` to `text` for the scope of one check.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* text) : name_(name) { setenv(name, text, 1); }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

// An empty variable means "unset" (the default), so the table's empty
// spelling is not a verdict for the environment sites.
TEST(Parse, EnvironmentKnobsGiveTheirReadersVerdicts) {
  for (const Spelling& s : kSpellings) {
    if (*s.text == '\0') continue;
    const ScopedEnv int_knob("MTS_TEST_PARSE_INT", s.text);
    if (s.as_signed == kOk) {
      EXPECT_EQ(env_int("MTS_TEST_PARSE_INT", 99), s.signed_value) << s.text;
    } else {
      EXPECT_THROW(env_int("MTS_TEST_PARSE_INT", 99), InvalidInput) << s.text;
    }
    const ScopedEnv double_knob("MTS_TEST_PARSE_DBL", s.text);
    if (s.as_finite == kOk) {
      EXPECT_EQ(env_double("MTS_TEST_PARSE_DBL", 99.0), s.finite_value) << s.text;
    } else {
      EXPECT_THROW(env_double("MTS_TEST_PARSE_DBL", 99.0), InvalidInput) << s.text;
    }
    const ScopedEnv threads("MTS_THREADS", s.text);
    if (s.as_unsigned == kOk && s.unsigned_value <= 1'000'000) {
      EXPECT_EQ(env_threads(), s.unsigned_value) << s.text;
    } else {
      EXPECT_THROW(env_threads(), InvalidInput) << s.text;
    }
  }
  for (const Spelling& s : kSpellings) {
    if (*s.text == '\0') continue;
    const ScopedEnv seed("MTS_SEED", s.text);
    if (s.as_unsigned == kOk) {
      EXPECT_EQ(BenchEnv::from_environment().seed, s.unsigned_value) << s.text;
    } else {
      EXPECT_THROW(BenchEnv::from_environment(), InvalidInput) << s.text;
    }
  }
}

TEST(Parse, CliFlagsGiveTheirReadersVerdicts) {
  for (const Spelling& s : kSpellings) {
    std::ostringstream out;
    std::ostringstream err;
    // routed reads --port before anything else, so a port the reader takes
    // fails later, on the missing --osm or on its range.
    EXPECT_EQ(cli::run_cli({"routed", "--port", s.text}, out, err), 1);
    EXPECT_EQ(err.str().find("--port expects an integer") == std::string::npos,
              s.as_signed == kOk)
        << s.text << ": " << err.str();
    // generate reads --scale, then --seed before it generates anything.
    err.str("");
    EXPECT_EQ(cli::run_cli({"generate", "--scale", s.text, "--seed", "x"}, out, err), 1);
    EXPECT_EQ(err.str().find("--scale expects a number") == std::string::npos,
              s.as_finite == kOk)
        << s.text << ": " << err.str();
  }
}

TEST(Parse, WireTokensGiveTheUnsignedVerdict) {
  for (const Spelling& s : kSpellings) {
    const std::string line = std::string("ping ") + s.text;
    if (s.as_unsigned == kOk) {
      EXPECT_EQ(net::parse_request(line).id, s.unsigned_value) << s.text;
    } else {
      EXPECT_THROW(net::parse_request(line), InvalidInput) << s.text;
    }
  }
}

// Budget and fault counts must also be >= 1.
TEST(Parse, BudgetAndFaultCountsGiveTheUnsignedVerdict) {
  auto& faults = fault::FaultRegistry::instance();
  for (const Spelling& s : kSpellings) {
    const bool accepted = s.as_unsigned == kOk && s.unsigned_value >= 1;
    const std::string budget = std::string("edges=") + s.text;
    if (accepted) {
      EXPECT_EQ(WorkBudget::parse(budget).max_edges_scanned, s.unsigned_value) << s.text;
    } else {
      EXPECT_THROW(WorkBudget::parse(budget), InvalidInput) << s.text;
    }
    const std::string spec = std::string("lp.pivot:after=") + s.text + ":throw";
    if (accepted) {
      EXPECT_NO_THROW(faults.arm_from_spec(spec)) << s.text;
    } else {
      EXPECT_THROW(faults.arm_from_spec(spec), InvalidInput) << s.text;
    }
    faults.reset();
  }
}

TEST(Parse, JournalNumbersGiveTheirReadersVerdicts) {
  const auto dir = test::unique_temp_dir();
  exp::CellRecord record;
  record.task = 3;
  record.status = "success";
  const std::string good_path = (dir / "good.jsonl").string();
  {
    exp::CheckpointJournal journal(good_path, "fp");
    journal.append(record);
  }
  std::string header;
  std::string good;
  {
    std::ifstream in(good_path);
    std::getline(in, header);
    std::getline(in, good);
  }
  const auto with = [](std::string line, const std::string& from, const std::string& to) {
    return line.replace(line.find(from), from.size(), to);
  };
  int case_index = 0;
  // The bad line sits mid-journal, where a line that does not parse is
  // corruption rather than a torn last append.
  const auto load = [&](const std::string& line) {
    const std::string path = (dir / ("j" + std::to_string(case_index++) + ".jsonl")).string();
    std::ofstream(path) << header << "\n" << line << "\n" << good << "\n";
    return exp::CheckpointJournal::load(path, "fp");
  };
  for (const Spelling& s : kSpellings) {
    const std::string task_line =
        with(good, "\"task\":3,", std::string("\"task\":") + s.text + ",");
    if (s.as_unsigned == kOk) {
      EXPECT_EQ(load(task_line).count(s.unsigned_value), 1u) << s.text;
    } else {
      EXPECT_THROW(load(task_line), InvalidInput) << s.text;
    }
    // Task 4, so the good line after it (task 3) does not replace it.
    const std::string seconds_line =
        with(with(good, "\"task\":3,", "\"task\":4,"), "\"seconds\":0,",
             std::string("\"seconds\":") + s.text + ",");
    if (s.as_finite == kOk) {
      EXPECT_EQ(load(seconds_line).at(4).seconds, s.finite_value) << s.text;
    } else {
      EXPECT_THROW(load(seconds_line), InvalidInput) << s.text;
    }
  }
}

TEST(Parse, OsmAttributesGiveTheirReadersVerdicts) {
  const auto parse = [](const std::string& id, const std::string& lat) {
    std::istringstream in("<osm><node id=\"" + id + "\" lat=\"" + lat + "\" lon=\"0\"/></osm>");
    return osm::parse_osm_xml(in);
  };
  for (const Spelling& s : kSpellings) {
    if (s.as_signed == kOk) {
      EXPECT_EQ(parse(s.text, "1").nodes.at(0).id.value(), s.signed_value) << s.text;
    } else {
      EXPECT_THROW(parse(s.text, "1"), InvalidInput) << s.text;
    }
    if (s.as_finite == kOk) {
      EXPECT_EQ(parse("1", s.text).nodes.at(0).lat, s.finite_value) << s.text;
    } else {
      EXPECT_THROW(parse("1", s.text), InvalidInput) << s.text;
    }
  }
}

/// parse_finite(text) and strtod(text) as bit patterns.
void expect_same_double(const char* text) {
  const Parsed<double> parsed = parse_finite(text);
  ASSERT_TRUE(parsed) << text;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.value),
            std::bit_cast<std::uint64_t>(std::strtod(text, nullptr)))
      << text;
}

// The journal writes %.17g and the reports %.9g; the reader must turn
// either back into exactly the double strtod would.
TEST(Parse, FiniteReaderMatchesStrtodBitForBit) {
  Rng rng(20261020);
  int checked = 0;
  while (checked < 100'000) {
    const auto value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    expect_same_double(text);
    std::snprintf(text, sizeof text, "%.9g", value);
    expect_same_double(text);
    ++checked;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(checked, 100'000);
}

}  // namespace
}  // namespace mts
