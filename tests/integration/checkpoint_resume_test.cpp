// Checkpoint/resume end-to-end: the JSONL journal round-trips cell records
// exactly, rejects mismatched configurations, tolerates a torn trailing
// line (kill mid-write), and a resumed grid reduces to byte-identical
// tables and JSON at any thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/fault.hpp"
#include "core/thread_pool.hpp"
#include "exp/checkpoint.hpp"
#include "exp/json_report.hpp"
#include "exp/table_runner.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace mts::exp {
namespace {

/// Same configuration as the checked-in golden file.
RunConfig small_config() {
  RunConfig config;
  config.city = citygen::City::Boston;
  config.weight = attack::WeightType::Length;
  config.scale = 0.2;
  config.trials = 3;
  config.path_rank = 10;
  config.seed = 11;
  return config;
}

std::string csv_of(const CityTableResult& result) {
  std::ostringstream out;
  render_city_table(result).render_csv(out);
  render_city_table_detailed(result).render_csv(out);
  return out.str();
}

TEST(CheckpointJournalTest, AppendLoadRoundTripsExactly) {
  const auto dir = test::unique_temp_dir();
  const std::string path = (dir / "journal.jsonl").string();

  CellRecord record;
  record.task = 42;
  record.status = "success";
  record.verified = true;
  record.verify_reason = "";
  record.fallback_used = true;
  record.fallback_reason = "lp iteration-limit (phase 2, 17 iterations)";
  record.seconds = 0.1234567890123456789;  // exercises %.17g round-trip
  record.removed = 7;
  record.total_cost = 1.0 / 3.0;

  CellRecord awkward;
  awkward.task = 0;
  awkward.status = "budget-exhausted";
  awkward.verify_reason = "quote \" backslash \\ newline \n tab \t done";
  awkward.seconds = -0.0;
  awkward.total_cost = 1e-308;  // denormal-adjacent magnitude

  {
    CheckpointJournal journal(path, "fp-1");
    journal.append(record);
    journal.append(awkward);
  }
  const auto loaded = CheckpointJournal::load(path, "fp-1");
  ASSERT_EQ(loaded.size(), 2u);
  const CellRecord& a = loaded.at(42);
  EXPECT_EQ(a.status, record.status);
  EXPECT_EQ(a.verified, record.verified);
  EXPECT_EQ(a.fallback_used, record.fallback_used);
  EXPECT_EQ(a.fallback_reason, record.fallback_reason);
  EXPECT_EQ(a.seconds, record.seconds);  // bitwise: %.17g + strtod
  EXPECT_EQ(a.removed, record.removed);
  EXPECT_EQ(a.total_cost, record.total_cost);
  const CellRecord& b = loaded.at(0);
  EXPECT_EQ(b.verify_reason, awkward.verify_reason);
  EXPECT_EQ(b.total_cost, awkward.total_cost);
}

TEST(CheckpointJournalTest, LoadOfMissingFileIsEmpty) {
  const auto dir = test::unique_temp_dir();
  EXPECT_TRUE(CheckpointJournal::load((dir / "nope.jsonl").string(), "fp").empty());
}

TEST(CheckpointJournalTest, FingerprintMismatchThrows) {
  const auto dir = test::unique_temp_dir();
  const std::string path = (dir / "journal.jsonl").string();
  { CheckpointJournal journal(path, "config-A"); }
  EXPECT_THROW(CheckpointJournal::load(path, "config-B"), InvalidInput);
  EXPECT_THROW((CheckpointJournal(path, "config-B")), InvalidInput);
  // The matching fingerprint keeps working (append mode, no header rewrite).
  { CheckpointJournal journal(path, "config-A"); }
  EXPECT_TRUE(CheckpointJournal::load(path, "config-A").empty());
}

TEST(CheckpointJournalTest, TornTrailingLineIsSkippedInteriorCorruptionThrows) {
  const auto dir = test::unique_temp_dir();
  const std::string path = (dir / "journal.jsonl").string();
  CellRecord record;
  record.task = 3;
  record.status = "success";
  record.verified = true;
  {
    CheckpointJournal journal(path, "fp");
    journal.append(record);
  }
  {
    // Simulate a kill mid-append: a partial record with no closing brace.
    std::ofstream out(path, std::ios::app);
    out << "{\"task\":4,\"status\":\"succ";
  }
  const auto loaded = CheckpointJournal::load(path, "fp");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.count(3), 1u);

  // The same garbage in the middle of the file is real corruption.  (Close
  // the raw stream first so the newline lands before the next append.)
  {
    std::ofstream out(path, std::ios::app);
    out << "\n";
  }
  {
    CheckpointJournal journal(path, "fp");
    CellRecord later;
    later.task = 5;
    later.status = "success";
    journal.append(later);
  }
  EXPECT_THROW(CheckpointJournal::load(path, "fp"), InvalidInput);
}

TEST(CheckpointJournalTest, NumbersMustEndAtTheirFieldAndCountsCannotBeNegative) {
  const auto dir = test::unique_temp_dir();
  CellRecord record;
  record.task = 3;
  record.status = "success";
  record.removed = 2;
  const std::string good_path = (dir / "good.jsonl").string();
  {
    CheckpointJournal journal(good_path, "fp");
    journal.append(record);
  }
  std::string good;
  {
    std::ifstream in(good_path);
    std::getline(in, good);  // header
    std::getline(in, good);
  }
  const auto with = [&good](const std::string& from, const std::string& to) {
    std::string line = good;
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from << " not in " << good;
    return line.replace(at, from.size(), to);
  };
  const std::string corrupt[] = {
      with("\"removed\":2,", "\"removed\":2x,"),        // trailing junk
      with("\"task\":3,", "\"task\":-1,"),              // would wrap to 2^64 - 1
      with("\"task\":3,", "\"task\": 3,"),              // leading space
      with("\"seconds\":0,", "\"seconds\":0abc,"),      // junk after a double
      with("\"total_cost\":0}", "\"total_cost\":0 }"),  // space before the brace
      with("\"seconds\":0,", "\"seconds\":nan,"),        // not a finite number
  };
  for (std::size_t i = 0; i < std::size(corrupt); ++i) {
    const std::string path = (dir / ("journal" + std::to_string(i) + ".jsonl")).string();
    { CheckpointJournal journal(path, "fp"); }
    {
      // In the middle of the journal the bad line is corruption...
      std::ofstream out(path, std::ios::app);
      out << corrupt[i] << "\n" << good << "\n";
    }
    EXPECT_THROW(CheckpointJournal::load(path, "fp"), InvalidInput) << corrupt[i];
    {
      // ...and as the last line it is a torn append, dropped.
      std::ofstream out(path, std::ios::trunc);
    }
    { CheckpointJournal journal(path, "fp"); }
    {
      std::ofstream out(path, std::ios::app);
      out << good << "\n" << corrupt[i] << "\n";
    }
    const auto loaded = CheckpointJournal::load(path, "fp");
    EXPECT_EQ(loaded.size(), 1u) << corrupt[i];
    EXPECT_EQ(loaded.count(3), 1u) << corrupt[i];
  }
}

TEST(CheckpointFingerprintTest, CoversEveryResultShapingKnob) {
  const RunConfig base = small_config();
  const std::string fp = checkpoint_fingerprint(base);
  RunConfig changed = base;
  changed.seed = 12;
  EXPECT_NE(checkpoint_fingerprint(changed), fp);
  changed = base;
  changed.trials = 4;
  EXPECT_NE(checkpoint_fingerprint(changed), fp);
  changed = base;
  changed.scale = 0.25;
  EXPECT_NE(checkpoint_fingerprint(changed), fp);
  changed = base;
  changed.path_rank = 11;
  EXPECT_NE(checkpoint_fingerprint(changed), fp);
  changed = base;
  changed.weight = attack::WeightType::Time;
  EXPECT_NE(checkpoint_fingerprint(changed), fp);
  changed = base;
  changed.work_budget.max_lp_pivots = 100;
  EXPECT_NE(checkpoint_fingerprint(changed), fp);
  // Checkpointing knobs themselves do NOT change the fingerprint: a resume
  // must accept the journal it is resuming from.
  changed = base;
  changed.checkpoint_path = "somewhere.jsonl";
  changed.resume = true;
  EXPECT_EQ(checkpoint_fingerprint(changed), fp);
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::instance().reset(); }
  void TearDown() override {
    fault::FaultRegistry::instance().reset();
    set_num_threads(0);
  }

  test::ScopedTimingOff timing_off_;  // resumed and clean bytes compare exactly
};

TEST_F(CheckpointResumeTest, FaultedRunPlusResumeIsByteIdenticalAtEveryThreadCount) {
  const auto dir = test::unique_temp_dir();
  const auto clean = run_city_table(small_config());
  const std::string clean_json = to_json(clean);
  const std::string clean_csv = csv_of(clean);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    set_num_threads(threads);
    const std::string journal =
        (dir / ("journal_t" + std::to_string(threads) + ".jsonl")).string();

    // Pass 1: one injected fault poisons one cell; every other cell lands
    // in the journal.  (The stand-in for a run that died mid-grid: the
    // journal holds exactly the cells that completed.)
    fault::FaultRegistry::instance().arm("pool.task", 2, fault::Action::Throw);
    RunConfig faulted = small_config();
    faulted.checkpoint_path = journal;
    const auto partial = run_city_table(faulted);
    int quarantined = 0;
    for (attack::Algorithm a : attack::kAllAlgorithms) {
      for (attack::CostType c : attack::kAllCostTypes) {
        quarantined += partial.cell(a, c).quarantined;
      }
    }
    ASSERT_EQ(quarantined, 1);
    EXPECT_NE(to_json(partial), clean_json);

    // Pass 2: disarmed resume re-runs only the missing cell and reduces to
    // the exact clean-run bytes.
    fault::FaultRegistry::instance().reset();
    RunConfig resume = small_config();
    resume.checkpoint_path = journal;
    resume.resume = true;
    const auto resumed = run_city_table(resume);
    EXPECT_EQ(to_json(resumed), clean_json);
    EXPECT_EQ(csv_of(resumed), clean_csv);
  }
}

TEST_F(CheckpointResumeTest, TrialDroppedDuringSamplingResumesByteIdentically) {
  // A yen.spur fault during scenario *sampling* (not an attack cell) drops a
  // whole trial, shifting the survivors down the scenarios vector.  Journal
  // task ids are keyed on the original trial index, so the faulted run's
  // records must replay into the right cells and the disarmed resume must
  // reduce to the exact clean-run bytes.  (Position-keyed ids replayed the
  // wrong trial's cells and double-counted the survivor.)
  const auto dir = test::unique_temp_dir();
  const std::string journal = (dir / "journal.jsonl").string();
  const auto clean = run_city_table(small_config());
  const std::string clean_json = to_json(clean);

  fault::FaultRegistry::instance().arm("yen.spur", 25, fault::Action::Throw);
  RunConfig faulted = small_config();
  faulted.checkpoint_path = journal;
  const auto partial = run_city_table(faulted);
  ASSERT_LT(partial.scenarios_run, small_config().trials)
      << "fault did not fire during scenario sampling; pick a smaller `after`";
  EXPECT_NE(to_json(partial), clean_json);

  fault::FaultRegistry::instance().reset();
  RunConfig resume = small_config();
  resume.checkpoint_path = journal;
  resume.resume = true;
  const auto resumed = run_city_table(resume);
  EXPECT_EQ(to_json(resumed), clean_json);
  EXPECT_EQ(csv_of(resumed), csv_of(clean));
}

TEST_F(CheckpointResumeTest, ResumeOfCompleteJournalRecomputesNothing) {
  const auto dir = test::unique_temp_dir();
  const std::string journal = (dir / "journal.jsonl").string();
  RunConfig first = small_config();
  first.checkpoint_path = journal;
  const auto full = run_city_table(first);

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  RunConfig resume = first;
  resume.resume = true;
  const auto resumed = run_city_table(resume);
  EXPECT_EQ(to_json(resumed), to_json(full));

  std::uint64_t cells_run = 0;
  std::uint64_t cells_resumed = 0;
  for (const auto& counter : obs::MetricsRegistry::instance().snapshot().counters) {
    if (counter.name == "exp.cells_run") cells_run = counter.value;
    if (counter.name == "exp.cells_resumed") cells_resumed = counter.value;
  }
  EXPECT_EQ(cells_run, 0u);
  EXPECT_GT(cells_resumed, 0u);
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace mts::exp
