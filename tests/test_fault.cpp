// Fault-injection tests: every injected failure must take a clean error
// path — Status for user-facing I/O, std::bad_alloc unwinding without
// leaks for engine growth, budget degradation for deadline expiry — and
// never leave partial artifacts behind. Meaningful only when the build
// compiled the probes in (-DDR_FAULT_INJECT, the CI ASan job); otherwise
// every test skips.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "support/budget.h"
#include "support/dataset.h"
#include "support/fault.h"
#include "support/journal.h"

namespace {

namespace fault = dr::support::fault;
using dr::support::BudgetTrip;
using dr::support::DataSet;
using dr::support::RunBudget;
using dr::support::StatusCode;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kCompiledIn)
      GTEST_SKIP() << "built without DR_FAULT_INJECT";
    fault::disarmAll();
  }
  void TearDown() override { fault::disarmAll(); }
};

bool fileExists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string readAll(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST_F(FaultTest, InjectedWriteFailureLeavesNoPartialFile) {
  const std::string path = ::testing::TempDir() + "dr_fault_ds.dat";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  fault::arm(fault::FaultSite::DatasetWrite, 1);
  auto st = DataSet::writeFileStatus(path, "half-written table\n");
  EXPECT_EQ(st.code(), StatusCode::IoError);
  // Neither the target nor the temp file survives the failure.
  EXPECT_FALSE(fileExists(path));
  EXPECT_FALSE(fileExists(path + ".tmp"));

  // The next (un-failed) write lands atomically with the full payload.
  fault::disarmAll();
  ASSERT_TRUE(DataSet::writeFileStatus(path, "complete table\n").isOk());
  EXPECT_EQ(readAll(path), "complete table\n");
  EXPECT_FALSE(fileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedWriteFailureNeverClobbersPreviousOutput) {
  const std::string path = ::testing::TempDir() + "dr_fault_keep.dat";
  ASSERT_TRUE(DataSet::writeFileStatus(path, "good data\n").isOk());

  fault::arm(fault::FaultSite::DatasetWrite, 1);
  auto st = DataSet::writeFileStatus(path, "new data\n");
  EXPECT_EQ(st.code(), StatusCode::IoError);
  // The failed overwrite left the previous content untouched.
  EXPECT_EQ(readAll(path), "good data\n");
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedAllocFailureUnwindsCleanly) {
  // First engine-growth probe throws bad_alloc; under ASan this doubles
  // as a leak check of the partially-constructed streaming engines.
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  fault::arm(fault::FaultSite::Alloc, 1);
  EXPECT_THROW(
      { (void)dr::explorer::exploreSignal(p, p.findSignal("Old")); },
      std::bad_alloc);
}

TEST_F(FaultTest, CheckedFacadeMapsInjectedAllocToStatus) {
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  fault::arm(fault::FaultSite::Alloc, 1);
  auto r = dr::explorer::exploreSignalChecked(p, p.findSignal("Old"));
  ASSERT_FALSE(r.hasValue());
  EXPECT_EQ(r.status().code(), StatusCode::BudgetExceeded);
}

TEST_F(FaultTest, InjectedDeadlineDegradesToAnalytic) {
  // The deadline probe trips an armed-but-unexpired deadline: the
  // exploration must degrade down the ladder exactly as a real expiry
  // would, not throw.
  const auto p = dr::kernels::motionEstimation({.H = 32, .W = 32});
  RunBudget b;
  b.setDeadline(std::chrono::hours(24));  // far future
  fault::armRandom(fault::FaultSite::Deadline, /*seed=*/42, /*p=*/1.0);

  dr::explorer::ExploreOptions opts;
  opts.budget = &b;
  const auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"), opts);
  EXPECT_EQ(ex.curveFidelity, dr::simcore::Fidelity::Analytic);
  EXPECT_EQ(ex.simulationStats.trippedBy, BudgetTrip::Deadline);
  for (const auto& pt : ex.simulatedCurve.points)
    EXPECT_EQ(pt.fidelity, dr::simcore::Fidelity::Analytic);
}

TEST_F(FaultTest, DiskFullDuringWriteKeepsThePreviousFile) {
  const std::string path = ::testing::TempDir() + "dr_fault_enospc.journal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  dr::support::JournalRecord previous;
  previous.configHash = 0xd15cf011ULL;
  previous.points.push_back({4, 2, 8});
  ASSERT_TRUE(dr::support::writeJournal(path, previous).isOk());

  // A full disk mid-write is a structured IoError, never a crash...
  dr::support::JournalRecord next = previous;
  next.points.push_back({8, 1, 8});
  fault::arm(fault::FaultSite::DiskFull, 1);
  auto st = dr::support::writeJournal(path, next);
  EXPECT_EQ(st.code(), StatusCode::IoError);
  fault::disarmAll();

  // ...the previous record is still the file at the path, whole, and the
  // staging file is gone.
  auto loaded = dr::support::loadJournal(path);
  ASSERT_TRUE(loaded.hasValue()) << loaded.status().str();
  EXPECT_EQ(*loaded, previous);
  EXPECT_FALSE(fileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(FaultTest, DiskFullFailsJournalCreationCleanly) {
  const std::string path = ::testing::TempDir() + "dr_fault_create.journal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  fault::arm(fault::FaultSite::DiskFull, 1);
  auto st = dr::support::writeJournal(path, dr::support::JournalRecord{});
  EXPECT_EQ(st.code(), StatusCode::IoError);
  fault::disarmAll();
  // No partial journal left behind at either the final or the temp path.
  EXPECT_FALSE(fileExists(path));
  EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST_F(FaultTest, DeterministicSchedulesReplay) {
  fault::armRandom(fault::FaultSite::DatasetWrite, /*seed=*/7, /*p=*/0.5);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i)
    first.push_back(fault::shouldFail(fault::FaultSite::DatasetWrite));
  fault::disarmAll();
  fault::armRandom(fault::FaultSite::DatasetWrite, /*seed=*/7, /*p=*/0.5);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(fault::shouldFail(fault::FaultSite::DatasetWrite),
              first[static_cast<std::size_t>(i)])
        << "probe " << i;
}

}  // namespace
