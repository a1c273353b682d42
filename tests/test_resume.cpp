// Durable exploration (explorer::exploreSignalChecked with a
// ResumeContext): the core property is byte-identity — a complete record
// replays exactly the curve an uninterrupted run produces, and a file
// left by a kill at any byte (or damaged at any byte) restarts clean,
// recomputes the same curve and is left complete again.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "support/budget.h"

namespace {

using namespace dr::explorer;
using dr::support::i64;
using dr::support::RunBudget;
using dr::support::StatusCode;

dr::loopir::Program meKernel() {
  dr::kernels::MotionEstimationParams mp;
  mp.H = 16;
  mp.W = 16;
  mp.n = 4;
  mp.m = 2;
  return dr::kernels::motionEstimation(mp);
}

std::string tempJournal(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::string readAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Exact textual fingerprint of everything the journal must preserve:
/// the full curve (counts, bit-printed reuse factors, fidelity tags) and
/// the stream totals.
std::string describe(const SignalExploration& ex) {
  std::ostringstream ss;
  ss << ex.Ctot << '/' << ex.distinctElements << '/'
     << static_cast<int>(ex.curveFidelity) << '\n';
  ss.precision(17);
  for (const auto& pt : ex.simulatedCurve.points)
    ss << pt.size << ',' << pt.writes << ',' << pt.reads << ','
       << pt.reuseFactor << ',' << static_cast<int>(pt.fidelity) << '\n';
  const auto& st = ex.simulationStats;
  ss << st.folded << ',' << st.exact << ',' << st.completed << ','
     << static_cast<int>(st.fidelity) << ',' << st.totalEvents << ','
     << st.simulatedEvents << ',' << st.period << ',' << st.repeatCount
     << ',' << st.warmupEvents << ',' << st.distinct << ','
     << st.foldPeriodChunks << '\n';
  return ss.str();
}

TEST(Resume, FreshJournaledRunMatchesPlainRun) {
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ExploreOptions opts;

  auto plain = exploreSignalChecked(p, signal, opts);
  ASSERT_TRUE(plain.hasValue()) << plain.status().str();

  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_fresh.drj");
  ResumeSummary summary;
  auto journaled = exploreSignalChecked(p, signal, opts, ctx, &summary);
  ASSERT_TRUE(journaled.hasValue()) << journaled.status().str();

  EXPECT_EQ(describe(*journaled), describe(*plain));
  EXPECT_FALSE(summary.journalLoaded);
  EXPECT_FALSE(summary.restarted);
  EXPECT_EQ(summary.pointsReused, 0);
  EXPECT_EQ(summary.pointsRecomputed,
            static_cast<i64>(plain->simulatedCurve.points.size()));
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, CompleteJournalReconstructsWithZeroRecomputation) {
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ExploreOptions opts;
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_complete.drj");

  auto first = exploreSignalChecked(p, signal, opts, ctx, nullptr);
  ASSERT_TRUE(first.hasValue()) << first.status().str();

  ResumeSummary summary;
  auto second = exploreSignalChecked(p, signal, opts, ctx, &summary);
  ASSERT_TRUE(second.hasValue()) << second.status().str();
  EXPECT_EQ(describe(*second), describe(*first));
  EXPECT_TRUE(summary.journalLoaded);
  EXPECT_EQ(summary.pointsRecomputed, 0);
  EXPECT_EQ(summary.pointsReused,
            static_cast<i64>(first->simulatedCurve.points.size()));
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, MaterializedEngineReplaysItsRecord) {
  // The reference engine journals through the same one-record path: a
  // rerun replays the record instead of simulating the trace again.
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ExploreOptions opts;
  opts.engine = SimEngine::Materialized;
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_materialized.drj");

  auto plain = exploreSignalChecked(p, signal, opts);
  ASSERT_TRUE(plain.hasValue()) << plain.status().str();
  auto first = exploreSignalChecked(p, signal, opts, ctx, nullptr);
  ASSERT_TRUE(first.hasValue()) << first.status().str();
  EXPECT_EQ(describe(*first), describe(*plain));

  ResumeSummary summary;
  auto second = exploreSignalChecked(p, signal, opts, ctx, &summary);
  ASSERT_TRUE(second.hasValue()) << second.status().str();
  EXPECT_EQ(describe(*second), describe(*plain));
  EXPECT_TRUE(summary.journalLoaded);
  EXPECT_EQ(summary.pointsRecomputed, 0);
  EXPECT_EQ(summary.pointsReused,
            static_cast<i64>(plain->simulatedCurve.points.size()));
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, DegradedRunLeavesThePreviousRecordUntouched) {
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_keep.drj");
  auto exact = exploreSignalChecked(p, signal, ExploreOptions{}, ctx, nullptr);
  ASSERT_TRUE(exact.hasValue()) << exact.status().str();
  const std::string bytes = readAll(ctx.journalPath);
  ASSERT_FALSE(bytes.empty());

  ExploreOptions budgeted;
  RunBudget budget;
  budget.setDeadline(std::chrono::milliseconds(0));  // already expired
  budgeted.budget = &budget;

  // Resuming replays the record before any engine could trip: the
  // budgeted run still answers exactly.
  ResumeSummary replayed;
  auto answered = exploreSignalChecked(p, signal, budgeted, ctx, &replayed);
  ASSERT_TRUE(answered.hasValue()) << answered.status().str();
  EXPECT_EQ(describe(*answered), describe(*exact));
  EXPECT_EQ(replayed.pointsRecomputed, 0);

  // Ignoring it, the run degrades — and writes nothing over it.
  ctx.resume = false;
  auto degraded = exploreSignalChecked(p, signal, budgeted, ctx, nullptr);
  ASSERT_TRUE(degraded.hasValue()) << degraded.status().str();
  EXPECT_EQ(degraded->curveFidelity, dr::simcore::Fidelity::Analytic);
  EXPECT_EQ(readAll(ctx.journalPath), bytes);
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, KilledAtAnyByteRestartsAndResumesByteIdentical) {
  // Write the complete record once, then replay what a kill at any byte
  // of a write, or a damaged byte, would leave at the path: strict
  // prefixes and single-byte flips over the frame length, magic, version
  // and hash, the trailing point and CRC, and every 16th offset between
  // (test_journal parses every offset). Each must restart clean, produce
  // the uninterrupted curve, and leave the complete record behind.
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ExploreOptions opts;
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_kill.drj");

  auto clean = exploreSignalChecked(p, signal, opts);
  ASSERT_TRUE(clean.hasValue()) << clean.status().str();
  const std::string expected = describe(*clean);
  const i64 totalPoints =
      static_cast<i64>(clean->simulatedCurve.points.size());

  auto full = exploreSignalChecked(p, signal, opts, ctx, nullptr);
  ASSERT_TRUE(full.hasValue()) << full.status().str();
  ASSERT_EQ(describe(*full), expected);
  const std::string bytes = readAll(ctx.journalPath);
  ASSERT_FALSE(bytes.empty());

  std::vector<std::string> leftovers;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    if (at >= 24 && at % 16 != 0 && at + 8 < bytes.size()) continue;
    leftovers.push_back(bytes.substr(0, at));
    leftovers.push_back(bytes);
    leftovers.back()[at] = static_cast<char>(bytes[at] ^ 0x01);
  }
  for (std::size_t i = 0; i < leftovers.size(); ++i) {
    SCOPED_TRACE("leftover " + std::to_string(i));
    {
      std::ofstream f(ctx.journalPath, std::ios::binary | std::ios::trunc);
      f << leftovers[i];
    }
    ResumeSummary summary;
    auto resumed = exploreSignalChecked(p, signal, opts, ctx, &summary);
    ASSERT_TRUE(resumed.hasValue()) << resumed.status().str();
    EXPECT_EQ(describe(*resumed), expected);
    EXPECT_TRUE(summary.restarted);
    EXPECT_FALSE(summary.restartReason.empty());
    EXPECT_FALSE(summary.journalLoaded);
    EXPECT_EQ(summary.pointsReused, 0);
    EXPECT_EQ(summary.pointsRecomputed, totalPoints);
    // The rewrite is deterministic: the complete record, byte for byte.
    ASSERT_EQ(readAll(ctx.journalPath), bytes);
  }
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, ConfigMismatchRestartsCleanWithReason) {
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_mismatch.drj");

  ExploreOptions optsA;
  auto first = exploreSignalChecked(p, signal, optsA, ctx, nullptr);
  ASSERT_TRUE(first.hasValue());

  // Same journal path, different size grid: the journal answers a
  // different question and must be discarded, not partially reused.
  ExploreOptions optsB;
  optsB.denseGridUpTo = 16;
  auto plainB = exploreSignalChecked(p, signal, optsB);
  ASSERT_TRUE(plainB.hasValue());
  ResumeSummary summary;
  auto second = exploreSignalChecked(p, signal, optsB, ctx, &summary);
  ASSERT_TRUE(second.hasValue()) << second.status().str();
  EXPECT_TRUE(summary.restarted);
  EXPECT_FALSE(summary.journalLoaded);
  EXPECT_FALSE(summary.restartReason.empty());
  EXPECT_EQ(summary.pointsReused, 0);
  EXPECT_EQ(describe(*second), describe(*plainB));

  // The restarted journal is coherent: resuming under optsB reuses all.
  ResumeSummary again;
  auto third = exploreSignalChecked(p, signal, optsB, ctx, &again);
  ASSERT_TRUE(third.hasValue());
  EXPECT_TRUE(again.journalLoaded);
  EXPECT_EQ(again.pointsRecomputed, 0);
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, CorruptJournalRestartsCleanWithReason) {
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_corrupt.drj");
  {
    std::ofstream f(ctx.journalPath, std::ios::binary);
    f << "this is not a journal";
  }
  ResumeSummary summary;
  auto run = exploreSignalChecked(p, signal, ExploreOptions{}, ctx, &summary);
  ASSERT_TRUE(run.hasValue()) << run.status().str();
  EXPECT_TRUE(summary.restarted);
  EXPECT_FALSE(summary.restartReason.empty());
  auto plain = exploreSignalChecked(p, signal, ExploreOptions{});
  ASSERT_TRUE(plain.hasValue());
  EXPECT_EQ(describe(*run), describe(*plain));
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, BudgetTrippedRunJournalsNothingAndResumesExact) {
  // Degraded rungs are never journaled: a deadline/event trip falls to
  // the analytic curve and writes no file, and the later (unbudgeted)
  // resume redoes the sweep at full fidelity — the CI kill/resume smoke
  // in miniature.
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ExploreOptions opts;
  RunBudget budget;
  budget.setDeadline(std::chrono::milliseconds(0));  // already expired
  opts.budget = &budget;
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_budget.drj");

  ResumeSummary tripped;
  auto degraded = exploreSignalChecked(p, signal, opts, ctx, &tripped);
  ASSERT_TRUE(degraded.hasValue()) << degraded.status().str();
  ASSERT_EQ(degraded->curveFidelity, dr::simcore::Fidelity::Analytic);
  EXPECT_EQ(tripped.pointsReused, 0);

  // Nothing at the path, and no staging debris either.
  EXPECT_FALSE(std::ifstream(ctx.journalPath).good());
  EXPECT_FALSE(std::ifstream(ctx.journalPath + ".tmp").good());

  ExploreOptions unbudgeted;
  auto clean = exploreSignalChecked(p, signal, unbudgeted);
  ASSERT_TRUE(clean.hasValue());
  ResumeSummary summary;
  auto resumed = exploreSignalChecked(p, signal, unbudgeted, ctx, &summary);
  ASSERT_TRUE(resumed.hasValue()) << resumed.status().str();
  EXPECT_EQ(describe(*resumed), describe(*clean));
  EXPECT_EQ(summary.pointsRecomputed,
            static_cast<i64>(clean->simulatedCurve.points.size()));
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, ResumeFalseAlwaysStartsFresh) {
  const auto p = meKernel();
  const int signal = p.findSignal("Old");
  ResumeContext ctx;
  ctx.journalPath = tempJournal("dr_resume_false.drj");
  auto first = exploreSignalChecked(p, signal, ExploreOptions{}, ctx, nullptr);
  ASSERT_TRUE(first.hasValue());

  ctx.resume = false;
  ResumeSummary summary;
  auto second =
      exploreSignalChecked(p, signal, ExploreOptions{}, ctx, &summary);
  ASSERT_TRUE(second.hasValue());
  EXPECT_FALSE(summary.journalLoaded);
  EXPECT_FALSE(summary.restarted);
  EXPECT_EQ(summary.pointsReused, 0);
  std::remove(ctx.journalPath.c_str());
}

TEST(Resume, BadRequestsAreStatusesNotCrashes) {
  const auto p = meKernel();
  ResumeContext ctx;  // empty journalPath
  auto noPath = exploreSignalChecked(p, p.findSignal("Old"),
                                     ExploreOptions{}, ctx, nullptr);
  ASSERT_FALSE(noPath.hasValue());
  EXPECT_EQ(noPath.status().code(), StatusCode::InvalidInput);

  ctx.journalPath = tempJournal("dr_resume_bad.drj");
  auto badSignal =
      exploreSignalChecked(p, 99, ExploreOptions{}, ctx, nullptr);
  ASSERT_FALSE(badSignal.hasValue());
  EXPECT_EQ(badSignal.status().code(), StatusCode::InvalidInput);
}

}  // namespace
