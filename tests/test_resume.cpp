// Durable exploration (explorer::exploreSignalChecked with a
// ResumeContext): the core property is byte-identity — a complete record
// replays exactly the curve an uninterrupted run produces, and a file
// left by a kill at any byte (or damaged at any byte) restarts clean,
// recomputes the same curve and is left complete again.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
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

  // Same journal path, no working-set knees (so other planned sizes): the
  // journal answers a different question and must be discarded, not
  // partially reused.
  ExploreOptions optsB;
  optsB.includeWorkingSetKnees = false;
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

TEST(ConfigHash, PinnedForEveryReadSignalOfTheExampleKernels) {
  // The config hash names journal records, --cache-dir warm files, the
  // service's cache keys and the router's shard placements, so a change
  // that moves it strands every file and placement made before. These
  // literals pin it for every read signal of the built-in kernels and the
  // example .krn files: default options, then each setting it hashes.
  struct Pin {
    const char* kernel;
    const char* signal;
    std::uint64_t hash[6];  // default, no sim, no knees, Streaming,
                            // Materialized, Symbolic
  };
  const Pin pins[] = {
      {"conv2d", "img", {0x29fb2aa74ba43099ULL, 0x778860f4df7aa874ULL,
                         0x614478ff3941f466ULL, 0x9d537d6c2df109e4ULL,
                         0x0d000696b537b57bULL, 0x761ed108d7e3bb66ULL}},
      {"conv2d", "w", {0x945b9ac417f3e2baULL, 0xaa5d96f69e64bd07ULL,
                       0x44bae6d9becb104dULL, 0x42cc763e0ec77b9fULL,
                       0xb227670497217cc8ULL, 0x9f742ad6bfda0b4dULL}},
      {"matmul", "A", {0x2acb4a4d6c4a1270ULL, 0x081e1e53a24aeaf5ULL,
                       0xd125e5f23e5b0bd3ULL, 0xac83ec1c07286f75ULL,
                       0x4414bfc816877802ULL, 0x274d2066699708e7ULL}},
      {"matmul", "B", {0x0c0c2f45b63d3b07ULL, 0xf60a33132fcc60baULL,
                       0x27feaed559783154ULL, 0x489713bd7e0242a2ULL,
                       0xa96ae9250387c595ULL, 0xc49f5934e663e210ULL}},
      {"me", "New", {0x6365cf5d0105d186ULL, 0xebc4617d63d89903ULL,
                     0x800d82e448f53eb9ULL, 0x69bc56916bb1701bULL,
                     0x09e9e4c748093284ULL, 0xa9eaec0263830039ULL}},
      {"me", "Old", {0xc70e40efa697fdb5ULL, 0x89edd8deebb1b230ULL,
                     0xc1f5779e0ebf6f42ULL, 0xe5880b1686d42db0ULL,
                     0x58a8e4a0d7cc6227ULL, 0xb2d6379f2ebedf42ULL}},
      {"susan", "image", {0x74fb72b8a6867491ULL, 0x1dbffbc61d8fd30cULL,
                          0x6ae6195f2ac0731eULL, 0x1da756cdf5d0549cULL,
                          0x27e10f57172ffe93ULL, 0xc35ae1fe77eab6feULL}},
      {"wavelet", "x", {0x05dc3cc522bb6e6fULL, 0x3884c9ba02cdb142ULL,
                        0x07d4513177a5fefcULL, 0x054484eb2102494aULL,
                        0x9553d389b9257eddULL, 0x2f1daeb40fc6ab58ULL}},
      {"downsample", "in", {0x54336927f8518af7ULL, 0x41c5eff5ab6ed7aaULL,
                            0xe6b4daa9e2d8e884ULL, 0x682b02b7e6840192ULL,
                            0xca2a478ed9da46c5ULL, 0x22605d2e737e8740ULL}},
      {"hfilter", "img", {0xc42ad6feae2c1a8bULL, 0x1571d03d3ac0450eULL,
                          0xd8e24410be056f28ULL, 0x594e7c68ffbf2436ULL,
                          0xa17f28193af24f69ULL, 0x44a1b68b2c60dcf4ULL}},
      {"matvec", "A", {0xbf4b96162b7d5f5bULL, 0x0201fc36ff6b659eULL,
                       0xd5c6e9bde06cd1b8ULL, 0xaefcd4dba79c79c6ULL,
                       0x73429e3090b19b79ULL, 0x3e1dd334afa2d3c4ULL}},
      {"matvec", "x", {0x97c79728e505db64ULL, 0x1d46cb604899c949ULL,
                       0x225cb59a935f2957ULL, 0x246f446402b90219ULL,
                       0x7092eac58ef88ce6ULL, 0x077420536c4c86fbULL}},
  };
  const auto program = [](const std::string& name) {
    if (name == "conv2d") return dr::kernels::conv2d({});
    if (name == "matmul") return dr::kernels::matmul({});
    if (name == "me") return dr::kernels::motionEstimation({});
    if (name == "susan") return dr::kernels::susan({});
    if (name == "wavelet") return dr::kernels::waveletLifting({});
    return dr::frontend::compileKernelFile(
        std::string(DR_EXAMPLE_KERNELS_DIR) + "/" + name + ".krn");
  };
  std::vector<ExploreOptions> settings(6);
  settings[1].runSimulation = false;
  settings[2].includeWorkingSetKnees = false;
  settings[3].engine = SimEngine::Streaming;
  settings[4].engine = SimEngine::Materialized;
  settings[5].engine = SimEngine::Symbolic;
  for (const Pin& pin : pins) {
    const dr::loopir::Program p = program(pin.kernel);
    const int signal = p.findSignal(pin.signal);
    ASSERT_GE(signal, 0) << pin.kernel << " " << pin.signal;
    for (std::size_t i = 0; i < settings.size(); ++i)
      EXPECT_EQ(exploreConfigHash(p, signal, settings[i]), pin.hash[i])
          << pin.kernel << " " << pin.signal << " setting " << i;
  }
}

}  // namespace
