// Unit tests for the support module: integer math, rationals, matrices,
// strings, datasets, CLI parsing, RNG determinism.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "support/budget.h"
#include "support/cli.h"
#include "support/contracts.h"
#include "support/dataset.h"
#include "support/intmath.h"
#include "support/matrix.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace {

using namespace dr::support;

TEST(IntMath, GcdBasics) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(18, 12), 6);
  EXPECT_EQ(gcd(7, 13), 1);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(5, 0), 5);
  EXPECT_EQ(gcd(0, 0), 0);
}

TEST(IntMath, GcdNegativeOperands) {
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(12, -18), 6);
  EXPECT_EQ(gcd(-12, -18), 6);
}

TEST(IntMath, Lcm) {
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 6), 0);
  EXPECT_EQ(lcm(-4, 6), 12);
}

TEST(IntMath, FloorDiv) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(floorDiv(6, 3), 2);
  EXPECT_THROW(floorDiv(1, 0), ContractViolation);
}

TEST(IntMath, CeilDiv) {
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(ceilDiv(6, 3), 2);
  EXPECT_THROW(ceilDiv(1, 0), ContractViolation);
}

TEST(IntMath, Mod) {
  EXPECT_EQ(mod(7, 3), 1);
  EXPECT_EQ(mod(-7, 3), 2);
  EXPECT_EQ(mod(-7, -3), 2);
  EXPECT_EQ(mod(0, 5), 0);
  EXPECT_THROW(mod(1, 0), ContractViolation);
}

TEST(IntMath, FloorDivModConsistency) {
  for (i64 a = -20; a <= 20; ++a)
    for (i64 b : {-7, -3, -1, 1, 2, 5}) {
      EXPECT_EQ(floorDiv(a, b) * b + (a - floorDiv(a, b) * b), a);
      if (b > 0) {
        EXPECT_EQ(a - floorDiv(a, b) * b, mod(a, b));
      }
    }
}

TEST(IntMath, CheckedOverflowDetection) {
  i64 big = std::numeric_limits<i64>::max();
  EXPECT_THROW(checkedAdd(big, 1), ContractViolation);
  EXPECT_THROW(checkedMul(big, 2), ContractViolation);
  EXPECT_THROW(checkedSub(std::numeric_limits<i64>::min(), 1),
               ContractViolation);
  EXPECT_EQ(checkedAdd(2, 3), 5);
  EXPECT_EQ(checkedMul(-4, 5), -20);
  EXPECT_EQ(checkedSub(2, 5), -3);
}

TEST(Rational, CanonicalForm) {
  Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
  Rational neg(3, -6);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 2);
  EXPECT_THROW(Rational(1, 0), ContractViolation);
}

TEST(Rational, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
  EXPECT_THROW(a / Rational(0), ContractViolation);
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GE(Rational(1, 2), Rational(2, 4));
  EXPECT_NE(Rational(1, 2), Rational(1, 3));
}

TEST(Rational, ConversionsAndStr) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).toDouble(), 0.25);
  EXPECT_TRUE(Rational(8, 4).isInteger());
  EXPECT_FALSE(Rational(1, 4).isInteger());
  EXPECT_EQ(Rational(7, 2).str(), "7/2");
  EXPECT_EQ(Rational(6, 2).str(), "3");
}

TEST(Rational, LargeValuesCrossReduce) {
  // 10^9/2 * 2/10^9 must not overflow thanks to cross-reduction.
  Rational a(1000000000, 2), b(2, 1000000000);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(IntMatrix, RankZero) {
  IntMatrix z(3, 2);
  EXPECT_EQ(z.rank(), 0);
  EXPECT_TRUE(z.isZero());
}

TEST(IntMatrix, RankOneProportionalRows) {
  IntMatrix m{{2, -4}, {1, -2}, {-3, 6}};
  EXPECT_EQ(m.rank(), 1);
}

TEST(IntMatrix, RankTwo) {
  IntMatrix m{{1, 0}, {0, 1}};
  EXPECT_EQ(m.rank(), 2);
  IntMatrix me{{0, 0}, {1, 1}, {1, -1}};
  EXPECT_EQ(me.rank(), 2);
}

TEST(IntMatrix, RankOfMotionEstimationB) {
  // Paper Section 6.3: the (i5,i6) pair has rank 2, the (i4,..,i6) pair
  // rank 1.
  IntMatrix inner{{1, 0}, {0, -1}};
  EXPECT_EQ(inner.rank(), 2);
  IntMatrix outer{{0, 0}, {1, -1}};
  EXPECT_EQ(outer.rank(), 1);
}

TEST(IntMatrix, RankBiggerDense) {
  IntMatrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  EXPECT_EQ(m.rank(), 2);  // classic singular example
  IntMatrix full{{2, 0, 0}, {0, 3, 0}, {0, 0, 5}};
  EXPECT_EQ(full.rank(), 3);
}

TEST(IntMatrix, TransposePreservesRank) {
  IntMatrix m{{1, 2, 3}, {2, 4, 6}};
  EXPECT_EQ(m.rank(), 1);
  EXPECT_EQ(m.transposed().rank(), 1);
  EXPECT_EQ(m.transposed().rows(), 3);
}

TEST(IntMatrix, AccessorsAndValidation) {
  IntMatrix m(2, 2);
  m.at(0, 1) = 7;
  EXPECT_EQ(m.at(0, 1), 7);
  EXPECT_THROW(m.at(2, 0), ContractViolation);
  EXPECT_THROW((IntMatrix{{1, 2}, {3}}), ContractViolation);
}

TEST(Strings, JoinSplitTrim) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("   "), "");
  EXPECT_TRUE(startsWith("--flag", "--"));
  EXPECT_FALSE(startsWith("-", "--"));
}

TEST(Strings, FmtAndIndent) {
  EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
  EXPECT_EQ(fmtDouble(2.0, 0), "2");
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");  // blank lines stay blank
}

TEST(DataSet, RowsAndRendering) {
  DataSet ds("curve", {"size", "fr"});
  ds.addRow({2.0, 10.0});
  ds.addRow({1.0, 5.0});
  EXPECT_EQ(ds.rowCount(), 2u);
  EXPECT_THROW(ds.addRow({1.0}), ContractViolation);
  ds.sortByColumn(0);
  EXPECT_DOUBLE_EQ(ds.row(0)[0], 1.0);
  std::string csv = ds.toCsv(1);
  EXPECT_NE(csv.find("size,fr"), std::string::npos);
  EXPECT_NE(csv.find("1.0,5.0"), std::string::npos);
  std::string gp = ds.toGnuplot(1);
  EXPECT_NE(gp.find("# curve"), std::string::npos);
  std::string table = ds.toTable(1);
  EXPECT_NE(table.find("== curve =="), std::string::npos);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "2", "--flag"};
  CliOptions cli(5, argv);
  EXPECT_EQ(cli.getInt("a", 0), 1);
  EXPECT_EQ(cli.getInt("b", 0), 2);
  EXPECT_TRUE(cli.getBool("flag", false));
  EXPECT_EQ(cli.getInt("absent", 9), 9);
  EXPECT_TRUE(cli.unusedNames().empty());
}

TEST(Cli, RejectsBadInput) {
  const char* pos[] = {"prog", "stray"};
  EXPECT_THROW(CliOptions(2, pos), ContractViolation);
  const char* bad[] = {"prog", "--n=abc"};
  CliOptions cli(2, bad);
  EXPECT_THROW(cli.getInt("n", 0), ContractViolation);
}

TEST(Cli, ParsesExploreKernelFlagSet) {
  // The full explore_kernel surface, --cache-dir included, in all three
  // argument forms (--k=v, --k v, bare flag).
  const char* argv[] = {"prog",          "--kernel",    "k.krn",
                        "--signal=Old",  "--cache-dir", "/tmp/warm",
                        "--journal",     "j.journal",   "--no-resume",
                        "--deadline-ms", "250",         "--curve-out=c.csv",
                        "--orderings=64"};
  CliOptions cli(13, argv);
  EXPECT_EQ(cli.getString("kernel", ""), "k.krn");
  EXPECT_EQ(cli.getString("signal", ""), "Old");
  EXPECT_EQ(cli.getString("cache-dir", ""), "/tmp/warm");
  EXPECT_EQ(cli.getString("journal", ""), "j.journal");
  EXPECT_TRUE(cli.getBool("no-resume", false));
  EXPECT_EQ(cli.getInt("deadline-ms", 0), 250);
  EXPECT_EQ(cli.getString("curve-out", ""), "c.csv");
  EXPECT_EQ(cli.getInt("orderings", 0), 64);
  EXPECT_FALSE(cli.getBool("no-sim", false));  // absent: fallback
  EXPECT_TRUE(cli.unusedNames().empty());
}

TEST(Cli, UnusedNamesReported) {
  const char* argv[] = {"prog", "--typo=1"};
  CliOptions cli(2, argv);
  auto unused = cli.unusedNames();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    double d = r.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(r.uniform(3, 2), dr::support::ContractViolation);
}

TEST(Contracts, MacrosThrowWithContext) {
  try {
    DR_REQUIRE_MSG(false, "details here");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("details here"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
}

}  // namespace

namespace {

TEST(DataSet, WriteFileRoundTrip) {
  std::string path = ::testing::TempDir() + "dr_dataset_test.dat";
  dr::support::DataSet ds("t", {"a"});
  ds.addRow({1.5});
  dr::support::DataSet::writeFile(path, ds.toGnuplot());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "# t");
  std::remove(path.c_str());
}

TEST(DataSet, WriteFileFailsOnBadPath) {
  EXPECT_THROW(dr::support::DataSet::writeFile("/nonexistent-dir/x.dat", "y"),
               dr::support::ContractViolation);
}

TEST(Parallel, ThreadCountIsPositive) {
  EXPECT_GE(parallelThreads(), 1);
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  const i64 n = 10'000;
  std::vector<std::atomic<int>> counts(static_cast<std::size_t>(n));
  parallelFor(n, [&](i64 i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (i64 i = 0; i < n; ++i)
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(Parallel, PerIndexSlotsMatchSerialResult) {
  const i64 n = 513;
  std::vector<i64> serial(static_cast<std::size_t>(n));
  std::vector<i64> parallel(static_cast<std::size_t>(n));
  auto compute = [](i64 i) { return i * i + 7; };
  for (i64 i = 0; i < n; ++i) serial[static_cast<std::size_t>(i)] = compute(i);
  parallelFor(n, [&](i64 i) {
    parallel[static_cast<std::size_t>(i)] = compute(i);
  });
  EXPECT_EQ(parallel, serial);
}

TEST(Parallel, ExplicitSingleThreadRunsSerially) {
  // threads=1 must run inline on the caller, in order.
  std::vector<i64> order;
  parallelFor(64, [&](i64 i) { order.push_back(i); }, /*threads=*/1);
  ASSERT_EQ(order.size(), 64u);
  for (i64 i = 0; i < 64; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Parallel, PropagatesFirstException) {
  EXPECT_THROW(
      parallelFor(500,
                  [](i64 i) {
                    if (i == 137) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must stay usable afterwards.
  std::atomic<i64> sum{0};
  parallelFor(100, [&](i64 i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(Parallel, NestedCallsDegradeToSerial) {
  std::vector<std::atomic<int>> counts(64 * 16);
  parallelFor(64, [&](i64 outer) {
    parallelFor(16, [&](i64 inner) {
      counts[static_cast<std::size_t>(outer * 16 + inner)].fetch_add(1);
    });
  });
  for (auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST(Parallel, ZeroAndOneSizedLoops) {
  int calls = 0;
  parallelFor(0, [&](i64) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(1, [&](i64 i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(parallelFor(-1, [](i64) {}), dr::support::ContractViolation);
}

// --- status / expected ----------------------------------------------------

TEST(Status, OkByDefaultAndErrorCarriesDiagnostics) {
  dr::support::Status ok;
  EXPECT_TRUE(ok.isOk());
  EXPECT_EQ(ok.code(), dr::support::StatusCode::Ok);

  auto st = dr::support::Status::error(
      dr::support::StatusCode::InvalidInput, "2 problems",
      {{"1:2", "first"}, {"3:4", "second"}});
  EXPECT_FALSE(st.isOk());
  ASSERT_EQ(st.diagnostics().size(), 2u);
  EXPECT_EQ(st.diagnostics()[0].str(), "1:2: first");
  st.addDiagnostic({"", "unlocated"});
  EXPECT_EQ(st.diagnostics()[2].str(), "unlocated");
  // str() renders one line per problem.
  EXPECT_NE(st.str().find("invalid input"), std::string::npos);
  EXPECT_NE(st.str().find("3:4: second"), std::string::npos);
}

TEST(Status, ErrorRequiresNonOkCode) {
  EXPECT_THROW(
      dr::support::Status::error(dr::support::StatusCode::Ok, "nope"),
      dr::support::ContractViolation);
}

TEST(Expected, ValueAndStatusPaths) {
  dr::support::Expected<int> good(7);
  ASSERT_TRUE(good.hasValue());
  EXPECT_EQ(*good, 7);
  EXPECT_TRUE(good.status().isOk());

  dr::support::Expected<int> bad(dr::support::Status::error(
      dr::support::StatusCode::IoError, "disk on fire"));
  EXPECT_FALSE(bad.hasValue());
  EXPECT_EQ(bad.status().code(), dr::support::StatusCode::IoError);
  EXPECT_THROW((void)bad.value(), dr::support::ContractViolation);
}

// --- atomic dataset writes ------------------------------------------------

TEST(DataSet, WriteIsAtomicViaTempAndRename) {
  const std::string path = ::testing::TempDir() + "dr_atomic.dat";
  std::remove(path.c_str());
  ASSERT_TRUE(
      dr::support::DataSet::writeFileStatus(path, "payload\n").isOk());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "payload");
  // The temp staging file never survives a successful commit.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(DataSet, WriteFileStatusReportsIoErrorOnBadPath) {
  auto st = dr::support::DataSet::writeFileStatus(
      "/nonexistent-dir/out.dat", "x");
  EXPECT_EQ(st.code(), dr::support::StatusCode::IoError);
}

// --- non-throwing CLI parse + guarded main --------------------------------

TEST(Cli, ParseReturnsStatusOnPositionalArgument) {
  const char* argv[] = {"prog", "stray"};
  auto r = dr::support::CliOptions::parse(2, argv);
  ASSERT_FALSE(r.hasValue());
  EXPECT_EQ(r.status().code(), dr::support::StatusCode::InvalidInput);
}

TEST(Cli, ParseMatchesThrowingConstructor) {
  const char* argv[] = {"prog", "--a=1", "--flag", "--b", "2"};
  auto r = dr::support::CliOptions::parse(5, argv);
  ASSERT_TRUE(r.hasValue());
  EXPECT_EQ(r->getInt("a", 0), 1);
  EXPECT_TRUE(r->getBool("flag", false));
  EXPECT_EQ(r->getInt("b", 0), 2);
}

TEST(Cli, GuardedMainTranslatesFailures) {
  EXPECT_EQ(dr::support::guardedMain([] { return 0; }), 0);
  EXPECT_EQ(dr::support::guardedMain([]() -> int {
              throw std::runtime_error("user-visible failure");
            }),
            1);
  EXPECT_EQ(dr::support::guardedMain([]() -> int {
              DR_REQUIRE_MSG(false, "library bug");
              return 0;
            }),
            2);
}

// --- budget-aware parallel sweeps -----------------------------------------

TEST(Parallel, BudgetOverloadSkipsAfterTrip) {
  dr::support::RunBudget b;
  b.cancel();
  std::atomic<int> ran{0};
  dr::support::parallelFor(64, &b, [&](i64) { ++ran; });
  EXPECT_EQ(ran.load(), 0);  // tripped before any index was claimed
}

TEST(Parallel, NullBudgetRunsEverything) {
  std::atomic<int> ran{0};
  dr::support::parallelFor(64, nullptr, [&](i64) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

TEST(Rng, MixSeedIsDeterministicAndSensitiveToEveryInput) {
  using dr::support::mixSeed;
  EXPECT_EQ(mixSeed(1, 2, 3), mixSeed(1, 2, 3));
  EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 2, 4));
  EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 3, 3));
  EXPECT_NE(mixSeed(1, 2, 3), mixSeed(2, 2, 3));
  // (task, attempt) pairs must not collide along the retry ladder: the
  // backoff jitter of task i attempt a is its own reproducible stream.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t task = 0; task < 64; ++task)
    for (std::uint64_t attempt = 1; attempt <= 4; ++attempt)
      seen.push_back(mixSeed(7, task, attempt));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
