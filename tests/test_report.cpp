// Tests for the report module: ASCII plotting and the markdown
// exploration report.

#include <gtest/gtest.h>

#include "explorer/explorer.h"
#include "kernels/motion_estimation.h"
#include "report/ascii_plot.h"
#include "report/report.h"
#include "support/contracts.h"
#include "support/strings.h"

namespace {

using namespace dr::report;

TEST(AsciiPlot, RendersPointsWithinBounds) {
  Series s;
  s.mark = '*';
  s.name = "line";
  for (int i = 1; i <= 10; ++i) s.points.emplace_back(i, i * i);
  PlotOptions opts;
  opts.width = 40;
  opts.height = 10;
  std::string plot = asciiPlot({s}, opts);
  ASSERT_FALSE(plot.empty());
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("* line"), std::string::npos);
  // Every line stays within the frame width.
  for (const std::string& line : dr::support::split(plot, '\n'))
    EXPECT_LE(line.size(), 40u + 24u);
}

TEST(AsciiPlot, LogAxesDropNonPositive) {
  Series s;
  s.points = {{0.0, 5.0}, {-3.0, 2.0}};
  PlotOptions opts;
  opts.logX = true;
  EXPECT_EQ(asciiPlot({s}, opts), "");  // nothing plottable
  s.points.emplace_back(10.0, 5.0);
  EXPECT_NE(asciiPlot({s}, opts), "");
}

TEST(AsciiPlot, OverlappingSeriesMarked) {
  Series a;
  a.mark = '.';
  a.points = {{1, 1}, {2, 2}};
  Series b;
  b.mark = 'o';
  b.points = {{1, 1}};  // overlaps a's first point
  std::string plot = asciiPlot({a, b});
  EXPECT_NE(plot.find('#'), std::string::npos);  // collision marker
}

TEST(AsciiPlot, ValidatesOptions) {
  PlotOptions bad;
  bad.width = 2;
  EXPECT_THROW(asciiPlot({}, bad), dr::support::ContractViolation);
}

TEST(AsciiPlot, SinglePointDegenerateRanges) {
  Series s;
  s.points = {{5, 5}};
  std::string plot = asciiPlot({s});
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(SignalReport, ContainsAllSections) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  dr::explorer::designChains(p, ex);
  std::string md = signalReport(p, ex);
  EXPECT_NE(md.find("# Data reuse exploration: signal `Old`"),
            std::string::npos);
  EXPECT_NE(md.find("## Analytic copy-candidate points"), std::string::npos);
  EXPECT_NE(md.find("## Closed-form multi-level footprints"),
            std::string::npos);
  EXPECT_NE(md.find("## Reuse factor vs copy size"), std::string::npos);
  EXPECT_NE(md.find("## Pareto-optimal hierarchies"), std::string::npos);
  EXPECT_NE(md.find("Belady-optimal simulation"), std::string::npos);
}

TEST(SignalReport, PlotsOptional) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  dr::explorer::designChains(p, ex);
  ReportOptions opts;
  opts.includePlots = false;
  std::string md = signalReport(p, ex, opts);
  EXPECT_EQ(md.find("```"), std::string::npos);
}

TEST(SignalReport, MixedFidelityCurveLabelsRungAndFailedPoints) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  ASSERT_GE(ex.simulatedCurve.points.size(), 3u);
  // Degrade by hand: the run fell to the approximate rung and two points'
  // isolated tasks exhausted their retries.
  ex.curveFidelity = dr::simcore::Fidelity::ApproxFold;
  for (auto& pt : ex.simulatedCurve.points)
    pt.fidelity = dr::simcore::Fidelity::ApproxFold;
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ex.simulatedCurve.points[i].fidelity = dr::simcore::Fidelity::Failed;
    ex.simulatedCurve.points[i].writes = 0;
    ex.simulatedCurve.points[i].reads = 0;
  }
  std::string md = signalReport(p, ex);
  EXPECT_NE(md.find(std::string("curve fidelity: ") +
                    dr::simcore::fidelityName(
                        dr::simcore::Fidelity::ApproxFold)),
            std::string::npos);
  EXPECT_NE(md.find("failed curve points (task retries exhausted): 2"),
            std::string::npos);
  // The plot still renders and labels the rung it shows.
  EXPECT_NE(md.find("Belady-optimal simulation ["), std::string::npos);
}

TEST(SignalReport, ExactCurveReportsNoFailedPoints) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  std::string md = signalReport(p, ex);
  EXPECT_EQ(md.find("failed curve points"), std::string::npos);
}

TEST(CurveCsv, RendersEveryPointIncludingFailedOnes) {
  dr::simcore::ReuseCurve curve;
  curve.points.push_back(
      {4, 10, 100, 10.0, dr::simcore::Fidelity::ExactStream});
  // A Failed point carries no counts (writes/reads zero) but still
  // occupies its row — dropping it silently would misalign resumed runs.
  curve.points.push_back({8, 0, 0, 1.0, dr::simcore::Fidelity::Failed});
  curve.points.push_back({16, 5, 100, 20.0, dr::simcore::Fidelity::ExactFold});
  std::string csv = curveCsv("Old", curve);
  EXPECT_NE(csv.find("size,writes,reads,reuse_factor"), std::string::npos);
  std::size_t rows = 0;
  for (const std::string& line : dr::support::split(csv, '\n'))
    if (!line.empty() && line[0] != '#' &&
        line.find("size") == std::string::npos)
      ++rows;
  EXPECT_EQ(rows, 3u);
  // Deterministic: the canonical rendering is byte-stable.
  EXPECT_EQ(csv, curveCsv("Old", curve));
}

TEST(MetricsReport, RendersCountersCacheLedgerAndLatency) {
  dr::service::MetricsSnapshot s;
  s.requests = 5;
  s.exploreRequests = 3;
  s.cacheHits = 2;
  s.cacheMisses = 1;
  s.cacheEntries = 1;
  s.exploreLatency.count = 3;
  s.exploreLatency.p50Us = 15;
  s.exploreLatency.p95Us = 1023;
  s.exploreLatency.maxUs = 900;
  s.exploreLatency.totalUs = 930;
  std::string md = metricsReport(s);
  EXPECT_NE(md.find("| requests | 5 |"), std::string::npos);
  EXPECT_NE(md.find("| explore requests | 3 |"), std::string::npos);
  EXPECT_NE(md.find("## Result cache"), std::string::npos);
  EXPECT_NE(md.find("hit rate: 0.667 over 3 lookups"), std::string::npos);
  EXPECT_NE(md.find("## Explore latency"), std::string::npos);
  EXPECT_NE(md.find("| mean (us) | 310 |"), std::string::npos);
}

TEST(MetricsReport, OmitsLatencySectionWithNoSamples) {
  dr::service::MetricsSnapshot s;
  s.requests = 1;
  std::string md = metricsReport(s);
  EXPECT_EQ(md.find("## Explore latency"), std::string::npos);
  EXPECT_EQ(md.find("hit rate"), std::string::npos);
}

TEST(SignalReport, LongTablesSubsampled) {
  auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  auto ex = dr::explorer::exploreSignal(p, p.findSignal("Old"));
  ReportOptions opts;
  opts.maxTableRows = 4;
  std::string md = signalReport(p, ex, opts);
  // Count analytic-table rows: must be bounded.
  std::size_t rows = 0;
  for (const std::string& line : dr::support::split(md, '\n'))
    if (line.rfind("| L", 0) == 0 || line.rfind("| combined", 0) == 0)
      ++rows;
  EXPECT_LE(rows, 16u);  // 4-ish rows per table across sections
}

}  // namespace
