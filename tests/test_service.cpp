// Tests for the exploration service (src/service/): protocol framing,
// the content-addressed result cache (memory LRU + warm journal layer),
// single-flight deduplication, metrics, and the Unix-domain-socket
// daemon end to end — including the acceptance gates: a burst of
// concurrent identical queries costs exactly one simulation, a warm
// lookup is >= 100x faster than the cold compute, the daemon-served CSV
// is byte-identical to the direct explorer rendering, and malformed
// frames / mid-query disconnects / injected I/O faults never take the
// daemon down.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "kernels/conv2d.h"
#include "kernels/motion_estimation.h"
#include "report/report.h"
#include "service/admission.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/server.h"
#include "service/singleflight.h"
#include "service/transport.h"
#include "support/budget.h"
#include "support/fault.h"
#include "support/journal.h"
#include "support/rng.h"
#include "support/status.h"

namespace {

namespace proto = dr::service::proto;
using dr::service::AdmissionOptions;
using dr::service::CachedCurve;
using dr::service::Client;
using dr::service::ClientOptions;
using dr::service::ResultCache;
using dr::service::Server;
using dr::service::ServerOptions;
using dr::service::SingleFlight;
using dr::support::i64;
using dr::support::Status;
using dr::support::StatusCode;

// ---- helpers ------------------------------------------------------------

std::string uniqueName(const char* stem) {
  static std::atomic<int> counter{0};
  return std::string(stem) + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

std::string tempDir(const char* stem) {
  std::string dir = ::testing::TempDir() + uniqueName(stem);
  ::mkdir(dir.c_str(), 0777);
  return dir;
}

/// Sockets live in /tmp directly: sun_path caps at ~100 chars and
/// ::testing::TempDir() can be deep.
std::string socketPath() { return "/tmp/" + uniqueName("drsvc") + ".sock"; }

int connectTo(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendAll(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one Reply frame from `fd` (blocking until complete or closed).
dr::support::Expected<proto::Reply> readReply(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    proto::FrameParse parse = proto::tryParseFrame(buffer);
    if (parse.result == proto::ParseResult::Corrupt) return parse.status;
    if (parse.result == proto::ParseResult::Ok) {
      if (parse.frame.verb != proto::Verb::Reply)
        return Status::error(StatusCode::InvalidInput, "non-Reply frame");
      return proto::decodeReply(parse.frame.payload);
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::error(StatusCode::IoError, "connection closed early");
  }
}

dr::support::Expected<proto::Reply> roundTrip(const std::string& path,
                                              proto::Verb verb,
                                              const std::string& payload) {
  int fd = connectTo(path);
  if (fd < 0)
    return Status::error(StatusCode::IoError,
                         "connect " + path + ": " + std::strerror(errno));
  if (!sendAll(fd, proto::encodeFrame(verb, payload))) {
    ::close(fd);
    return Status::error(StatusCode::IoError, "send failed");
  }
  auto reply = readReply(fd);
  ::close(fd);
  return reply;
}

dr::support::Expected<proto::ExploreResult> queryExplore(
    const std::string& path, const std::string& kernel,
    const std::string& signal, std::uint8_t flags = 0) {
  proto::ExploreRequest req;
  req.kernel = kernel;
  req.signal = signal;
  req.flags = flags;
  auto reply =
      roundTrip(path, proto::Verb::Explore, proto::encodeExploreRequest(req));
  if (!reply.hasValue()) return reply.status();
  if (reply->code != StatusCode::Ok)
    return Status::error(reply->code, reply->message);
  return proto::decodeExploreResult(reply->body);
}

CachedCurve makeEntry(std::uint64_t hash, std::size_t csvBytes) {
  CachedCurve e;
  e.configHash = hash;
  e.signalName = "s";
  e.csv = std::string(csvBytes, 'x');
  return e;
}

// ---- protocol -----------------------------------------------------------

TEST(Protocol, FrameRoundTrip) {
  const std::string payload = "hello frames";
  const std::string frame = proto::encodeFrame(proto::Verb::Stats, payload);
  auto parse = proto::tryParseFrame(frame);
  ASSERT_EQ(parse.result, proto::ParseResult::Ok);
  EXPECT_EQ(parse.frame.verb, proto::Verb::Stats);
  EXPECT_EQ(parse.frame.payload, payload);
  EXPECT_EQ(parse.consumed, frame.size());
  EXPECT_TRUE(parse.status.isOk());
}

TEST(Protocol, EveryPrefixNeedsMore) {
  const std::string frame =
      proto::encodeFrame(proto::Verb::Explore, "abcdef");
  for (std::size_t n = 0; n < frame.size(); ++n) {
    auto parse = proto::tryParseFrame(frame.substr(0, n));
    EXPECT_EQ(parse.result, proto::ParseResult::NeedMore) << "prefix " << n;
  }
}

TEST(Protocol, BadMagicIsCorruptImmediately) {
  auto parse = proto::tryParseFrame("X");  // one wrong byte is enough
  EXPECT_EQ(parse.result, proto::ParseResult::Corrupt);
  EXPECT_EQ(parse.status.code(), StatusCode::InvalidInput);
}

TEST(Protocol, ChecksumMismatchIsCorrupt) {
  std::string frame = proto::encodeFrame(proto::Verb::Explore, "payload");
  frame[proto::kHeaderSize] ^= 0x01;  // flip one payload bit
  auto parse = proto::tryParseFrame(frame);
  ASSERT_EQ(parse.result, proto::ParseResult::Corrupt);
  EXPECT_NE(parse.status.message().find("checksum"), std::string::npos);
}

TEST(Protocol, OversizedLengthIsCorruptBeforeBuffering) {
  // Hand-build a header whose length prefix exceeds the cap; the parser
  // must reject it without waiting for the (absurd) payload.
  std::string header;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((proto::kMagic >> (8 * i)) & 0xFF));
  header.push_back(static_cast<char>(proto::kVersion));
  header.push_back(static_cast<char>(proto::Verb::Explore));
  const std::uint32_t huge =
      static_cast<std::uint32_t>(proto::kMaxPayload) + 1;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  auto parse = proto::tryParseFrame(header);
  ASSERT_EQ(parse.result, proto::ParseResult::Corrupt);
  EXPECT_NE(parse.status.message().find("cap"), std::string::npos);
}

TEST(Protocol, UnknownVerbAndVersionAreCorrupt) {
  std::string frame = proto::encodeFrame(proto::Verb::Explore, "x");
  std::string badVerb = frame;
  badVerb[5] = 9;  // no such verb
  EXPECT_EQ(proto::tryParseFrame(badVerb).result, proto::ParseResult::Corrupt);
  std::string badVersion = frame;
  badVersion[4] = 1;  // pre-deadline-propagation version: rejected outright
  EXPECT_EQ(proto::tryParseFrame(badVersion).result,
            proto::ParseResult::Corrupt);
  badVersion[4] = 3;  // future version
  EXPECT_EQ(proto::tryParseFrame(badVersion).result,
            proto::ParseResult::Corrupt);
}

TEST(Protocol, ExploreRequestRoundTrip) {
  proto::ExploreRequest req;
  req.kernel = "kernel k { }";
  req.signal = "A";
  req.deadlineMs = 1234;
  req.flags = proto::kFlagNoCache;
  const std::string payload = proto::encodeExploreRequest(req);
  auto decoded = proto::decodeExploreRequest(payload);
  ASSERT_TRUE(decoded.hasValue());
  EXPECT_EQ(decoded->kernel, req.kernel);
  EXPECT_EQ(decoded->signal, req.signal);
  EXPECT_EQ(decoded->deadlineMs, req.deadlineMs);
  EXPECT_EQ(decoded->flags, req.flags);
  // Truncation and trailing garbage are both rejected, never crash.
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(proto::decodeExploreRequest(payload.substr(0, n)).hasValue());
  EXPECT_FALSE(proto::decodeExploreRequest(payload + "x").hasValue());
}

TEST(Protocol, ReplyAndExploreResultRoundTrip) {
  proto::ExploreResult result;
  result.cached = true;
  result.fidelity = 1;
  result.Ctot = 1 << 20;
  result.distinctElements = 4096;
  result.csv = "size,writes\n1,2\n";
  proto::Reply reply;
  reply.code = StatusCode::Ok;
  reply.body = proto::encodeExploreResult(result);
  auto decodedReply = proto::decodeReply(proto::encodeReply(reply));
  ASSERT_TRUE(decodedReply.hasValue());
  EXPECT_EQ(decodedReply->code, StatusCode::Ok);
  auto decoded = proto::decodeExploreResult(decodedReply->body);
  ASSERT_TRUE(decoded.hasValue());
  EXPECT_TRUE(decoded->cached);
  EXPECT_EQ(decoded->Ctot, result.Ctot);
  EXPECT_EQ(decoded->distinctElements, result.distinctElements);
  EXPECT_EQ(decoded->csv, result.csv);
  // An out-of-range status code is rejected.
  std::string bad = proto::encodeReply(reply);
  bad[0] = 100;
  EXPECT_FALSE(proto::decodeReply(bad).hasValue());
}

// ---- result cache -------------------------------------------------------

TEST(ResultCache, EvictsLeastRecentlyUsedPastByteBudget) {
  ResultCache::Options opts;
  opts.maxBytes = 3 * makeEntry(0, 100).bytes();
  ResultCache cache(opts);
  cache.put(makeEntry(1, 100));
  cache.put(makeEntry(2, 100));
  cache.put(makeEntry(3, 100));
  EXPECT_EQ(cache.stats().entries, 3);
  cache.put(makeEntry(4, 100));  // evicts 1, the oldest
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 3);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(4).has_value());
  EXPECT_LE(s.bytes, opts.maxBytes);
}

TEST(ResultCache, GetRefreshesRecency) {
  ResultCache::Options opts;
  opts.maxBytes = 2 * makeEntry(0, 100).bytes();
  ResultCache cache(opts);
  cache.put(makeEntry(1, 100));
  cache.put(makeEntry(2, 100));
  ASSERT_TRUE(cache.get(1).has_value());  // 1 is now most recent
  cache.put(makeEntry(3, 100));           // evicts 2, not 1
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(ResultCache, EntryLargerThanBudgetIsNotStored) {
  ResultCache::Options opts;
  opts.maxBytes = 128;
  ResultCache cache(opts);
  cache.put(makeEntry(1, 4096));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ResultCache, ReplacingAnEntryKeepsAccountingConsistent) {
  ResultCache::Options opts;
  opts.maxBytes = 1 << 20;
  ResultCache cache(opts);
  cache.put(makeEntry(1, 100));
  const i64 before = cache.stats().bytes;
  cache.put(makeEntry(1, 200));  // same key, bigger body
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, before + 100);
  EXPECT_EQ(cache.get(1)->csv.size(), 200u);
}

TEST(ResultCache, GetOrComputeCachesExactResultsByteIdentically) {
  const auto p = dr::kernels::conv2d({});
  dr::explorer::ExploreOptions opts;
  const std::uint64_t hash = dr::explorer::exploreConfigHash(p, 0, opts);
  ResultCache cache(ResultCache::Options{});

  i64 simulated = -1;
  auto first = cache.getOrCompute(hash, p, 0, opts, &simulated);
  ASSERT_TRUE(first.hasValue());
  EXPECT_GT(simulated, 0);  // cold: had to simulate
  auto second = cache.getOrCompute(hash, p, 0, opts, &simulated);
  ASSERT_TRUE(second.hasValue());
  EXPECT_EQ(simulated, 0);  // memory hit
  EXPECT_EQ(first->csv, second->csv);

  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.entries, 1);

  // Byte-identity with the direct explorer rendering — the same promise
  // explore_kernel --curve-out makes.
  auto direct = dr::explorer::exploreSignalChecked(p, 0, opts);
  ASSERT_TRUE(direct.hasValue());
  EXPECT_EQ(first->csv,
            dr::report::curveCsv(direct->signalName, direct->simulatedCurve));
  EXPECT_EQ(first->Ctot, direct->Ctot);
  EXPECT_EQ(first->distinctElements, direct->distinctElements);
}

TEST(ResultCache, WarmLayerRehydratesFromJournalWithZeroSimulation) {
  const std::string dir = tempDir("warm");
  const auto p = dr::kernels::conv2d({});
  dr::explorer::ExploreOptions opts;
  const std::uint64_t hash = dr::explorer::exploreConfigHash(p, 0, opts);

  ResultCache::Options copts;
  copts.warmDir = dir;
  std::string csvCold;
  {
    ResultCache cold(copts);
    i64 simulated = -1;
    auto r = cold.getOrCompute(hash, p, 0, opts, &simulated);
    ASSERT_TRUE(r.hasValue());
    EXPECT_GT(simulated, 0);
    csvCold = r->csv;
    // The computation left a journal behind at the content address.
    std::ifstream journal(cold.warmPath(hash), std::ios::binary);
    EXPECT_TRUE(journal.good());
  }
  // A fresh process (new cache instance): the journal answers without a
  // single simulated point, byte-identically.
  ResultCache warm(copts);
  i64 simulated = -1;
  auto r = warm.getOrCompute(hash, p, 0, opts, &simulated);
  ASSERT_TRUE(r.hasValue());
  EXPECT_EQ(simulated, 0);
  EXPECT_EQ(r->csv, csvCold);
  auto s = warm.stats();
  EXPECT_EQ(s.warmHits, 1);
  EXPECT_EQ(s.misses, 0);
}

TEST(ResultCache, DegradedResultsAreServedButNeverCached) {
  const auto p = dr::kernels::conv2d({});
  dr::explorer::ExploreOptions opts;
  dr::support::RunBudget budget;
  budget.setMaxEvents(1);  // trips immediately: analytic-only ladder rung
  opts.budget = &budget;
  const std::uint64_t hash = dr::explorer::exploreConfigHash(p, 0, opts);
  ResultCache cache(ResultCache::Options{});
  auto r = cache.getOrCompute(hash, p, 0, opts);
  ASSERT_TRUE(r.hasValue());
  EXPECT_NE(r->fidelity,
            static_cast<std::uint8_t>(dr::simcore::Fidelity::ExactStream));
  EXPECT_EQ(cache.stats().entries, 0);  // degraded: not cached
  // The next identical query recomputes (and could succeed at full
  // fidelity under a healthier budget).
  cache.getOrCompute(hash, p, 0, opts);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(ResultCache, WarmLookupAtLeast100xFasterThanColdCompute) {
  // The in-process acceptance benchmark: memory-layer latency vs the full
  // simulation, on a kernel big enough that the cold side is honest work.
  const auto p = dr::kernels::motionEstimation({32, 32, 4, 4});
  dr::explorer::ExploreOptions opts;
  const std::uint64_t hash = dr::explorer::exploreConfigHash(p, 0, opts);
  ResultCache cache(ResultCache::Options{});

  const auto t0 = std::chrono::steady_clock::now();
  auto cold = cache.getOrCompute(hash, p, 0, opts);
  const auto coldNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  ASSERT_TRUE(cold.hasValue());

  i64 warmNs = -1;
  for (int i = 0; i < 3; ++i) {  // best of three: immune to scheduler noise
    const auto w0 = std::chrono::steady_clock::now();
    auto warm = cache.getOrCompute(hash, p, 0, opts);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - w0)
                        .count();
    ASSERT_TRUE(warm.hasValue());
    EXPECT_EQ(warm->csv, cold->csv);
    if (warmNs < 0 || ns < warmNs) warmNs = ns;
  }
  EXPECT_GE(coldNs, 100 * warmNs)
      << "cold " << coldNs << "ns vs warm " << warmNs << "ns";
}

// ---- single-flight ------------------------------------------------------

TEST(SingleFlight, BurstOfIdenticalCallsRunsOneComputation) {
  SingleFlight flight;
  std::atomic<int> computations{0};
  std::atomic<int> leaders{0};
  constexpr int kThreads = 32;
  std::vector<std::thread> threads;
  std::vector<std::string> results(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      bool leader = false;
      auto r = flight.run(
          42,
          [&]() -> SingleFlight::Result {
            computations.fetch_add(1);
            // Hold the computation open until every other thread has
            // joined, so the burst is genuinely concurrent.
            while (flight.joins() < kThreads - 1)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            CachedCurve c;
            c.configHash = 42;
            c.csv = "the one result";
            return c;
          },
          &leader);
      if (leader) leaders.fetch_add(1);
      ASSERT_TRUE(r.hasValue());
      results[static_cast<std::size_t>(t)] = r->csv;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(computations.load(), 1);
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(flight.joins(), kThreads - 1);
  for (const auto& r : results) EXPECT_EQ(r, "the one result");
}

TEST(SingleFlight, SequentialCallsEachLead) {
  SingleFlight flight;
  int computations = 0;
  for (int i = 0; i < 3; ++i) {
    bool leader = false;
    auto r = flight.run(
        7,
        [&]() -> SingleFlight::Result {
          ++computations;
          return makeEntry(7, 8);
        },
        &leader);
    ASSERT_TRUE(r.hasValue());
    EXPECT_TRUE(leader);  // the key is erased after each completion
  }
  EXPECT_EQ(computations, 3);
  EXPECT_EQ(flight.joins(), 0);
}

TEST(SingleFlight, LeaderExceptionPropagatesAndUnblocksTheKey) {
  SingleFlight flight;
  EXPECT_THROW(
      flight.run(9,
                 []() -> SingleFlight::Result {
                   throw std::runtime_error("boom");
                 }),
      std::runtime_error);
  // The key is free again: the next call leads and succeeds.
  bool leader = false;
  auto r = flight.run(
      9, [&]() -> SingleFlight::Result { return makeEntry(9, 8); }, &leader);
  EXPECT_TRUE(leader);
  ASSERT_TRUE(r.hasValue());
}

TEST(SingleFlight, ErrorStatusReachesEveryJoiner) {
  SingleFlight flight;
  auto r = flight.run(11, []() -> SingleFlight::Result {
    return Status::error(StatusCode::InvalidInput, "bad kernel");
  });
  ASSERT_FALSE(r.hasValue());
  EXPECT_EQ(r.status().code(), StatusCode::InvalidInput);
}

// ---- metrics ------------------------------------------------------------

TEST(Metrics, LatencyPercentilesUseBucketUpperBounds) {
  dr::service::Metrics m;
  for (int i = 0; i < 100; ++i) m.recordExploreLatencyUs(10);
  m.recordExploreLatencyUs(1000000);
  auto s = m.snapshot();
  EXPECT_EQ(s.exploreLatency.count, 101);
  EXPECT_EQ(s.exploreLatency.maxUs, 1000000);
  EXPECT_EQ(s.exploreLatency.p50Us, 15);  // 10us lands in [8, 16)
  EXPECT_EQ(s.exploreLatency.p95Us, 15);
  EXPECT_EQ(s.exploreLatency.totalUs, 100 * 10 + 1000000);
}

TEST(Metrics, RenderEmitsOneLinePerCounter) {
  dr::service::Metrics m;
  m.countRequest();
  m.countExplore();
  m.countSimulation();
  auto text = dr::service::Metrics::render(m.snapshot());
  EXPECT_NE(text.find("requests 1\n"), std::string::npos);
  EXPECT_NE(text.find("explore_requests 1\n"), std::string::npos);
  EXPECT_NE(text.find("simulations 1\n"), std::string::npos);
  EXPECT_NE(text.find("cache_hits 0\n"), std::string::npos);
}

// ---- server end to end --------------------------------------------------

TEST(Server, ServesCurveByteIdenticalToDirectExploration) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  const std::string kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});
  auto result = queryExplore(sock, kernel, "Old");
  ASSERT_TRUE(result.hasValue()) << result.status().str();
  EXPECT_FALSE(result->cached);  // first query computes

  // The same request served again is a cache hit...
  auto again = queryExplore(sock, kernel, "Old");
  ASSERT_TRUE(again.hasValue());
  EXPECT_TRUE(again->cached);
  EXPECT_EQ(again->csv, result->csv);

  // ...and both match the direct in-process exploration byte for byte.
  auto compiled = dr::frontend::compileKernelChecked(kernel);
  ASSERT_TRUE(compiled.hasValue());
  const int signal = compiled->findSignal("Old");
  ASSERT_GE(signal, 0);
  auto direct = dr::explorer::exploreSignalChecked(*compiled, signal);
  ASSERT_TRUE(direct.hasValue());
  EXPECT_EQ(result->csv,
            dr::report::curveCsv(direct->signalName, direct->simulatedCurve));
  EXPECT_EQ(result->Ctot, direct->Ctot);

  server.requestShutdown();
  server.wait();
}

TEST(Server, ConcurrentIdenticalBurstSimulatesExactlyOnce) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 4;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  const std::string kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});
  constexpr int kClients = 32;
  std::vector<std::thread> clients;
  std::vector<std::string> csvs(kClients);
  std::atomic<int> failures{0};
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      auto r = queryExplore(sock, kernel, "Old");
      if (r.hasValue())
        csvs[static_cast<std::size_t>(c)] = r->csv;
      else
        failures.fetch_add(1);
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(csvs[0], csvs[static_cast<std::size_t>(c)]);

  auto s = server.metricsSnapshot();
  EXPECT_EQ(s.exploreRequests, kClients);
  EXPECT_EQ(s.simulations, 1);  // the acceptance gate
  // Every non-leader was served by the cache or joined the in-flight
  // computation; nothing fell through to a second simulation.
  EXPECT_EQ(s.cacheHits + s.inflightJoins, kClients - 1);
  EXPECT_EQ(s.cacheMisses, 1);

  server.requestShutdown();
  server.wait();
}

TEST(Server, SurvivesMalformedFrameAndKeepsServing) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  {
    int fd = connectTo(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, "this is not a frame at all"));
    auto reply = readReply(fd);  // best-effort error reply before the drop
    if (reply.hasValue()) EXPECT_NE(reply->code, StatusCode::Ok);
    ::close(fd);
  }
  {
    // A frame with a corrupted checksum.
    std::string frame = proto::encodeFrame(proto::Verb::Stats, "");
    frame[frame.size() - 1] ^= 0xFF;
    int fd = connectTo(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, frame));
    auto reply = readReply(fd);
    if (reply.hasValue()) EXPECT_NE(reply->code, StatusCode::Ok);
    ::close(fd);
  }

  // The daemon is alive and serves a clean query.
  auto result =
      queryExplore(sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}),
                   "Old");
  EXPECT_TRUE(result.hasValue()) << result.status().str();
  EXPECT_GE(server.metricsSnapshot().protocolErrors, 2);

  server.requestShutdown();
  server.wait();
}

TEST(Server, SurvivesMidQueryDisconnect) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  {
    // Send only half a valid frame, then vanish.
    const std::string frame = proto::encodeFrame(
        proto::Verb::Explore,
        proto::encodeExploreRequest({std::string(1000, 'k'), "", 0, 0}));
    int fd = connectTo(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, frame.substr(0, frame.size() / 2)));
    ::close(fd);
  }
  // Wait until the server has registered the drop, then query cleanly.
  for (int i = 0; i < 100; ++i) {
    if (server.metricsSnapshot().connectionsDropped > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.metricsSnapshot().connectionsDropped, 1);
  auto result =
      queryExplore(sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}),
                   "Old");
  EXPECT_TRUE(result.hasValue()) << result.status().str();

  server.requestShutdown();
  server.wait();
}

TEST(Server, StatsVerbReportsCountersAndCacheLedger) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  ASSERT_TRUE(
      queryExplore(sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}),
                   "Old")
          .hasValue());
  auto reply = roundTrip(sock, proto::Verb::Stats, "");
  ASSERT_TRUE(reply.hasValue());
  EXPECT_EQ(reply->code, StatusCode::Ok);
  EXPECT_NE(reply->body.find("explore_requests 1\n"), std::string::npos);
  EXPECT_NE(reply->body.find("simulations 1\n"), std::string::npos);
  EXPECT_NE(reply->body.find("cache_entries 1\n"), std::string::npos);

  // report::metricsReport renders the same snapshot as markdown.
  auto md = dr::report::metricsReport(server.metricsSnapshot());
  EXPECT_NE(md.find("| explore requests | 1 |"), std::string::npos);
  EXPECT_NE(md.find("## Result cache"), std::string::npos);

  server.requestShutdown();
  server.wait();
}

TEST(Server, ErrorRepliesForBadKernelAndUnknownSignal) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  auto bad = queryExplore(sock, "this is not a kernel", "");
  ASSERT_FALSE(bad.hasValue());
  EXPECT_EQ(bad.status().code(), StatusCode::InvalidInput);
  auto noSignal = queryExplore(
      sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}), "Nope");
  ASSERT_FALSE(noSignal.hasValue());
  EXPECT_EQ(noSignal.status().code(), StatusCode::InvalidInput);
  EXPECT_EQ(server.metricsSnapshot().exploreErrors, 2);
  // Errors never kill the daemon.
  EXPECT_TRUE(
      queryExplore(sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}),
                   "Old")
          .hasValue());

  server.requestShutdown();
  server.wait();
}

TEST(Server, NoCacheFlagBypassesTheCache) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  const std::string kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});
  auto first = queryExplore(sock, kernel, "Old", proto::kFlagNoCache);
  ASSERT_TRUE(first.hasValue());
  EXPECT_FALSE(first->cached);
  auto second = queryExplore(sock, kernel, "Old", proto::kFlagNoCache);
  ASSERT_TRUE(second.hasValue());
  EXPECT_FALSE(second->cached);  // recomputed, byte-identical anyway
  EXPECT_EQ(first->csv, second->csv);
  auto s = server.metricsSnapshot();
  EXPECT_EQ(s.simulations, 2);
  EXPECT_EQ(s.cacheEntries, 0);

  server.requestShutdown();
  server.wait();
}

TEST(Server, ShutdownVerbDrainsAndReleasesTheSocket) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  auto reply = roundTrip(sock, proto::Verb::Shutdown, "");
  ASSERT_TRUE(reply.hasValue());
  EXPECT_EQ(reply->code, StatusCode::Ok);
  server.wait();  // returns once drained
  EXPECT_TRUE(server.draining());
  EXPECT_LT(connectTo(sock), 0);  // socket file is gone
  EXPECT_EQ(server.metricsSnapshot().shutdownRequests, 1);
}

TEST(Server, WarmDirectorySharedWithCliJournals) {
  const std::string dir = tempDir("served_warm");
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 2;
  opts.cache.warmDir = dir;
  const std::string kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});

  std::string csv;
  {
    Server server(opts);
    ASSERT_TRUE(server.start().isOk());
    auto r = queryExplore(sock, kernel, "Old");
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    csv = r->csv;
    EXPECT_EQ(server.metricsSnapshot().simulations, 1);
    server.requestShutdown();
    server.wait();
  }
  {
    // A restarted daemon rehydrates the same query from the journal the
    // first one left behind: zero simulations, identical bytes.
    Server server(opts);
    ASSERT_TRUE(server.start().isOk());
    auto r = queryExplore(sock, kernel, "Old");
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    EXPECT_TRUE(r->cached);
    EXPECT_EQ(r->csv, csv);
    auto s = server.metricsSnapshot();
    EXPECT_EQ(s.simulations, 0);
    EXPECT_EQ(s.warmHits, 1);
    server.requestShutdown();
    server.wait();
  }
}

// ---- admission control and overload -------------------------------------

TEST(Admission, ValidateOptionsRejectsAbsurdLimits) {
  AdmissionOptions ok;
  EXPECT_TRUE(dr::service::validateAdmissionOptions(ok).isOk());

  AdmissionOptions bad = ok;
  bad.maxQueueDepth = 0;
  EXPECT_EQ(dr::service::validateAdmissionOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = ok;
  bad.maxQueueDepth = 1 << 20;  // a million parked connections is a typo
  EXPECT_EQ(dr::service::validateAdmissionOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = ok;
  bad.tightenStart = 1.5;
  EXPECT_EQ(dr::service::validateAdmissionOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = ok;
  bad.minDeadlineMs = 0;
  EXPECT_EQ(dr::service::validateAdmissionOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = ok;
  bad.pressureDeadlineMs = bad.minDeadlineMs - 1;
  EXPECT_EQ(dr::service::validateAdmissionOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = ok;
  bad.retryAfterCapMs = bad.retryAfterFloorMs - 1;
  EXPECT_EQ(dr::service::validateAdmissionOptions(bad).code(),
            StatusCode::InvalidInput);
}

TEST(Admission, TighteningRampIsMonotoneAndBounded) {
  AdmissionOptions opts;
  opts.tightenStart = 0.5;
  opts.pressureDeadlineMs = 200;
  opts.minDeadlineMs = 10;

  // Below the start: the base budget passes through untouched (including
  // "unlimited", which must stay unlimited while the queue is calm).
  EXPECT_EQ(dr::service::tightenedDeadlineMs(5000, 0.0, opts), 5000);
  EXPECT_EQ(dr::service::tightenedDeadlineMs(0, 0.49, opts), 0);

  // At the start: capped at pressureDeadlineMs; a tighter client
  // deadline is never grown.
  EXPECT_EQ(dr::service::tightenedDeadlineMs(5000, 0.5, opts), 200);
  EXPECT_EQ(dr::service::tightenedDeadlineMs(50, 0.5, opts), 50);

  // Monotone down to the floor at a full queue, never below it.
  i64 prev = dr::service::tightenedDeadlineMs(5000, 0.5, opts);
  for (double p = 0.55; p <= 1.0; p += 0.05) {
    const i64 cur = dr::service::tightenedDeadlineMs(5000, p, opts);
    EXPECT_LE(cur, prev) << "pressure " << p;
    EXPECT_GE(cur, opts.minDeadlineMs);
    prev = cur;
  }
  EXPECT_EQ(dr::service::tightenedDeadlineMs(5000, 1.0, opts),
            opts.minDeadlineMs);
  // An unlimited request under pressure gets the cap, not infinity.
  EXPECT_EQ(dr::service::tightenedDeadlineMs(0, 1.0, opts),
            opts.minDeadlineMs);
}

TEST(Admission, RetryAfterHintStaysInsideTheBand) {
  AdmissionOptions opts;
  opts.retryAfterFloorMs = 25;
  opts.retryAfterCapMs = 2000;
  // No latency observed yet: the floor.
  EXPECT_EQ(dr::service::retryAfterHintMs(opts, 10, 4, 0), 25);
  // Deep queue, slow service: clamped to the cap.
  EXPECT_EQ(dr::service::retryAfterHintMs(opts, 1000, 1, 1'000'000), 2000);
  // In between: scales with the drain estimate and respects the floor.
  const i64 hint = dr::service::retryAfterHintMs(opts, 100, 4, 20'000);
  EXPECT_GE(hint, 25);
  EXPECT_LE(hint, 2000);
}

TEST(Server, StartRejectsInvalidOptionsInsteadOfSpawning) {
  {
    ServerOptions opts;
    opts.endpoint = socketPath();
    opts.workers = 0;  // a broken pool, caught before any thread spawns
    Server server(opts);
    Status st = server.start();
    EXPECT_EQ(st.code(), StatusCode::InvalidInput);
    EXPECT_NE(st.message().find("workers"), std::string::npos);
  }
  {
    ServerOptions opts;
    opts.endpoint = socketPath();
    opts.admission.maxQueueDepth = -4;
    Server server(opts);
    EXPECT_EQ(server.start().code(), StatusCode::InvalidInput);
  }
  {
    ServerOptions opts;  // empty socket path
    Server server(opts);
    EXPECT_EQ(server.start().code(), StatusCode::InvalidInput);
  }
  {
    ServerOptions opts;
    opts.endpoint = socketPath();
    opts.cache.maxBytes = 0;
    Server server(opts);
    EXPECT_EQ(server.start().code(), StatusCode::InvalidInput);
  }
}

TEST(Protocol, V2CarriesRemainingBudgetAndRetryAfter) {
  proto::ExploreRequest req;
  req.kernel = "k";
  req.signal = "s";
  req.deadlineMs = 400;
  req.remainingBudgetMs = 123;
  auto back = proto::decodeExploreRequest(proto::encodeExploreRequest(req));
  ASSERT_TRUE(back.hasValue()) << back.status().str();
  EXPECT_EQ(back->deadlineMs, 400);
  EXPECT_EQ(back->remainingBudgetMs, 123);

  proto::Reply reply;
  reply.code = StatusCode::Unavailable;
  reply.message = "overloaded";
  reply.retryAfterMs = 250;
  auto replyBack = proto::decodeReply(proto::encodeReply(reply));
  ASSERT_TRUE(replyBack.hasValue()) << replyBack.status().str();
  EXPECT_EQ(replyBack->code, StatusCode::Unavailable);
  EXPECT_EQ(replyBack->retryAfterMs, 250);
}

namespace overload {

/// Park the daemon's worker pool: a connection holding half a frame open
/// pins one worker in its recv loop until the fd closes. With workers=1
/// this makes queue occupancy fully deterministic.
int parkWorker(const std::string& sock, Server& server) {
  const std::string frame = proto::encodeFrame(
      proto::Verb::Explore, proto::encodeExploreRequest({"k", "", 0, 0}));
  int fd = connectTo(sock);
  if (fd < 0) return -1;
  if (!sendAll(fd, frame.substr(0, frame.size() / 2))) {
    ::close(fd);
    return -1;
  }
  // The worker has picked the connection up once it counts as accepted.
  for (int i = 0; i < 500; ++i) {
    if (server.metricsSnapshot().connectionsAccepted >= 1) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  return -1;
}

}  // namespace overload

TEST(Server, FullQueueShedsWithStructuredRetryAfterReply) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 1;
  opts.admission.maxQueueDepth = 1;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  int parked = overload::parkWorker(sock, server);
  ASSERT_GE(parked, 0);
  int queued = connectTo(sock);  // fills the depth-1 queue
  ASSERT_GE(queued, 0);
  // Give the accept loop time to enqueue it before flooding.
  for (int i = 0; i < 500 && server.metricsSnapshot().queueDepthHighWater < 1;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Everything past the bound is shed: a structured Unavailable reply
  // with a retry-after hint, never a silent disconnect.
  int sheds = 0;
  for (int i = 0; i < 3; ++i) {
    int fd = connectTo(sock);
    ASSERT_GE(fd, 0);
    auto reply = readReply(fd);
    ::close(fd);
    ASSERT_TRUE(reply.hasValue()) << reply.status().str();
    EXPECT_EQ(reply->code, StatusCode::Unavailable);
    EXPECT_GE(reply->retryAfterMs, opts.admission.retryAfterFloorMs);
    EXPECT_NE(reply->message.find("queue full"), std::string::npos);
    ++sheds;
  }
  auto s = server.metricsSnapshot();
  EXPECT_GE(s.shedQueueFull, sheds);
  EXPECT_GE(s.overloadReplies, sheds);
  EXPECT_GE(s.queueDepthHighWater, 1);

  ::close(parked);
  ::close(queued);
  server.requestShutdown();
  server.wait();
}

TEST(Server, QueueWaitChargesTheRequestBudget) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 1;
  opts.admission.acceptDeadlineMs = 0;  // isolate budget expiry from sheds
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  int parked = overload::parkWorker(sock, server);
  ASSERT_GE(parked, 0);

  // Queue a request whose own deadline is shorter than the wait it is
  // about to endure: its budget dies in the queue.
  proto::ExploreRequest req;
  req.kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});
  req.signal = "Old";
  req.deadlineMs = 50;
  int fd = connectTo(sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, proto::encodeFrame(
                              proto::Verb::Explore,
                              proto::encodeExploreRequest(req))));
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ::close(parked);  // release the worker; it now picks up the stale request

  auto reply = readReply(fd);
  ::close(fd);
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  // Rejected outright: BudgetExceeded, not Unavailable — the client's
  // own deadline is gone, so a retry without a new budget is pointless.
  EXPECT_EQ(reply->code, StatusCode::BudgetExceeded);
  EXPECT_NE(reply->message.find("expired"), std::string::npos);
  EXPECT_EQ(server.metricsSnapshot().expiredRequests, 1);

  server.requestShutdown();
  server.wait();
}

TEST(Server, AcceptDeadlineShedsStaleQueuedConnections) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 1;
  opts.admission.acceptDeadlineMs = 100;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  int parked = overload::parkWorker(sock, server);
  ASSERT_GE(parked, 0);
  int stale = connectTo(sock);
  ASSERT_GE(stale, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::close(parked);  // the queued connection is now past its deadline

  auto reply = readReply(stale);
  ::close(stale);
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  EXPECT_EQ(reply->code, StatusCode::Unavailable);
  EXPECT_NE(reply->message.find("accept deadline"), std::string::npos);
  EXPECT_GE(reply->retryAfterMs, opts.admission.retryAfterFloorMs);
  EXPECT_EQ(server.metricsSnapshot().shedQueueWait, 1);

  server.requestShutdown();
  server.wait();
}

// ---- resilient client ----------------------------------------------------

TEST(Client, RetryDelayIsDeterministicAndHonorsHints) {
  ClientOptions opts;
  opts.backoffBaseMs = 20;
  opts.backoffCapMs = 2000;
  opts.seed = 7;

  // Same (call, attempt) -> same delay; different attempts differ in
  // their jitter stream.
  EXPECT_EQ(Client::retryDelayMs(opts, 3, 1, 0),
            Client::retryDelayMs(opts, 3, 1, 0));

  for (int attempt = 0; attempt < 8; ++attempt) {
    const i64 backoff =
        std::min<i64>(opts.backoffCapMs, opts.backoffBaseMs << attempt);
    const i64 d = Client::retryDelayMs(opts, 0, attempt, 0);
    EXPECT_GE(d, backoff) << "attempt " << attempt;
    EXPECT_LE(d, backoff + backoff / 2) << "attempt " << attempt;
  }
  // The server's retry-after hint is a floor on the delay.
  EXPECT_GE(Client::retryDelayMs(opts, 0, 0, 500), 500);
}

TEST(Client, ValidateOptionsRejectsBrokenConfigs) {
  ClientOptions opts;
  opts.endpoint = "/tmp/x.sock";
  EXPECT_TRUE(dr::service::validateClientOptions(opts).isOk());
  ClientOptions bad = opts;
  bad.endpoint = "";
  EXPECT_EQ(dr::service::validateClientOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = opts;
  bad.maxAttempts = 0;
  EXPECT_EQ(dr::service::validateClientOptions(bad).code(),
            StatusCode::InvalidInput);
  bad = opts;
  bad.backoffCapMs = bad.backoffBaseMs - 1;
  EXPECT_EQ(dr::service::validateClientOptions(bad).code(),
            StatusCode::InvalidInput);
}

TEST(Client, BreakerTripsAfterConsecutiveTransportFailures) {
  ClientOptions opts;
  opts.endpoint = "/tmp/" + uniqueName("drsvc_nowhere") + ".sock";
  opts.maxAttempts = 1;
  opts.breakerThreshold = 2;
  opts.breakerCooldownMs = 60'000;  // stays open for the whole test
  Client client(opts);

  proto::ExploreRequest req;
  req.kernel = "k";
  EXPECT_FALSE(client.explore(req).hasValue());
  EXPECT_EQ(client.breakerState(), Client::BreakerState::Closed);
  EXPECT_FALSE(client.explore(req).hasValue());
  EXPECT_EQ(client.breakerState(), Client::BreakerState::Open);
  EXPECT_EQ(client.stats().breakerTrips, 1);

  // While open, a deadline-bearing call fast-fails without touching the
  // socket: the budget can't cover the cooldown.
  req.deadlineMs = 50;
  const i64 failuresBefore = client.stats().transportFailures;
  auto fast = client.explore(req);
  ASSERT_FALSE(fast.hasValue());
  EXPECT_EQ(fast.status().code(), StatusCode::BudgetExceeded);
  EXPECT_GE(client.stats().breakerFastFails, 1);
  EXPECT_EQ(client.stats().transportFailures, failuresBefore);
}

TEST(Client, BreakerHalfOpenProbeRecoversAgainstALiveServer) {
  const std::string sock = socketPath();
  ClientOptions opts;
  opts.endpoint = sock;
  opts.maxAttempts = 1;
  opts.breakerThreshold = 2;
  opts.breakerCooldownMs = 100;
  Client client(opts);

  proto::ExploreRequest req;
  req.kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});
  req.signal = "Old";
  EXPECT_FALSE(client.explore(req).hasValue());  // nothing listening yet
  EXPECT_FALSE(client.explore(req).hasValue());
  ASSERT_EQ(client.breakerState(), Client::BreakerState::Open);

  ServerOptions sopts;
  sopts.endpoint = sock;
  sopts.workers = 2;
  Server server(sopts);
  ASSERT_TRUE(server.start().isOk());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The cooldown has elapsed: the next call is the half-open probe, it
  // succeeds, and the breaker closes.
  auto reply = client.explore(req);
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  EXPECT_EQ(reply->code, StatusCode::Ok);
  EXPECT_EQ(client.breakerState(), Client::BreakerState::Closed);
  EXPECT_EQ(client.stats().breakerResets, 1);

  server.requestShutdown();
  server.wait();
}

TEST(Client, RetriesThroughShedsUntilAdmitted) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 1;
  opts.admission.maxQueueDepth = 1;
  opts.admission.retryAfterFloorMs = 10;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  int parked = overload::parkWorker(sock, server);
  ASSERT_GE(parked, 0);
  int queued = connectTo(sock);
  ASSERT_GE(queued, 0);
  for (int i = 0; i < 500 && server.metricsSnapshot().queueDepthHighWater < 1;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // The client keeps getting shed while the queue is full; once the
  // parked connection releases, a retry is admitted and served.
  ClientOptions copts;
  copts.endpoint = sock;
  copts.maxAttempts = 50;
  copts.backoffBaseMs = 5;
  copts.backoffCapMs = 50;
  Client client(copts);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ::close(parked);
    ::close(queued);
  });
  proto::ExploreRequest req;
  req.kernel = dr::kernels::motionEstimationSource({32, 32, 4, 4});
  req.signal = "Old";
  auto reply = client.explore(req);
  releaser.join();
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  EXPECT_EQ(reply->code, StatusCode::Ok);
  const auto cs = client.stats();
  EXPECT_GE(cs.retries, 1);
  EXPECT_GE(cs.retryAfterHonored, 1);
  EXPECT_GE(cs.retryAfterSuccesses, 1);
  EXPECT_GE(server.metricsSnapshot().shedQueueFull, 1);

  server.requestShutdown();
  server.wait();
}

TEST(Client, BurstSurvivesServerRestartOnTheSameCacheDir) {
  const std::string dir = tempDir("restart_burst");
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 4;
  opts.cache.warmDir = dir;
  auto server = std::make_unique<Server>(opts);
  ASSERT_TRUE(server->start().isOk());

  const std::string kernel =
      dr::kernels::motionEstimationSource({32, 32, 4, 4});
  // The cold CLI reference every served curve must match byte for byte.
  auto compiled = dr::frontend::compileKernelChecked(kernel);
  ASSERT_TRUE(compiled.hasValue());
  auto direct = dr::explorer::exploreSignalChecked(
      *compiled, compiled->findSignal("Old"));
  ASSERT_TRUE(direct.hasValue());
  const std::string reference =
      dr::report::curveCsv(direct->signalName, direct->simulatedCurve);

  ClientOptions copts;
  copts.endpoint = sock;
  copts.maxAttempts = 20;
  copts.backoffBaseMs = 10;
  copts.backoffCapMs = 100;
  copts.breakerThreshold = 0;  // retries alone must ride out the restart
  Client client(copts);

  constexpr int kClients = 32;
  std::vector<std::string> csvs(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      // Stagger the burst so some queries land before, some during, and
      // some after the restart window.
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * c));
      proto::ExploreRequest req;
      req.kernel = kernel;
      req.signal = "Old";
      auto reply = client.explore(req);
      auto& err = errors[static_cast<std::size_t>(c)];
      if (!reply.hasValue()) {
        err = reply.status().str();
        return;
      }
      if (reply->code != StatusCode::Ok) {
        err = reply->message;
        return;
      }
      auto result = proto::decodeExploreResult(reply->body);
      if (!result.hasValue()) {
        err = result.status().str();
        return;
      }
      csvs[static_cast<std::size_t>(c)] = result->csv;
    });

  // Kill the daemon mid-burst and restart it on the same cache dir. The
  // held-open window guarantees part of the burst lands while nothing is
  // listening — those clients must reconnect-and-retry, not fail.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server->requestShutdown();
  server->wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server = std::make_unique<Server>(opts);
  ASSERT_TRUE(server->start().isOk());

  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[static_cast<std::size_t>(c)], "") << "client " << c;
    EXPECT_EQ(csvs[static_cast<std::size_t>(c)], reference)
        << "client " << c << " served a corrupt curve";
  }
  EXPECT_GE(client.stats().retries, 1);  // somebody hit the restart window

  server->requestShutdown();
  server->wait();
}

// ---- transport ----------------------------------------------------------

namespace transport = dr::service::transport;

TEST(Transport, ParseEndpointAcceptsEveryDocumentedForm) {
  auto plainUnix = transport::parseEndpoint("/tmp/x.sock");
  ASSERT_TRUE(plainUnix.hasValue());
  EXPECT_EQ(plainUnix->kind, transport::Endpoint::Kind::Unix);
  EXPECT_EQ(plainUnix->path, "/tmp/x.sock");
  EXPECT_EQ(transport::toString(*plainUnix), "/tmp/x.sock");

  auto forcedUnix = transport::parseEndpoint("unix:/tmp/y.sock");
  ASSERT_TRUE(forcedUnix.hasValue());
  EXPECT_EQ(forcedUnix->kind, transport::Endpoint::Kind::Unix);
  EXPECT_EQ(forcedUnix->path, "/tmp/y.sock");

  auto dotted = transport::parseEndpoint("127.0.0.1:7070");
  ASSERT_TRUE(dotted.hasValue());
  EXPECT_EQ(dotted->kind, transport::Endpoint::Kind::Tcp);
  EXPECT_EQ(dotted->host, "127.0.0.1");
  EXPECT_EQ(dotted->port, 7070);
  EXPECT_EQ(transport::toString(*dotted), "127.0.0.1:7070");

  auto named = transport::parseEndpoint("localhost:8080");
  ASSERT_TRUE(named.hasValue());
  EXPECT_EQ(named->kind, transport::Endpoint::Kind::Tcp);
  EXPECT_EQ(named->host, "localhost");
  EXPECT_EQ(named->port, 8080);

  auto forcedTcp = transport::parseEndpoint("tcp:127.0.0.1:9090");
  ASSERT_TRUE(forcedTcp.hasValue());
  EXPECT_EQ(forcedTcp->kind, transport::Endpoint::Kind::Tcp);
  EXPECT_EQ(forcedTcp->port, 9090);
}

TEST(Transport, ParseEndpointRejectsBrokenSpecs) {
  const auto rejects = [](const std::string& spec) {
    auto ep = transport::parseEndpoint(spec);
    EXPECT_FALSE(ep.hasValue()) << spec;
    if (!ep.hasValue())
      EXPECT_EQ(ep.status().code(), StatusCode::InvalidInput) << spec;
  };
  rejects("");
  rejects("unix:");
  rejects("tcp:127.0.0.1");      // forced TCP without a port
  rejects("127.0.0.1:");         // empty port token
  rejects("127.0.0.1:abc");      // non-numeric port
  rejects("127.0.0.1:70000");    // out of range
  rejects(":7070");              // no host
  rejects("/" + std::string(200, 'a'));  // over-long unix path

  // Port 0 is listen-only: rejected for clients, accepted for listeners.
  EXPECT_FALSE(transport::parseEndpoint("127.0.0.1:0").hasValue());
  auto ephemeral =
      transport::parseEndpoint("127.0.0.1:0", /*allowEphemeralPort=*/true);
  ASSERT_TRUE(ephemeral.hasValue());
  EXPECT_EQ(ephemeral->port, 0);
}

TEST(Transport, EphemeralTcpListenerReportsItsBoundPort) {
  auto ep = transport::parseEndpoint("127.0.0.1:0",
                                     /*allowEphemeralPort=*/true);
  ASSERT_TRUE(ep.hasValue());
  auto listener = transport::listenOn(*ep);
  ASSERT_TRUE(listener.hasValue()) << listener.status().str();
  EXPECT_GT(listener->bound.port, 0);
  EXPECT_EQ(listener->bound.host, "127.0.0.1");
  ::close(listener->fd);
}

// ---- TCP server / health verb -------------------------------------------

/// A live daemon on an ephemeral TCP port, endpoint resolved.
struct TcpShard {
  std::unique_ptr<Server> server;
  std::string endpoint;
};

TcpShard startTcpShard(int workers = 2) {
  ServerOptions opts;
  opts.endpoint = "127.0.0.1:0";
  opts.workers = workers;
  TcpShard shard;
  shard.server = std::make_unique<Server>(opts);
  auto st = shard.server->start();
  EXPECT_TRUE(st.isOk()) << st.str();
  shard.endpoint = transport::toString(shard.server->boundEndpoint());
  return shard;
}

TEST(Server, TcpEndpointServesByteIdenticalCurve) {
  const std::string kernel =
      dr::kernels::motionEstimationSource({32, 32, 4, 4});
  auto compiled = dr::frontend::compileKernelChecked(kernel);
  ASSERT_TRUE(compiled.hasValue());
  const int sig = compiled->findSignal("Old");
  auto direct = dr::explorer::exploreSignalChecked(*compiled, sig, {});
  ASSERT_TRUE(direct.hasValue());
  const std::string expected =
      dr::report::curveCsv(direct->signalName, direct->simulatedCurve);

  TcpShard shard = startTcpShard();
  ClientOptions copts;
  copts.endpoint = shard.endpoint;
  Client client(copts);
  proto::ExploreRequest req;
  req.kernel = kernel;
  req.signal = "Old";
  auto reply = client.explore(req);
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  ASSERT_EQ(reply->code, StatusCode::Ok) << reply->message;
  auto result = proto::decodeExploreResult(reply->body);
  ASSERT_TRUE(result.hasValue());
  // Same byte-identity gate the Unix-socket path honors.
  EXPECT_EQ(result->csv, expected);

  shard.server->requestShutdown();
  shard.server->wait();
}

TEST(Server, HealthVerbAnswersWithoutTouchingTheCache) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  opts.workers = 3;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  auto reply = roundTrip(sock, proto::Verb::Health, "");
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  ASSERT_EQ(reply->code, StatusCode::Ok) << reply->message;
  auto info = proto::decodeHealthInfo(reply->body);
  ASSERT_TRUE(info.hasValue()) << info.status().str();
  EXPECT_FALSE(info->draining);
  EXPECT_EQ(info->workers, 3);
  EXPECT_GE(info->queueDepth, 0);
  EXPECT_GE(server.metricsSnapshot().healthRequests, 1);

  server.requestShutdown();
  server.wait();
}

TEST(Server, V1FrameIsRejectedWithAStructuredError) {
  const std::string sock = socketPath();
  ServerOptions opts;
  opts.endpoint = sock;
  Server server(opts);
  ASSERT_TRUE(server.start().isOk());

  std::string frame = proto::encodeFrame(proto::Verb::Health, "");
  frame[4] = 1;  // regress the version byte to the pre-budget protocol
  int fd = connectTo(sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, frame));
  auto reply = readReply(fd);
  ::close(fd);
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  EXPECT_EQ(reply->code, StatusCode::InvalidInput);
  EXPECT_NE(reply->message.find("version"), std::string::npos)
      << reply->message;

  server.requestShutdown();
  server.wait();
}

// ---- per-endpoint circuit breakers --------------------------------------

TEST(Client, BreakerStateIsPerEndpointNotPerProcess) {
  TcpShard live = startTcpShard();
  const std::string deadEndpoint = socketPath();  // nothing listening

  dr::service::BreakerRegistry registry;
  ClientOptions dead;
  dead.endpoint = deadEndpoint;
  dead.maxAttempts = 1;
  dead.connectTimeoutMs = 200;
  dead.breakerThreshold = 2;
  Client deadClient(dead, registry.acquire(deadEndpoint, 2, 60000));

  ClientOptions liveOpts;
  liveOpts.endpoint = live.endpoint;
  liveOpts.breakerThreshold = 2;
  Client liveClient(liveOpts, registry.acquire(live.endpoint, 2, 60000));

  // Two consecutive transport failures trip the dead endpoint's breaker.
  EXPECT_FALSE(deadClient.call(proto::Verb::Stats, "").hasValue());
  EXPECT_FALSE(deadClient.call(proto::Verb::Stats, "").hasValue());
  EXPECT_EQ(deadClient.breakerState(), Client::BreakerState::Open);

  // The healthy endpoint's breaker is untouched by its neighbor's death.
  auto reply = liveClient.call(proto::Verb::Stats, "");
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  EXPECT_EQ(reply->code, StatusCode::Ok);
  EXPECT_EQ(liveClient.breakerState(), Client::BreakerState::Closed);

  // And a second client of the dead endpoint shares the tripped breaker
  // instead of paying the connect timeout again.
  Client deadTwin(dead, registry.acquire(deadEndpoint, 2, 60000));
  EXPECT_EQ(deadTwin.breakerState(), Client::BreakerState::Open);

  live.server->requestShutdown();
  live.server->wait();
}

// ---- shard ring ---------------------------------------------------------

TEST(Router, RingPreferenceIsDeterministicAndCoversEveryShard) {
  const std::vector<std::string> endpoints = {
      "127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"};
  dr::service::ShardRing ring(endpoints, 64);
  ASSERT_EQ(ring.shardCount(), 4);

  std::vector<int> ownerCounts(endpoints.size(), 0);
  for (std::uint64_t key = 0; key < 512; ++key) {
    const std::uint64_t h = dr::support::mixSeed(key, 0x9e3779b9ULL);
    const std::vector<int> pref = ring.preference(h);
    ASSERT_EQ(pref.size(), endpoints.size());
    // The walk visits every shard exactly once, primary first.
    std::vector<int> sorted = pref;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(pref.front(), ring.primary(h));
    EXPECT_EQ(pref, ring.preference(h));  // same key, same order
    ++ownerCounts[static_cast<std::size_t>(pref.front())];
  }
  // 64 virtual nodes per shard spread ownership across all of them.
  for (std::size_t s = 0; s < ownerCounts.size(); ++s)
    EXPECT_GT(ownerCounts[s], 0) << "shard " << s << " owns nothing";
}

// ---- router -------------------------------------------------------------

std::uint64_t configHashOf(const std::string& kernel,
                           const std::string& signal) {
  auto compiled = dr::frontend::compileKernelChecked(kernel);
  EXPECT_TRUE(compiled.hasValue());
  return dr::explorer::exploreConfigHash(*compiled,
                                         compiled->findSignal(signal), {});
}

TEST(Router, ValidateOptionsRejectsBrokenConfigs) {
  dr::service::RouterOptions good;
  good.listen = "127.0.0.1:0";
  good.shards = {"127.0.0.1:7001", "127.0.0.1:7002"};
  EXPECT_TRUE(dr::service::validateRouterOptions(good).isOk());

  auto bad = good;
  bad.listen = "";
  EXPECT_FALSE(dr::service::validateRouterOptions(bad).isOk());
  bad = good;
  bad.shards.clear();
  EXPECT_FALSE(dr::service::validateRouterOptions(bad).isOk());
  bad = good;
  bad.shards.push_back("127.0.0.1:7001");  // duplicate
  EXPECT_FALSE(dr::service::validateRouterOptions(bad).isOk());
  bad = good;
  bad.shards.push_back("127.0.0.1:0");  // ephemeral port on a client spec
  EXPECT_FALSE(dr::service::validateRouterOptions(bad).isOk());
  bad = good;
  bad.workers = 0;
  EXPECT_FALSE(dr::service::validateRouterOptions(bad).isOk());
  bad = good;
  bad.hedgeMinDelayMs = 100;
  bad.hedgeMaxDelayMs = 10;
  EXPECT_FALSE(dr::service::validateRouterOptions(bad).isOk());
}

TEST(Router, FailsOverWhenThePrimaryShardDies) {
  TcpShard a = startTcpShard();
  TcpShard b = startTcpShard();

  dr::service::RouterOptions ropts;
  ropts.listen = "127.0.0.1:0";
  ropts.shards = {a.endpoint, b.endpoint};
  ropts.hedge = false;
  ropts.healthIntervalMs = 0;  // passive accounting only: deterministic
  ropts.client.connectTimeoutMs = 300;
  ropts.client.backoffBaseMs = 1;
  dr::service::Router router(ropts);
  ASSERT_TRUE(router.start().isOk());
  const std::string front = transport::toString(router.boundEndpoint());

  const std::string kernel =
      dr::kernels::motionEstimationSource({32, 32, 4, 4});
  const std::uint64_t hash = configHashOf(kernel, "Old");
  const std::vector<int> pref = router.ring().preference(hash);
  ASSERT_EQ(pref.size(), 2u);
  TcpShard& primary = pref.front() == 0 ? a : b;

  // Kill the shard that owns this kernel; the replica must answer.
  primary.server->requestShutdown();
  primary.server->wait();

  ClientOptions copts;
  copts.endpoint = front;
  Client client(copts);
  proto::ExploreRequest req;
  req.kernel = kernel;
  req.signal = "Old";
  for (int i = 0; i < 3; ++i) {
    auto reply = client.explore(req);
    ASSERT_TRUE(reply.hasValue()) << reply.status().str();
    ASSERT_EQ(reply->code, StatusCode::Ok) << reply->message;
  }

  const dr::service::RouterStats stats = router.stats();
  EXPECT_GE(stats.failovers, 1);
  // Two passive strikes took the primary Down; later queries skip it
  // outright instead of re-paying the connect failure.
  EXPECT_FALSE(stats.shardUp[static_cast<std::size_t>(pref.front())]);
  EXPECT_GE(stats.shardDownSkips, 1);
  EXPECT_GE(stats.shardForwards[static_cast<std::size_t>(pref[1])], 3);

  router.requestShutdown();
  router.wait();
  TcpShard& replica = pref.front() == 0 ? b : a;
  replica.server->requestShutdown();
  replica.server->wait();
}

TEST(Router, HedgeWinsAgainstABlackholedPrimary) {
  // The black hole accepts connections into its backlog and never reads:
  // the worst failure mode — alive at the TCP level, dead above it.
  auto bhEp = transport::parseEndpoint("127.0.0.1:0",
                                       /*allowEphemeralPort=*/true);
  ASSERT_TRUE(bhEp.hasValue());
  auto blackhole = transport::listenOn(*bhEp);
  ASSERT_TRUE(blackhole.hasValue());
  const std::string bhSpec = transport::toString(blackhole->bound);
  TcpShard live = startTcpShard();

  dr::service::RouterOptions ropts;
  ropts.listen = "127.0.0.1:0";
  ropts.shards = {bhSpec, live.endpoint};
  ropts.hedge = true;
  ropts.hedgeDelayMs = 25;
  ropts.healthIntervalMs = 0;  // keep the black hole officially "up"
  ropts.client.maxAttempts = 1;
  ropts.client.connectTimeoutMs = 500;
  ropts.client.recvTimeoutMs = 500;  // bounds the losing forward's drain
  dr::service::Router router(ropts);
  ASSERT_TRUE(router.start().isOk());

  // Find a kernel whose ring primary is the black hole, so the hedge is
  // what saves the query.
  std::string kernel;
  for (int h : {16, 32, 64, 128}) {
    const std::string candidate =
        dr::kernels::motionEstimationSource({h, 32, 4, 4});
    if (router.ring().primary(configHashOf(candidate, "Old")) == 0) {
      kernel = candidate;
      break;
    }
  }
  if (kernel.empty())
    GTEST_SKIP() << "no candidate kernel hashed to the black-hole shard";

  // Pre-warm the live shard so the hedged forward is a cache hit: the
  // hedge must beat the primary's 500 ms recv timeout deterministically,
  // not race a cold first-time curve computation that can lose — in which
  // case the router still answers Ok, but via failover instead of a hedge
  // win.
  {
    ClientOptions warm;
    warm.endpoint = live.endpoint;
    warm.recvTimeoutMs = 5000;
    proto::ExploreRequest wreq;
    wreq.kernel = kernel;
    wreq.signal = "Old";
    auto w = Client(warm).explore(wreq);
    ASSERT_TRUE(w.hasValue()) << w.status().str();
    ASSERT_EQ(w->code, StatusCode::Ok) << w->message;
  }

  ClientOptions copts;
  copts.endpoint = transport::toString(router.boundEndpoint());
  copts.recvTimeoutMs = 5000;
  Client client(copts);
  proto::ExploreRequest req;
  req.kernel = kernel;
  req.signal = "Old";
  auto reply = client.explore(req);
  ASSERT_TRUE(reply.hasValue()) << reply.status().str();
  ASSERT_EQ(reply->code, StatusCode::Ok) << reply->message;

  const dr::service::RouterStats stats = router.stats();
  EXPECT_GE(stats.hedgesLaunched, 1);
  EXPECT_GE(stats.hedgesWon, 1);
  EXPECT_GE(stats.shardForwards[1], 1);

  router.requestShutdown();
  router.wait();
  ::close(blackhole->fd);
  live.server->requestShutdown();
  live.server->wait();
}

TEST(Router, HealthProbesFlapAShardDownAndBackUp) {
  TcpShard a = startTcpShard();
  TcpShard b = startTcpShard();

  dr::service::RouterOptions ropts;
  ropts.listen = "127.0.0.1:0";
  ropts.shards = {a.endpoint, b.endpoint};
  ropts.hedge = false;
  ropts.healthIntervalMs = 25;
  ropts.healthTimeoutMs = 200;
  dr::service::Router router(ropts);
  ASSERT_TRUE(router.start().isOk());

  const auto waitForUpState = [&](std::size_t idx, bool want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (router.stats().shardUp[idx] == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  ASSERT_TRUE(waitForUpState(1, true));

  // Kill shard B: probes must take it Down within a few intervals.
  b.server->requestShutdown();
  b.server->wait();
  EXPECT_TRUE(waitForUpState(1, false));

  // Restart it on the same (now concrete) endpoint: probes bring it back.
  ServerOptions again;
  again.endpoint = b.endpoint;
  again.workers = 2;
  b.server = std::make_unique<Server>(again);
  ASSERT_TRUE(b.server->start().isOk());
  EXPECT_TRUE(waitForUpState(1, true));

  const dr::service::RouterStats stats = router.stats();
  EXPECT_GE(stats.healthProbes, 2);
  EXPECT_GE(stats.healthProbeFailures, 1);
  EXPECT_GE(stats.healthFlaps, 2);  // Up->Down and Down->Up

  router.requestShutdown();
  router.wait();
  a.server->requestShutdown();
  a.server->wait();
  b.server->requestShutdown();
  b.server->wait();
}

// ---- warm-cache hygiene -------------------------------------------------

TEST(Cache, DiskFullDegradesWarmCacheToRecompute) {
  if constexpr (!dr::support::fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection not compiled in (DR_FAULT_INJECT=OFF)";
  } else {
    dr::service::ResultCache::Options copts;
    copts.warmDir = tempDir("dr_diskfull_cache");
    dr::service::ResultCache cache(copts);

    const std::string kernel =
        dr::kernels::motionEstimationSource({32, 32, 4, 4});
    auto compiled = dr::frontend::compileKernelChecked(kernel);
    ASSERT_TRUE(compiled.hasValue());
    const int sig = compiled->findSignal("Old");
    const std::uint64_t hash =
        dr::explorer::exploreConfigHash(*compiled, sig, {});

    // Every journal write hits ENOSPC: the warm layer must degrade to an
    // unjournaled recompute, never fail the query or leave a live torn
    // journal behind.
    dr::support::fault::armRandom(dr::support::fault::FaultSite::DiskFull,
                                  /*seed=*/1, /*p=*/1.0);
    auto result = cache.getOrCompute(hash, *compiled, sig, {});
    dr::support::fault::disarmAll();
    ASSERT_TRUE(result.hasValue()) << result.status().str();
    EXPECT_FALSE(result->csv.empty());
    EXPECT_GE(cache.stats().journalFailures, 1);
    // Whatever the journal attempt left behind is quarantined, not live.
    std::ifstream journal(cache.warmPath(hash));
    EXPECT_FALSE(journal.good());

    // With the disk healthy again the same query journals normally.
    dr::service::ResultCache fresh(copts);
    auto healthy = fresh.getOrCompute(hash, *compiled, sig, {});
    ASSERT_TRUE(healthy.hasValue());
    EXPECT_EQ(healthy->csv, result->csv);
    std::ifstream written(fresh.warmPath(hash));
    EXPECT_TRUE(written.good());
  }
}

TEST(Cache, ScrubQuarantinesJournalsWithNoCommittedPrefix) {
  const std::string dir = tempDir("dr_scrub");

  // One clean journal...
  {
    dr::support::JournalRecord rec;
    rec.configHash = 0xc1ea7ULL;
    rec.points.push_back({2, 1, 4});
    ASSERT_TRUE(dr::support::writeJournal(dir + "/good.journal", rec).isOk());
  }
  // ...one valid journal with a flipped byte (CRC now fails)...
  {
    dr::support::JournalRecord rec;
    rec.configHash = 0xf11bULL;
    ASSERT_TRUE(dr::support::writeJournal(dir + "/flip.journal", rec).isOk());
    std::fstream f(dir + "/flip.journal",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(6);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(6);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  // ...one torn copy of the clean one (a write cut at half length)...
  {
    std::ifstream good(dir + "/good.journal", std::ios::binary);
    std::ostringstream bytes;
    bytes << good.rdbuf();
    std::ofstream torn(dir + "/torn.journal", std::ios::binary);
    torn << bytes.str().substr(0, bytes.str().size() / 2);
  }
  // ...and one file of plain garbage.
  {
    std::ofstream garbage(dir + "/junk.journal", std::ios::binary);
    garbage << "this was never a journal";
  }

  auto report = dr::service::scrubWarmDir(dir);
  ASSERT_TRUE(report.hasValue()) << report.status().str();
  EXPECT_EQ(report->scanned, 4);
  EXPECT_EQ(report->clean, 1);
  EXPECT_EQ(report->quarantined, 3);
  ASSERT_EQ(report->quarantinedFiles.size(), 3u);
  EXPECT_EQ(report->quarantinedFiles[0], dir + "/flip.journal");
  EXPECT_EQ(report->quarantinedFiles[1], dir + "/junk.journal");
  EXPECT_EQ(report->quarantinedFiles[2], dir + "/torn.journal");
  // Quarantine renames the files out of the *.journal resolution path.
  EXPECT_FALSE(std::ifstream(dir + "/junk.journal").good());
  EXPECT_TRUE(std::ifstream(dir + "/junk.journal.corrupt").good());
  EXPECT_FALSE(std::ifstream(dir + "/flip.journal").good());

  // A second pass has nothing left to quarantine.
  auto again = dr::service::scrubWarmDir(dir);
  ASSERT_TRUE(again.hasValue());
  EXPECT_EQ(again->scanned, 1);
  EXPECT_EQ(again->clean, 1);
  EXPECT_EQ(again->quarantined, 0);
}

TEST(Server, InjectedIoFaultDropsOnlyThatConnection) {
  if constexpr (!dr::support::fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection not compiled in (DR_FAULT_INJECT=OFF)";
  } else {
    const std::string sock = socketPath();
    ServerOptions opts;
    opts.endpoint = sock;
    opts.workers = 2;
    Server server(opts);
    ASSERT_TRUE(server.start().isOk());

    dr::support::fault::arm(dr::support::fault::FaultSite::ServiceIo, 1);
    auto faulted = queryExplore(
        sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}), "Old");
    EXPECT_FALSE(faulted.hasValue());  // that connection died
    dr::support::fault::disarmAll();

    // The daemon survived and the next query is served normally.
    auto ok = queryExplore(
        sock, dr::kernels::motionEstimationSource({32, 32, 4, 4}), "Old");
    EXPECT_TRUE(ok.hasValue()) << ok.status().str();
    EXPECT_GE(server.metricsSnapshot().connectionsDropped, 1);

    server.requestShutdown();
    server.wait();
  }
}

}  // namespace
