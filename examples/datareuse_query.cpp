// Client for the exploration daemon (datareuse_serve): sends framed
// requests over its Unix domain socket and prints / saves the replies.
// The transport is the resilient client library (service/client.h):
// socket timeouts, retry-with-jittered-backoff on transport failures and
// load-shed (Unavailable) replies, and deadline propagation — so a
// daemon restart mid-burst costs retries, not failures.
//
//   $ ./examples/datareuse_query --socket /tmp/datareuse.sock
//                                --kernel path/to/kernel.krn
//                                [--signal NAME] [--deadline-ms N]
//                                [--count N] [--no-cache] [--out PATH]
//                                [--bench-out PATH] [--attempts N]
//                                [--retry-base-ms D] [--send-timeout-ms D]
//                                [--recv-timeout-ms D] [--seed N]
//   $ ./examples/datareuse_query --socket ... --stats
//   $ ./examples/datareuse_query --socket ... --shutdown
//   $ ./examples/datareuse_query --kernel k.krn --dump-request PATH
//   $ ./examples/datareuse_query --scrub /path/to/cache-dir
//
// --socket accepts any endpoint spec: a Unix socket path, or host:port
// to reach a TCP daemon or the shard router (datareuse_route).
// --scrub DIR needs no daemon: it CRC-verifies every *.journal in a warm
// cache directory, quarantines every file that is not one complete record
// (renamed to *.corrupt so the daemon recomputes instead of trusting it),
// and prints a summary.
//
// --count N fires N *concurrent identical* queries on N connections —
// the single-flight smoke test: the daemon answers all N with exactly
// one simulation. --no-cache asks the daemon to bypass its result cache
// (the cold-run lever of the CI benchmark). --out writes the reply's
// curve CSV (byte-identical to explore_kernel --curve-out for the same
// kernel and options). --bench-out appends a small JSON benchmark record
// (per-query latency stats) for the CI artifact. --dump-request writes
// the encoded request *frame* to a file without connecting — the fuzz
// corpus seeder for fuzz_protocol.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "support/cli.h"
#include "support/dataset.h"

namespace {

namespace proto = dr::service::proto;
using dr::service::Client;
using dr::service::ClientOptions;
using dr::service::ClientStats;
using dr::support::Expected;
using dr::support::Status;
using dr::support::StatusCode;
using dr::support::i64;

Expected<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::error(StatusCode::IoError, "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int runQuery(int argc, char** argv) {
  auto parsed = dr::support::CliOptions::parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.status().str().c_str());
    return 1;
  }
  const dr::support::CliOptions& cli = *parsed;
  const std::string endpoint = cli.getString("socket", "");
  const std::string scrubDir = cli.getString("scrub", "");
  const std::string kernelPath = cli.getString("kernel", "");
  const std::string signalName = cli.getString("signal", "");
  const i64 deadlineMs = cli.getInt("deadline-ms", 0);
  // Normally the client library stamps the remaining budget per attempt;
  // the explicit flag exists to hand-build v2 frames (fuzz seeds, tests).
  const i64 remainingBudgetMs = cli.getInt("remaining-budget-ms", 0);
  const i64 count = cli.getInt("count", 1);
  const bool noCache = cli.getBool("no-cache", false);
  const std::string outPath = cli.getString("out", "");
  const std::string benchOut = cli.getString("bench-out", "");
  const std::string dumpRequest = cli.getString("dump-request", "");
  const bool stats = cli.getBool("stats", false);
  const bool shutdown = cli.getBool("shutdown", false);

  ClientOptions copts;
  copts.endpoint = endpoint;
  copts.maxAttempts = static_cast<int>(cli.getInt("attempts", 5));
  copts.backoffBaseMs = cli.getInt("retry-base-ms", 20);
  copts.sendTimeoutMs = cli.getInt("send-timeout-ms", 2000);
  copts.recvTimeoutMs = cli.getInt("recv-timeout-ms", 5000);
  copts.seed = static_cast<std::uint64_t>(cli.getInt("seed", 0x5eed));
  for (const auto& name : cli.unusedNames())
    std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());

  if (!scrubDir.empty()) {
    // Offline cache hygiene: no daemon involved, just the journals.
    auto report = dr::service::scrubWarmDir(scrubDir);
    if (!report.hasValue()) {
      std::fprintf(stderr, "%s\n", report.status().str().c_str());
      return 1;
    }
    std::printf("scrub %s: %lld journal(s), %lld clean, %lld quarantined\n",
                scrubDir.c_str(), static_cast<long long>(report->scanned),
                static_cast<long long>(report->clean),
                static_cast<long long>(report->quarantined));
    for (const std::string& f : report->quarantinedFiles)
      std::printf("  quarantined %s -> %s.corrupt\n", f.c_str(), f.c_str());
    return report->quarantined == 0 ? 0 : 2;
  }

  if (stats || shutdown) {
    if (endpoint.empty()) {
      std::fprintf(stderr, "error: --socket ENDPOINT is required\n");
      return 1;
    }
    Client client(copts);
    auto reply = client.call(
        stats ? proto::Verb::Stats : proto::Verb::Shutdown, "");
    if (!reply.hasValue()) {
      std::fprintf(stderr, "%s\n", reply.status().str().c_str());
      return 1;
    }
    if (reply->code != StatusCode::Ok) {
      std::fprintf(stderr, "error: %s\n", reply->message.c_str());
      return 1;
    }
    if (stats) std::printf("%s", reply->body.c_str());
    if (shutdown) std::printf("shutdown acknowledged\n");
    return 0;
  }

  if (kernelPath.empty()) {
    std::fprintf(stderr, "error: --kernel PATH is required\n");
    return 1;
  }
  auto kernel = readFile(kernelPath);
  if (!kernel.hasValue()) {
    std::fprintf(stderr, "%s\n", kernel.status().str().c_str());
    return 1;
  }
  proto::ExploreRequest req;
  req.kernel = *kernel;
  req.signal = signalName;
  req.deadlineMs = deadlineMs;
  req.remainingBudgetMs = remainingBudgetMs;
  if (noCache) req.flags |= proto::kFlagNoCache;

  if (!dumpRequest.empty()) {
    // Fuzz corpus seed: the framed request, exactly as it crosses the
    // socket. No server needed.
    auto st = dr::support::DataSet::writeFileStatus(
        dumpRequest, proto::encodeFrame(proto::Verb::Explore,
                                        proto::encodeExploreRequest(req)));
    if (!st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return 1;
    }
    std::printf("wrote request frame to %s\n", dumpRequest.c_str());
    return 0;
  }
  if (endpoint.empty()) {
    std::fprintf(stderr, "error: --socket ENDPOINT is required\n");
    return 1;
  }
  if (count < 1) {
    std::fprintf(stderr, "error: --count must be >= 1\n");
    return 1;
  }

  // --count N: N concurrent identical queries, each on its own
  // connection, all fired together — the single-flight burst. One shared
  // Client: its ledger counts the retries of all N.
  Client client(copts);
  struct Slot {
    Expected<proto::Reply> reply = Status::error(StatusCode::Internal, "unset");
    i64 latencyUs = 0;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(count));
  {
    std::vector<std::thread> threads;
    threads.reserve(slots.size());
    for (auto& slot : slots)
      threads.emplace_back([&, s = &slot] {
        const auto t0 = std::chrono::steady_clock::now();
        s->reply = client.explore(req);
        s->latencyUs = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      });
    for (auto& t : threads) t.join();
  }

  int failures = 0;
  i64 cachedReplies = 0, totalUs = 0, minUs = 0, maxUs = 0;
  proto::ExploreResult first;
  bool haveFirst = false;
  for (const Slot& slot : slots) {
    if (!slot.reply.hasValue()) {
      std::fprintf(stderr, "%s\n", slot.reply.status().str().c_str());
      ++failures;
      continue;
    }
    if (slot.reply->code != StatusCode::Ok) {
      std::fprintf(stderr, "error: %s\n", slot.reply->message.c_str());
      ++failures;
      continue;
    }
    auto result = proto::decodeExploreResult(slot.reply->body);
    if (!result.hasValue()) {
      std::fprintf(stderr, "%s\n", result.status().str().c_str());
      ++failures;
      continue;
    }
    if (result->cached) ++cachedReplies;
    totalUs += slot.latencyUs;
    minUs = minUs == 0 ? slot.latencyUs : std::min(minUs, slot.latencyUs);
    maxUs = std::max(maxUs, slot.latencyUs);
    if (!haveFirst) {
      first = std::move(*result);
      haveFirst = true;
    }
  }
  if (!haveFirst) return 1;

  const i64 ok = count - failures;
  std::printf("%lld/%lld replies ok, %lld served from cache; "
              "signal C_tot %lld, distinct %lld; "
              "latency us min %lld mean %lld max %lld\n",
              static_cast<long long>(ok), static_cast<long long>(count),
              static_cast<long long>(cachedReplies),
              static_cast<long long>(first.Ctot),
              static_cast<long long>(first.distinctElements),
              static_cast<long long>(minUs),
              static_cast<long long>(ok > 0 ? totalUs / ok : 0),
              static_cast<long long>(maxUs));
  const ClientStats cs = client.stats();
  if (cs.retries > 0)
    std::printf("resilience: %lld retries\n",
                static_cast<long long>(cs.retries));

  if (!outPath.empty()) {
    auto st = dr::support::DataSet::writeFileStatus(outPath, first.csv);
    if (!st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return 1;
    }
  }
  if (!benchOut.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"name\": \"datareuse_query\",\n"
         << "  \"count\": " << count << ",\n"
         << "  \"ok\": " << ok << ",\n"
         << "  \"cached_replies\": " << cachedReplies << ",\n"
         << "  \"retries\": " << cs.retries << ",\n"
         << "  \"latency_us\": {\"min\": " << minUs
         << ", \"mean\": " << (ok > 0 ? totalUs / ok : 0)
         << ", \"max\": " << maxUs << "},\n"
         << "  \"throughput_qps\": "
         << (maxUs > 0 ? 1e6 * static_cast<double>(ok) /
                             static_cast<double>(maxUs)
                       : 0.0)
         << "\n}\n";
    auto st = dr::support::DataSet::writeFileStatus(benchOut, json.str());
    if (!st.isOk()) {
      std::fprintf(stderr, "%s\n", st.str().c_str());
      return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return dr::support::guardedMain([&] { return runQuery(argc, argv); });
}
