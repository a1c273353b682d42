#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "loopir/program.h"
#include "support/intmath.h"
#include "support/status.h"

/// \file kernel_memo.h
/// The service's hit path, internal to src/service/: what a door needs to
/// know about a kernel text before it touches a cache, learned from one
/// successful compile and then served without compiling.
///
/// A KernelMemo maps the exact kernel text, compared in full (a 64-bit
/// hash alone could serve one kernel's curve for another), to its
/// KernelFacts: the kernel name and, for every signal, its name, whether
/// it is read, and its default-options explorer::exploreConfigHash. A
/// config hash is a pure function of the text and the code's constants,
/// so an entry never goes stale and needs no invalidation. Only a
/// successful compile is learned; a compile error is never stored.
///
/// The memo is bounded by a byte budget covering kernel text plus facts,
/// least recently used out first: a kernel learned when the memo is full
/// evicts its way in, and a kernel larger than the whole budget is not
/// stored (a request kernel may be up to proto::kMaxPayload).
///
/// The daemon and the router each own one. A door opens a request's
/// kernel (KernelMemo::open), resolves its signal and takes the config
/// hash from the facts, and asks RequestKernel::program() for the
/// compiled Program only when a curve must actually be computed.

namespace dr::service {

using dr::support::i64;

/// One signal of a kernel, as the service doors see it.
struct SignalFacts {
  std::string name;
  bool read = false;  ///< some nest reads it
  /// explorer::exploreConfigHash of this signal under default
  /// ExploreOptions (a budget is excluded from the hash by design).
  std::uint64_t configHash = 0;
};

/// Everything a cache hit needs from a kernel's compile.
struct KernelFacts {
  std::string kernelName;            ///< loopir::Program::name
  std::vector<SignalFacts> signals;  ///< declaration order

  /// The signal a request targets: a non-empty name picks the first
  /// signal so named, read or not; "" picks the first read signal
  /// (explore_kernel's default sweep order). -1 when there is none.
  int resolve(const std::string& name) const;

  /// Indices of the read signals, ascending (partition::readSignals).
  std::vector<int> readSignals() const;

  /// Bytes charged against the memo's budget for these facts.
  i64 bytes() const;
};

/// The facts of a compiled kernel.
KernelFacts factsOf(const loopir::Program& p);

/// One request's kernel: its facts, and its Program compiled on demand.
/// Borrows the request's kernel text, which must outlive it.
class RequestKernel {
 public:
  const KernelFacts& facts() const { return *facts_; }

  /// The compiled kernel: the Program compiled to learn the facts, or on
  /// a memo hit a compile of the same text on the first call.
  const loopir::Program& program();

 private:
  friend class KernelMemo;
  RequestKernel(const std::string& text,
                std::shared_ptr<const KernelFacts> facts,
                std::optional<loopir::Program> program);

  const std::string* text_;
  std::shared_ptr<const KernelFacts> facts_;
  std::optional<loopir::Program> program_;
};

class KernelMemo {
 public:
  /// The byte budget: thousands of typical kernels of a few hundred bytes
  /// to a few KiB, and far below what one request may carry.
  static constexpr i64 kMaxBytes = i64{4} << 20;

  /// The kernel of a request: its facts from the memo when `text` is
  /// resident, otherwise from compiling `text` and learning the facts.
  /// Without `useMemo` (a kFlagNoCache request) the text is compiled and
  /// nothing is looked up or learned. A compile error returns the
  /// compiler's status and stores nothing.
  support::Expected<RequestKernel> open(const std::string& text,
                                        bool useMemo = true);
  /// The kernel borrows the text, so a temporary cannot be opened.
  support::Expected<RequestKernel> open(std::string&&, bool = true) = delete;

  /// The facts of `text` when resident (refreshing its recency), or null.
  std::shared_ptr<const KernelFacts> find(std::string_view text);

  /// Store `facts` for `text`, evicting least recently used entries past
  /// the byte budget. An entry larger than the whole budget is not stored.
  void learn(std::string_view text, std::shared_ptr<const KernelFacts> facts);

  i64 bytes() const;
  std::size_t entries() const;

 private:
  struct Entry {
    std::string text;
    std::shared_ptr<const KernelFacts> facts;
    i64 bytes = 0;
  };

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< most recently used first
  /// Keys view each entry's own text; list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  i64 bytes_ = 0;
};

}  // namespace dr::service
