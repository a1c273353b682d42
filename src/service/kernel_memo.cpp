#include "service/kernel_memo.h"

#include <algorithm>
#include <utility>

#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "partition/advisor.h"
#include "support/contracts.h"

namespace dr::service {

namespace {

/// Per-entry bookkeeping charged beyond the text and the facts: the list
/// node, the index slot and the shared facts' control block.
constexpr i64 kEntryOverheadBytes = 128;

}  // namespace

int KernelFacts::resolve(const std::string& name) const {
  for (std::size_t s = 0; s < signals.size(); ++s)
    if (name.empty() ? signals[s].read : signals[s].name == name)
      return static_cast<int>(s);
  return -1;
}

std::vector<int> KernelFacts::readSignals() const {
  std::vector<int> out;
  for (std::size_t s = 0; s < signals.size(); ++s)
    if (signals[s].read) out.push_back(static_cast<int>(s));
  return out;
}

i64 KernelFacts::bytes() const {
  i64 total = static_cast<i64>(sizeof(KernelFacts) + kernelName.size());
  for (const SignalFacts& s : signals)
    total += static_cast<i64>(sizeof(SignalFacts) + s.name.size());
  return total;
}

KernelFacts factsOf(const loopir::Program& p) {
  const std::vector<int> read = partition::readSignals(p);
  KernelFacts facts;
  facts.kernelName = p.name;
  facts.signals.reserve(p.signals.size());
  for (std::size_t s = 0; s < p.signals.size(); ++s) {
    const int signal = static_cast<int>(s);
    facts.signals.push_back(
        {p.signals[s].name, std::binary_search(read.begin(), read.end(), signal),
         explorer::exploreConfigHash(p, signal, {})});
  }
  return facts;
}

RequestKernel::RequestKernel(const std::string& text,
                             std::shared_ptr<const KernelFacts> facts,
                             std::optional<loopir::Program> program)
    : text_(&text), facts_(std::move(facts)), program_(std::move(program)) {}

const loopir::Program& RequestKernel::program() {
  if (!program_) {
    // The facts were learned from a successful compile of these exact
    // bytes, and compiling is a pure function of them.
    auto compiled = frontend::compileKernelChecked(*text_);
    DR_CHECK(compiled.hasValue());
    program_ = std::move(*compiled);
  }
  return *program_;
}

support::Expected<RequestKernel> KernelMemo::open(const std::string& text,
                                                  bool useMemo) {
  if (useMemo)
    if (std::shared_ptr<const KernelFacts> facts = find(text))
      return RequestKernel(text, std::move(facts), std::nullopt);
  auto compiled = frontend::compileKernelChecked(text);
  if (!compiled.hasValue()) return compiled.status();
  auto facts = std::make_shared<const KernelFacts>(factsOf(*compiled));
  if (useMemo) learn(text, facts);
  return RequestKernel(text, std::move(facts), std::move(*compiled));
}

std::shared_ptr<const KernelFacts> KernelMemo::find(std::string_view text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(text);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->facts;
}

void KernelMemo::learn(std::string_view text,
                       std::shared_ptr<const KernelFacts> facts) {
  const i64 cost =
      static_cast<i64>(text.size()) + facts->bytes() + kEntryOverheadBytes;
  if (cost > kMaxBytes) return;  // would evict everything for one kernel
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.count(text) != 0) return;  // a concurrent miss learned it
  while (bytes_ + cost > kMaxBytes && !lru_.empty()) {
    bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().text);
    lru_.pop_back();
  }
  lru_.push_front({std::string(text), std::move(facts), cost});
  index_.emplace(lru_.front().text, lru_.begin());
  bytes_ += cost;
}

i64 KernelMemo::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t KernelMemo::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace dr::service
