// Fuzz target: journal record parsing (support/journal.h).
//
// The input bytes are loaded directly as a journal file image — the
// artifact a crashed or damaged run leaves behind. parseJournal must
// never crash, leak, or over-read on any input, and must accept only one
// complete record: an image it accepts re-encodes to identical bytes (so
// its CRC, magic, version and length all checked out), and every strict
// prefix of it is rejected (a write cut at any byte never parses).

#include <cstdlib>
#include <string_view>

#include "fuzz_util.h"
#include "support/journal.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto parsed = dr::support::parseJournal(bytes);
  if (!parsed.hasValue()) return 0;  // rejected cleanly: fine

  if (dr::support::encodeJournal(*parsed) != bytes) std::abort();
  for (size_t len = 0; len < size; ++len)
    if (dr::support::parseJournal(bytes.substr(0, len)).hasValue())
      std::abort();
  return 0;
}
