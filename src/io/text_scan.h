// Block-buffered line scanning and token parsing shared by the text
// edge-list readers (edge_list.cc, snap.cc). Internal to the io layer.
//
// LineScanner pulls the input in kScanBlockBytes reads and hands out one
// line at a time as a view into its buffer, carrying a partial line over
// to the next read. Memory is O(block + longest line), never O(input).
// Ids are parsed with std::from_chars and interned by IdInterner, a flat
// open-addressing table that assigns dense ids in first-seen order.

#ifndef OCA_IO_TEXT_SCAN_H_
#define OCA_IO_TEXT_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace oca {
namespace internal {

/// Bytes requested from the stream per read.
inline constexpr size_t kScanBlockBytes = size_t{1} << 16;

/// Splits a stream into lines. A line ends at '\n' (the last one may
/// lack it) and one trailing '\r' is dropped, so CRLF text reads like LF
/// text. Line numbers count from 1.
class LineScanner {
 public:
  explicit LineScanner(std::istream& in);

  /// Advances to the next line; false at the end of input or after a
  /// read error (see status()).
  bool Next();

  /// The current line, without its terminator. Valid until Next().
  std::string_view line() const { return line_; }
  uint64_t line_no() const { return line_no_; }

  /// IOError when the stream failed other than by reaching its end.
  Status status() const;

 private:
  /// Moves the unconsumed tail to the front of the buffer and appends
  /// up to one block; grows the buffer when the tail plus a block does
  /// not fit (a line longer than the buffer).
  void Refill();

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;    // first unconsumed byte
  size_t scanned_ = 0;  // bytes of [begin_, end_) known to hold no '\n'
  size_t end_ = 0;      // one past the last byte read
  bool eof_ = false;
  bool read_error_ = false;
  std::string_view line_;
  uint64_t line_no_ = 0;
};

/// True for a line the readers skip: empty, or a '#' / '%' comment
/// (decided by the first byte alone).
inline bool IsSkippedLine(std::string_view line) {
  return line.empty() || line[0] == '#' || line[0] == '%';
}

/// Space, tab, '\r', '\v' and '\f': the in-line separators.
inline bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

inline const char* SkipBlanks(const char* p, const char* end) {
  while (p != end && IsBlank(*p)) ++p;
  return p;
}

/// Parses `blank* id blank+ id` at the start of `line`, where an id is
/// an optional '+' and decimal digits with a value below 2^64. Returns
/// the position just past the second id, or nullptr when the prefix
/// does not match (a '-' sign and an id of 2^64 or more do not).
const char* ParseEdgePair(std::string_view line, uint64_t* a, uint64_t* b);

/// "<what> at line N: '<line>'" with the line cut to a readable length.
Status LineError(const std::string& what, uint64_t line_no,
                 std::string_view line);

/// Maps sparse 64-bit ids to dense NodeIds in first-seen order.
class IdInterner {
 public:
  IdInterner();

  /// Dense id of `raw`, assigning the next one on first sight.
  NodeId Intern(uint64_t raw) {
    size_t slot = Hash(raw);
    while (slots_[slot].id != kEmpty) {
      if (slots_[slot].raw == raw) return slots_[slot].id;
      slot = (slot + 1) & mask_;
    }
    const auto id = static_cast<NodeId>(ids_.size());
    slots_[slot] = {raw, id};
    ids_.push_back(raw);
    if (2 * ids_.size() > slots_.size()) Grow();
    return id;
  }

  size_t size() const { return ids_.size(); }

  /// The original ids in dense order. Call once, after the last Intern.
  std::vector<uint64_t> TakeOriginalIds() { return std::move(ids_); }

 private:
  static constexpr NodeId kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t raw = 0;
    NodeId id = kEmpty;
  };

  size_t Hash(uint64_t raw) const {
    // Fibonacci hashing: the top bits of the product spread runs of
    // consecutive ids across the table.
    return static_cast<size_t>((raw * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 0;
  std::vector<uint64_t> ids_;
};

}  // namespace internal
}  // namespace oca

#endif  // OCA_IO_TEXT_SCAN_H_
