#include "io/text_scan.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <istream>

namespace oca {
namespace internal {

namespace {

constexpr size_t kInitialSlots = 1024;
constexpr size_t kMaxQuotedLine = 120;

// One id at `p`: optional '+', then digits. nullptr on no digits or
// overflow.
const char* ParseId(const char* p, const char* end, uint64_t* out) {
  if (p != end && *p == '+') ++p;
  auto [next, ec] = std::from_chars(p, end, *out);
  return ec == std::errc() ? next : nullptr;
}

}  // namespace

LineScanner::LineScanner(std::istream& in)
    : in_(in),
      buf_(new char[2 * kScanBlockBytes]),
      capacity_(2 * kScanBlockBytes) {}

bool LineScanner::Next() {
  for (;;) {
    const char* base = buf_.get();
    const void* nl = std::memchr(base + scanned_, '\n', end_ - scanned_);
    size_t stop;
    if (nl != nullptr) {
      stop = static_cast<size_t>(static_cast<const char*>(nl) - base);
    } else if (eof_) {
      if (begin_ == end_) return false;
      stop = end_;
    } else {
      scanned_ = end_;
      Refill();
      continue;
    }
    size_t len = stop - begin_;
    if (len > 0 && base[begin_ + len - 1] == '\r') --len;
    line_ = std::string_view(base + begin_, len);
    begin_ = scanned_ = std::min(stop + 1, end_);
    ++line_no_;
    return true;
  }
}

void LineScanner::Refill() {
  const size_t tail = end_ - begin_;
  if (tail + kScanBlockBytes > capacity_) {
    const size_t grown = std::max(2 * capacity_, tail + kScanBlockBytes);
    std::unique_ptr<char[]> bigger(new char[grown]);
    std::memcpy(bigger.get(), buf_.get() + begin_, tail);
    buf_ = std::move(bigger);
    capacity_ = grown;
  } else if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, tail);
  }
  scanned_ -= begin_;
  begin_ = 0;
  end_ = tail;
  in_.read(buf_.get() + end_, static_cast<std::streamsize>(kScanBlockBytes));
  end_ += static_cast<size_t>(in_.gcount());
  if (!in_) {
    eof_ = true;
    read_error_ = in_.bad();
  }
}

Status LineScanner::status() const {
  if (read_error_) {
    return Status::IOError("read error after line " +
                           std::to_string(line_no_));
  }
  return Status::OK();
}

const char* ParseEdgePair(std::string_view line, uint64_t* a, uint64_t* b) {
  const char* end = line.data() + line.size();
  const char* p = ParseId(SkipBlanks(line.data(), end), end, a);
  if (p == nullptr || p == end || !IsBlank(*p)) return nullptr;
  return ParseId(SkipBlanks(p, end), end, b);
}

Status LineError(const std::string& what, uint64_t line_no,
                 std::string_view line) {
  std::string quoted(line.substr(0, kMaxQuotedLine));
  if (line.size() > kMaxQuotedLine) quoted += "...";
  return Status::IOError(what + " at line " + std::to_string(line_no) +
                         ": '" + quoted + "'");
}

IdInterner::IdInterner()
    : slots_(kInitialSlots),
      mask_(kInitialSlots - 1),
      shift_(64 - std::countr_zero(kInitialSlots)) {}

void IdInterner::Grow() {
  slots_.assign(2 * slots_.size(), Slot{});
  mask_ = slots_.size() - 1;
  --shift_;
  for (size_t i = 0; i < ids_.size(); ++i) {
    size_t slot = Hash(ids_[i]);
    while (slots_[slot].id != kEmpty) slot = (slot + 1) & mask_;
    slots_[slot] = {ids_[i], static_cast<NodeId>(i)};
  }
}

}  // namespace internal
}  // namespace oca
