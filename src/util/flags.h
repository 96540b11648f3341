// Tiny command-line flag parser for examples and benchmark drivers.
//
// Supports --name=value and --name value forms plus boolean --name.
// Not a general-purpose flags library; just enough for our binaries.
// The parser remembers which names the program asked about, so after
// reading every flag it knows a program can reject the rest
// (CheckAllRead) instead of silently running with defaults.

#ifndef OCA_UTIL_FLAGS_H_
#define OCA_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace oca {

/// Parses argv into name->value pairs; positional arguments are kept in
/// order. Values are accessed with typed getters that fall back to a
/// default when absent and error on malformed input.
class FlagParser {
 public:
  /// Parses the command line. Unrecognized syntax (a lone "--") errors.
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  Result<int64_t> GetInt(const std::string& name, int64_t default_value) const;
  Result<double> GetDouble(const std::string& name,
                           double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// InvalidArgument naming every parsed flag that no Has() or getter
  /// call has asked about; OK when there is none. Call it once the
  /// program has read all the flags it knows.
  Status CheckAllRead() const;

 private:
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace oca

#endif  // OCA_UTIL_FLAGS_H_
