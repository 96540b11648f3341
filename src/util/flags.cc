#include "util/flags.h"

#include <cstdlib>

namespace oca {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      return Status::InvalidArgument("bare '--' is not supported");
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value, unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
  return Status::OK();
}

std::map<std::string, std::string>::const_iterator FlagParser::Find(
    const std::string& name) const {
  read_.insert(name);
  return flags_.find(name);
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != flags_.end();
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = Find(name);
  return it == flags_.end() ? default_value : it->second;
}

Result<int64_t> FlagParser::GetInt(const std::string& name,
                                   int64_t default_value) const {
  auto it = Find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " is not an integer: " + it->second);
  }
  return static_cast<int64_t>(v);
}

Result<double> FlagParser::GetDouble(const std::string& name,
                                     double default_value) const {
  auto it = Find(name);
  if (it == flags_.end()) return default_value;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " is not a number: " + it->second);
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = Find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Status FlagParser::CheckAllRead() const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) > 0) continue;
    unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  if (unknown.empty()) return Status::OK();
  return Status::InvalidArgument("unknown flag " + unknown);
}

}  // namespace oca
