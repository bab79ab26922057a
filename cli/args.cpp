#include "args.hpp"

#include <cstdlib>

#include "core/error.hpp"

namespace hpnn::cli {

const std::string* Args::lookup(const std::string& key) const {
  read.insert(key);
  const auto it = options.find(key);
  return it == options.end() ? nullptr : &it->second;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const std::string* value = lookup(key);
  return value == nullptr ? fallback : *value;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const std::string* value = lookup(key);
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const long long v = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    throw UsageError("--" + key + " expects an integer, got '" + *value + "'");
  }
  return static_cast<std::int64_t>(v);
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string* value = lookup(key);
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const double v = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    throw UsageError("--" + key + " expects a number, got '" + *value + "'");
  }
  return v;
}

std::string Args::require(const std::string& key) const {
  const std::string* value = lookup(key);
  if (value == nullptr) {
    throw UsageError("missing required option --" + key);
  }
  return *value;
}

void Args::reject_unread() const {
  for (const auto& [key, value] : options) {
    if (read.count(key) == 0) {
      throw UsageError("unknown option --" + key + " for '" + command + "'");
    }
  }
}

Args parse_args(const std::vector<std::string>& tokens) {
  Args args;
  std::size_t i = 0;
  if (!tokens.empty() && tokens[0].rfind("--", 0) != 0) {
    args.command = tokens[0];
    i = 1;
  }
  for (; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) == 0) {
      const std::string body = tok.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        args.options[body.substr(0, eq)] = body.substr(eq + 1);
      } else {
        if (i + 1 >= tokens.size()) {
          throw UsageError("option " + tok + " expects a value");
        }
        args.options[body] = tokens[++i];
      }
    } else {
      args.positional.push_back(tok);
    }
  }
  return args;
}

}  // namespace hpnn::cli
