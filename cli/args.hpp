// Minimal command-line argument parsing for the hpnn CLI.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace hpnn::cli {

/// Parsed command line: `hpnn <command> [--flag value]... [positional]...`.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  // Every lookup records its key as read (see reject_unread).
  bool has(const std::string& key) const { return lookup(key) != nullptr; }

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Returns the option value or throws hpnn::Error mentioning the flag.
  std::string require(const std::string& key) const;

  /// Throws UsageError naming the first given option that no lookup has
  /// read. A command calls it once it has read every option it takes, so
  /// a misspelt or retired flag fails closed instead of being ignored.
  void reject_unread() const;

  /// The option's value, or null when absent; records `key` as read.
  const std::string* lookup(const std::string& key) const;
  mutable std::set<std::string> read;
};

/// Parses tokens after the program name. "--key value" and "--key=value"
/// are both accepted. Throws hpnn::Error for malformed input (e.g. a
/// trailing flag without a value).
Args parse_args(const std::vector<std::string>& tokens);

}  // namespace hpnn::cli
