#ifndef MEMGOAL_COMMON_CONFIG_H_
#define MEMGOAL_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace memgoal::common {

/// Flat key=value configuration store with typed accessors.
///
/// Examples and benchmarks accept overrides on the command line as
/// `key=value` tokens (e.g. `nodes=5 skew=0.75 seed=42`); this class parses
/// them and reports which keys were never read so typos do not silently
/// leave the default in place.
class Config {
 public:
  Config() = default;

  /// Parses `key=value` tokens from an argv-style array (skipping argv[0]).
  /// GNU-style spellings are accepted too: `--key=value` is equivalent to
  /// `key=value`, and a bare `--flag` stores `flag=1` (true for GetBool).
  /// Returns false (and records an error message) on malformed tokens.
  bool ParseArgs(int argc, const char* const* argv);

  /// Parses newline-separated `key=value` text; '#' starts a comment and
  /// blank lines are ignored.
  bool ParseText(const std::string& text);

  void Set(const std::string& key, const std::string& value);

  /// Typed getters: return the stored value converted to the requested type,
  /// or `fallback` when the key is absent. A present key that fails to
  /// convert is a configuration error and aborts.
  std::string GetString(const std::string& key, const std::string& fallback);
  int64_t GetInt(const std::string& key, int64_t fallback);
  double GetDouble(const std::string& key, double fallback);
  bool GetBool(const std::string& key, bool fallback);

  /// The same conversions without the abort: `fallback` when the key is
  /// absent, nullopt when it is present but does not convert. For readers
  /// that report a bad value themselves (core::LoadScenario).
  std::optional<int64_t> TryGetInt(const std::string& key, int64_t fallback);
  std::optional<double> TryGetDouble(const std::string& key, double fallback);
  std::optional<bool> TryGetBool(const std::string& key, bool fallback);

  /// Keys that were set but never read through a getter. Useful to warn
  /// about misspelled overrides.
  std::vector<std::string> UnusedKeys() const;

  /// Strict check for command-line `--flag` spellings: call after every
  /// getter has run. Any dashed argument whose key no getter ever asked
  /// about is a typo, not a tunable — returns false and records an error
  /// naming the flag, with a "did you mean --x" suggestion when a key some
  /// getter *did* query is within edit distance 2. Scenario-file and bare
  /// `key=value` tokens keep the soft UnusedKeys() warning instead.
  bool RejectUnknownFlags();

  const std::string& error() const { return error_; }

 private:
  std::optional<std::string> Lookup(const std::string& key);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
  /// Keys some getter queried (present or not): the vocabulary the binary
  /// actually understands, used for near-miss suggestions.
  std::set<std::string> known_;
  /// Keys that arrived as `--flag[=value]` on the command line.
  std::set<std::string> dashed_;
  std::string error_;
};

/// Nearest of `candidates` to `value` within edit distance 2 — far enough
/// for a dropped letter or a transposed pair, near enough not to suggest
/// unrelated words. Empty when nothing is close. Shared by
/// Config::RejectUnknownFlags and enum-valued scenario keys.
std::string NearestSuggestion(const std::string& value,
                              const std::vector<std::string>& candidates);

}  // namespace memgoal::common

#endif  // MEMGOAL_COMMON_CONFIG_H_
