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
  /// convert also yields `fallback`, and the first such value is kept as
  /// "<key> must be <kind>, got <value>" for RejectUnknownFlags to report.
  std::string GetString(const std::string& key, const std::string& fallback);
  int64_t GetInt(const std::string& key, int64_t fallback);
  double GetDouble(const std::string& key, double fallback);
  bool GetBool(const std::string& key, bool fallback);

  /// The same conversions without the record: `fallback` when the key is
  /// absent, nullopt when it is present but does not convert. For readers
  /// that report a bad value themselves (core::LoadScenario).
  std::optional<int64_t> TryGetInt(const std::string& key, int64_t fallback);
  std::optional<double> TryGetDouble(const std::string& key, double fallback);
  std::optional<bool> TryGetBool(const std::string& key, bool fallback);

  /// Keys that were set but never read through a getter. Useful to warn
  /// about misspelled overrides.
  std::vector<std::string> UnusedKeys() const;

  /// Strict check of the command line: call after every getter has run.
  /// Fails first on a value a typed getter could not convert, then on any
  /// dashed argument whose key no getter ever asked about — a typo, not a
  /// tunable — naming the flag, with a "did you mean --x" suggestion when a
  /// key some getter *did* query is within edit distance 2. Returns false
  /// and records the error. Scenario-file and bare `key=value` tokens keep
  /// the soft UnusedKeys() warning for unknown keys instead.
  bool RejectUnknownFlags();

  const std::string& error() const { return error_; }

 private:
  std::optional<std::string> Lookup(const std::string& key);
  /// Records `key`'s value as the first one that is not a `kind`.
  void NoteBadValue(const std::string& key, const char* kind);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
  /// Keys some getter queried (present or not): the vocabulary the binary
  /// actually understands, used for near-miss suggestions.
  std::set<std::string> known_;
  /// Keys that arrived as `--flag[=value]` on the command line.
  std::set<std::string> dashed_;
  /// First value a typed getter could not convert (empty when none).
  std::string bad_value_;
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
