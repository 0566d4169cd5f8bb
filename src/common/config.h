#ifndef MEMGOAL_COMMON_CONFIG_H_
#define MEMGOAL_COMMON_CONFIG_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace memgoal::common {

/// Values an integer getter accepts: `min`..`max`, both inclusive. The
/// default accepts every int64.
struct IntRange {
  int64_t min = std::numeric_limits<int64_t>::min();
  int64_t max = std::numeric_limits<int64_t>::max();
};

/// A count the caller stores in an int.
inline constexpr IntRange kIntCount{0, std::numeric_limits<int>::max()};

/// Values a number getter accepts: `min`..`max`, `min` itself excluded
/// when `min_exclusive`. A bounded range also rejects NaN and the
/// infinities; the default accepts everything that parses.
struct NumberRange {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;

  static constexpr NumberRange AtLeast(double min) { return {min}; }
  static constexpr NumberRange Above(double min) {
    return {min, std::numeric_limits<double>::infinity(), true};
  }
};

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

  /// Parses the file at `path` as ParseText does. Returns false (and
  /// records an error message) when it cannot be read or a line is
  /// malformed.
  bool ParseFile(const std::string& path);

  void Set(const std::string& key, const std::string& value);

  /// Typed getters: return the stored value converted to the requested type,
  /// or `fallback` when the key is absent. A present key that fails to
  /// convert, or converts to a value outside `range`, also yields
  /// `fallback`, and the first such value is kept as
  /// "<key> must be <range>, got <value>" (see bad_value()).
  std::string GetString(const std::string& key, const std::string& fallback);
  int64_t GetInt(const std::string& key, int64_t fallback,
                 IntRange range = {});
  double GetDouble(const std::string& key, double fallback,
                   NumberRange range = {});
  bool GetBool(const std::string& key, bool fallback);

  /// The message of the first value a typed getter rejected; empty when
  /// none was. RejectUnknownFlags reports it first; core::LoadScenario
  /// fails with it.
  const std::string& bad_value() const { return bad_value_; }

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
  /// Records "<key> must be <range>, got <value>" unless a bad value was
  /// already recorded.
  void NoteBadValue(const std::string& key, const std::string& range,
                    const std::string& value);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
  /// Keys some getter queried (present or not): the vocabulary the binary
  /// actually understands, used for near-miss suggestions.
  std::set<std::string> known_;
  /// Keys that arrived as `--flag[=value]` on the command line.
  std::set<std::string> dashed_;
  /// First value a typed getter rejected (empty when none).
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
