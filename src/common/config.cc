#include "common/config.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace memgoal::common {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string Describe(const IntRange& range) {
  constexpr IntRange kAny;
  if (range.min == kAny.min && range.max == kAny.max) return "an integer";
  if (range.max == kAny.max) return ">= " + std::to_string(range.min);
  return "in " + std::to_string(range.min) + ".." + std::to_string(range.max);
}

std::string Text(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

bool Unbounded(const NumberRange& range) {
  return std::isinf(range.min) && std::isinf(range.max);
}

std::string Describe(const NumberRange& range) {
  if (Unbounded(range)) return "a number";
  const std::string min = Text(range.min);
  if (std::isinf(range.max)) {
    return (range.min_exclusive ? "finite and > " : "finite and >= ") + min;
  }
  return (range.min_exclusive ? "in (" : "in [") + min + ", " +
         Text(range.max) + "]";
}

bool Contains(const NumberRange& range, double value) {
  if (Unbounded(range)) return true;
  return std::isfinite(value) &&
         (range.min_exclusive ? value > range.min : value >= range.min) &&
         value <= range.max;
}

}  // namespace

bool Config::ParseArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    // GNU-style spellings map onto the key=value store: `--threads=8` is
    // `threads=8` and a bare switch like `--quick` is `quick=1` (which the
    // boolean getter accepts as true).
    const bool dashed = token.rfind("--", 0) == 0;
    if (dashed) {
      token.erase(0, 2);
      // Dashed keys use the GNU spelling of the underscored scenario key:
      // `--trace-out=x` is `trace_out=x`. Only the key part is rewritten.
      const size_t key_end = std::min(token.find('='), token.size());
      for (size_t j = 0; j < key_end; ++j) {
        if (token[j] == '-') token[j] = '_';
      }
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (dashed && !token.empty()) {
        Set(token, "1");
        dashed_.insert(token);
        continue;
      }
      error_ = std::string("malformed argument (expected key=value or "
                           "--flag): ") +
               argv[i];
      return false;
    }
    if (eq == 0) {
      error_ = std::string("malformed argument (expected key=value or "
                           "--flag): ") +
               argv[i];
      return false;
    }
    Set(token.substr(0, eq), token.substr(eq + 1));
    if (dashed) dashed_.insert(token.substr(0, eq));
  }
  return true;
}

bool Config::ParseText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      error_ = "malformed line " + std::to_string(lineno) + ": " + line;
      return false;
    }
    Set(Trim(line.substr(0, eq)), Trim(line.substr(eq + 1)));
  }
  return true;
}

bool Config::ParseFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    error_ = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseText(buffer.str());
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
  used_[key] = false;
}

std::optional<std::string> Config::Lookup(const std::string& key) {
  known_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  used_[key] = true;
  return it->second;
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) {
  return Lookup(key).value_or(fallback);
}

void Config::NoteBadValue(const std::string& key, const std::string& range,
                          const std::string& value) {
  if (bad_value_.empty()) {
    bad_value_ = key + " must be " + range + ", got " + value;
  }
}

int64_t Config::GetInt(const std::string& key, int64_t fallback,
                       IntRange range) {
  const std::optional<std::string> text = Lookup(key);
  if (!text) return fallback;
  char* end = nullptr;
  const int64_t value = std::strtoll(text->c_str(), &end, 10);
  if (end == text->c_str() || *end != '\0') {
    NoteBadValue(key, Describe(range), *text);
    return fallback;
  }
  if (value < range.min || value > range.max) {
    NoteBadValue(key, Describe(range), std::to_string(value));
    return fallback;
  }
  return value;
}

double Config::GetDouble(const std::string& key, double fallback,
                         NumberRange range) {
  const std::optional<std::string> text = Lookup(key);
  if (!text) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  if (end == text->c_str() || *end != '\0') {
    NoteBadValue(key, Describe(range), *text);
    return fallback;
  }
  if (!Contains(range, value)) {
    NoteBadValue(key, Describe(range), Text(value));
    return fallback;
  }
  return value;
}

bool Config::GetBool(const std::string& key, bool fallback) {
  const std::optional<std::string> text = Lookup(key);
  if (!text) return fallback;
  if (*text == "true" || *text == "1" || *text == "yes" || *text == "on") {
    return true;
  }
  if (*text == "false" || *text == "0" || *text == "no" || *text == "off") {
    return false;
  }
  NoteBadValue(key, "1/0, true/false, yes/no or on/off", *text);
  return fallback;
}

std::vector<std::string> Config::UnusedKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, was_used] : used_) {
    if (!was_used) keys.push_back(key);
  }
  return keys;
}

namespace {

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

std::string GnuSpelling(const std::string& key) {
  std::string flag = "--" + key;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

}  // namespace

std::string NearestSuggestion(const std::string& value,
                              const std::vector<std::string>& candidates) {
  size_t best = 3;
  std::string suggestion;
  for (const std::string& candidate : candidates) {
    const size_t distance = EditDistance(value, candidate);
    if (distance < best) {
      best = distance;
      suggestion = candidate;
    }
  }
  return suggestion;
}

bool Config::RejectUnknownFlags() {
  if (!bad_value_.empty()) {
    error_ = bad_value_;
    return false;
  }
  for (const std::string& key : dashed_) {
    if (used_.at(key)) continue;
    error_ = "unknown flag " + GnuSpelling(key);
    // Nearest key any getter queried: far enough for a dropped letter or
    // transposed pair, near enough not to suggest unrelated knobs.
    const std::string suggestion = NearestSuggestion(
        key, std::vector<std::string>(known_.begin(), known_.end()));
    if (!suggestion.empty()) {
      error_ += " (did you mean " + GnuSpelling(suggestion) + "?)";
    }
    return false;
  }
  return true;
}

}  // namespace memgoal::common
