#ifndef MEMGOAL_TESTS_ORACLES_RECORD_PARSE_H_
#define MEMGOAL_TESTS_ORACLES_RECORD_PARSE_H_

#include <string>

#include "la/simplex.h"
#include "obs/decision_log.h"

namespace memgoal::obs {

/// Parses a record serialized by DecisionRecord::ToJson. Returns false on
/// malformed input. Only scans for ToJson's own key layout — a replay
/// helper for tests, not a general JSON parser.
bool ParseDecisionRecord(const std::string& json, DecisionRecord* out);

}  // namespace memgoal::obs

namespace memgoal::la {

/// Parses SimplexBasis::ToText's 'L'/'U'/'B' form; false (and an empty
/// basis) on any other character.
bool ParseSimplexBasis(const std::string& text, SimplexBasis* out);

}  // namespace memgoal::la

#endif  // MEMGOAL_TESTS_ORACLES_RECORD_PARSE_H_
