#ifndef STAR_TESTING_REPLAY_H_
#define STAR_TESTING_REPLAY_H_

#include <string>

#include "testing/fuzz_case.h"

namespace star::testing {

/// Self-contained, line-oriented text form of a fuzz case ("star-replay
/// v1"): seed/profile provenance, every result-affecting knob (the
/// ensemble's context flag included; doubles as bit-exact %016llx
/// patterns, so a replay reproduces the exact FP behaviour), the query,
/// and the full graph embedded in the graph_io "star-kg v1" format
/// between `graph` and `endgraph` lines. Everything a failure needs to
/// reproduce on a machine that has only this file.
std::string SerializeReplay(const FuzzCase& c);

/// Parses a replay produced by SerializeReplay. On failure returns false
/// and sets *error to a line-numbered reason.
bool ParseReplay(const std::string& text, FuzzCase* out, std::string* error);

/// File wrappers around the above. Write returns false on IO failure.
bool WriteReplayFile(const std::string& path, const FuzzCase& c);
bool LoadReplayFile(const std::string& path, FuzzCase* out,
                    std::string* error);

}  // namespace star::testing

#endif  // STAR_TESTING_REPLAY_H_
