// star_fuzz: oracle-backed differential & metamorphic fuzzer for the STAR
// engine. Four modes:
//
//   fuzz (default)        run --cases seeded random cases through the full
//                         differential matrix; shrink failures and write
//                         self-contained .replay files to --out-dir.
//   --replay FILE...      re-execute replay files. Files with an injected
//                         bug are canaries: they pass when the harness
//                         flags the bug (check reuse-warm) and nothing else.
//   --inject-bug KIND     prove the harness catches a planted bug end to
//                         end: fuzz until first catch, shrink, write a
//                         replay, reload it, and verify it still trips.
//   --emit FILE           write the replay for (--profile, --seed) without
//                         running it (corpus generation).
//
// Exit code: 0 clean, 1 violations (or a canary that failed to trip),
// 2 usage / IO errors.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/differential.h"
#include "testing/fuzz_case.h"
#include "testing/replay.h"
#include "testing/shrinker.h"

namespace {

using star::testing::BugInjection;
using star::testing::CaseOutcome;
using star::testing::FuzzCase;
using star::testing::FuzzProfile;
using star::testing::MakeFuzzCase;
using star::testing::RunDifferentialCase;
using star::testing::RunnerOptions;
using star::testing::ShrinkCase;
using star::testing::ShrinkOptions;
using star::testing::Violation;

struct Args {
  std::string profile = "smoke";
  size_t cases = 500;
  uint64_t seed = 1;
  std::string out_dir = ".";
  std::string inject_bug;           // "" or "toplist"
  std::string emit_path;            // --emit FILE
  std::vector<std::string> replays; // --replay FILE...
  bool shrink = true;
  double max_oracle_states = 4e6;
};

void Usage() {
  std::fprintf(stderr,
               "usage: star_fuzz [--profile "
               "smoke|ties|tiecut|deadline|overload|vocabulary|joins]\n"
               "                 [--cases N] [--seed S] [--out-dir DIR] "
               "[--no-shrink]\n"
               "                 [--max-oracle-states X]\n"
               "                 [--inject-bug toplist]\n"
               "                 [--emit FILE] [--replay FILE ...]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--profile" && next(&v)) {
      a->profile = v;
    } else if (arg == "--cases" && next(&v)) {
      a->cases = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seed" && next(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--out-dir" && next(&v)) {
      a->out_dir = v;
    } else if (arg == "--inject-bug" && next(&v)) {
      a->inject_bug = v;
    } else if (arg == "--emit" && next(&v)) {
      a->emit_path = v;
    } else if (arg == "--replay" && next(&v)) {
      a->replays.push_back(v);
      // Every further argument up to the next flag is another file.
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        a->replays.emplace_back(argv[++i]);
      }
    } else if (arg == "--no-shrink") {
      a->shrink = false;
    } else if (arg == "--max-oracle-states" && next(&v)) {
      a->max_oracle_states = std::strtod(v.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "star_fuzz: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

BugInjection InjectionFromFlag(const std::string& flag) {
  if (flag == "toplist") return BugInjection::kWarmTopListScores;
  return BugInjection::kNone;
}

bool HasCheck(const CaseOutcome& o, const std::string& check) {
  for (const auto& v : o.violations) {
    if (v.check == check) return true;
  }
  return false;
}

/// Canary pass = the injected bug tripped its check and nothing else broke.
bool CanaryOk(const CaseOutcome& o) {
  bool caught = false;
  for (const auto& v : o.violations) {
    if (v.check != "reuse-warm") return false;
    caught = true;
  }
  return caught;
}

std::string WriteShrunkReplay(const FuzzCase& c, const std::string& check,
                              const Args& args) {
  FuzzCase minimal = star::testing::CopyCase(c);
  if (args.shrink) {
    ShrinkOptions so;
    so.runner.max_oracle_states = args.max_oracle_states;
    const auto r = ShrinkCase(c, check, so);
    std::printf("  shrink: %zu attempts, %zu reductions -> %s\n", r.attempts,
                r.reductions, r.minimal.Describe().c_str());
    minimal = star::testing::CopyCase(r.minimal);
  }
  const std::string path = args.out_dir + "/case-" + std::to_string(c.seed) +
                           "-" + check + ".replay";
  if (!star::testing::WriteReplayFile(path, minimal)) {
    std::fprintf(stderr, "star_fuzz: cannot write %s\n", path.c_str());
    return "";
  }
  std::printf("  replay written: %s\n", path.c_str());
  return path;
}

int RunReplays(const Args& args) {
  RunnerOptions opts;
  opts.max_oracle_states = args.max_oracle_states;
  int failures = 0;
  for (const auto& path : args.replays) {
    FuzzCase c;
    std::string err;
    if (!star::testing::LoadReplayFile(path, &c, &err)) {
      std::fprintf(stderr, "star_fuzz: %s: %s\n", path.c_str(), err.c_str());
      return 2;
    }
    const CaseOutcome o = RunDifferentialCase(c, opts);
    if (c.inject != BugInjection::kNone) {
      if (CanaryOk(o)) {
        std::printf("canary ok  %s (%s)\n", path.c_str(),
                    c.Describe().c_str());
      } else {
        std::printf("CANARY FAILED  %s: %s\n", path.c_str(),
                    o.ok() ? "injected bug not detected"
                           : o.Summary().c_str());
        ++failures;
      }
      continue;
    }
    if (o.ok()) {
      std::printf("ok  %s (%zu cells)\n", path.c_str(), o.cells_run);
    } else {
      std::printf("FAIL  %s: %s\n", path.c_str(), o.Summary().c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int RunCanary(const Args& args) {
  const BugInjection inject = InjectionFromFlag(args.inject_bug);
  if (inject == BugInjection::kNone) {
    std::fprintf(stderr, "star_fuzz: --inject-bug wants toplist\n");
    return 2;
  }
  const FuzzProfile profile = star::testing::ProfileByName(args.profile);
  RunnerOptions opts;
  opts.max_oracle_states = args.max_oracle_states;
  for (size_t i = 0; i < args.cases; ++i) {
    FuzzCase c = MakeFuzzCase(profile, args.seed + i);
    c.inject = inject;
    const CaseOutcome o = RunDifferentialCase(c, opts);
    if (!HasCheck(o, "reuse-warm")) continue;
    std::printf("injected bug caught on seed %llu: %s\n",
                static_cast<unsigned long long>(c.seed),
                o.Summary().c_str());
    const std::string path = WriteShrunkReplay(c, "reuse-warm", args);
    if (path.empty()) return 2;
    // The proof is only complete if the written file reproduces the catch
    // by itself.
    FuzzCase reloaded;
    std::string err;
    if (!star::testing::LoadReplayFile(path, &reloaded, &err)) {
      std::fprintf(stderr, "star_fuzz: reload failed: %s\n", err.c_str());
      return 2;
    }
    const CaseOutcome replayed = RunDifferentialCase(reloaded, opts);
    if (!HasCheck(replayed, "reuse-warm")) {
      std::printf("CANARY FAILED: replay did not reproduce the catch\n");
      return 1;
    }
    std::printf("canary ok: replay reproduces deterministically\n");
    return 0;
  }
  std::printf("CANARY FAILED: injected bug never detected in %zu cases\n",
              args.cases);
  return 1;
}

int RunEmit(const Args& args) {
  const FuzzProfile profile = star::testing::ProfileByName(args.profile);
  FuzzCase c = MakeFuzzCase(profile, args.seed);
  c.inject = InjectionFromFlag(args.inject_bug);
  if (!star::testing::WriteReplayFile(args.emit_path, c)) {
    std::fprintf(stderr, "star_fuzz: cannot write %s\n",
                 args.emit_path.c_str());
    return 2;
  }
  std::printf("emitted %s (%s)\n", args.emit_path.c_str(),
              c.Describe().c_str());
  return 0;
}

int RunFuzz(const Args& args) {
  const FuzzProfile profile = star::testing::ProfileByName(args.profile);
  RunnerOptions opts;
  opts.max_oracle_states = args.max_oracle_states;
  size_t failed = 0, cells = 0, oracle_cases = 0, context_cases = 0;
  size_t star_mix[4] = {};  // cases by star count: 1, 2, 3, 4 or more
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < args.cases; ++i) {
    const FuzzCase c = MakeFuzzCase(profile, args.seed + i);
    const CaseOutcome o = RunDifferentialCase(c, opts);
    cells += o.cells_run;
    if (o.oracle_ran) ++oracle_cases;
    if (c.context) ++context_cases;
    if (o.num_stars > 0) ++star_mix[std::min<size_t>(o.num_stars, 4) - 1];
    if (!o.ok()) {
      ++failed;
      std::printf("FAIL seed=%llu %s\n  %s\n",
                  static_cast<unsigned long long>(c.seed),
                  c.Describe().c_str(), o.Summary().c_str());
      WriteShrunkReplay(c, o.violations.front().check, args);
    }
    if ((i + 1) % 100 == 0) {
      std::printf("... %zu/%zu cases, %zu failed\n", i + 1, args.cases,
                  failed);
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "profile=%s cases=%zu failed=%zu cells=%zu oracle_cases=%zu "
      "context_cases=%zu stars=1:%zu,2:%zu,3:%zu,4+:%zu elapsed=%.2fs "
      "rate=%.1f cases/s\n",
      profile.name.c_str(), args.cases, failed, cells, oracle_cases,
      context_cases, star_mix[0], star_mix[1], star_mix[2], star_mix[3], secs,
      args.cases / (secs > 0 ? secs : 1e-9));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.emit_path.empty()) return RunEmit(args);
  if (!args.replays.empty()) return RunReplays(args);
  if (!args.inject_bug.empty()) return RunCanary(args);
  return RunFuzz(args);
}
