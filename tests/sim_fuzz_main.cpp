// fides_simfuzz — the standalone schedule-fuzz runner.
//
// Executes N seeded schedules (network faults × Byzantine deviations over
// SimNet) and checks every safety invariant after each one. On the first
// violation it prints the seed, the scenario, the event-trace hash and the
// command that replays it, then exits non-zero (with --keep-going it finishes
// the sweep first, listing every failing seed). The seed plus the sweep's
// flags reproduce the failure:
//
//   ./fides_simfuzz --base-seed <seed> --seeds 1 [--pipeline] [--crash] [--spec]
//   FIDES_SIM_SEED=<seed> ctest -R sim_fuzz_test   # flag-less sweeps only
//
// A schedule that stalls the round dispatcher counts as a failure like any
// violated invariant; its FAIL line names the stuck round's phase counts.
//
// Usage: fides_simfuzz [--seeds N] [--base-seed B] [--keep-going] [--pipeline]
//                      [--crash] [--spec]
// Env:   FIDES_SIM_SEEDS / FIDES_SIM_SEED override the defaults;
//        FIDES_CRASH=1 is equivalent to --crash, FIDES_SPEC=1 to --spec.
// --pipeline forces every scenario to run with pipeline_depth in 2..4 (the
// pipelined smoke sweep; oracles unchanged).
// --crash adds a seeded crash/recover cycle to every scenario (composable
// with --pipeline): a server loses all volatile state mid-schedule and
// restores from its durable round log; coordinator crashes sometimes arm
// TFCommit's cohort-driven termination. Adds the recovery oracles
// (bit-identical rejoin, no lost committed writes, vote-once).
// --spec forces speculative voting on for every TFCommit scenario (depth
// 2..8). Without it speculation is still drawn organically by ~half the
// TFCommit seeds (depth 1..8, plus an abort-heavy scripted stream that
// forces mis-speculated bases); composable with --crash and --pipeline.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/schedule_fuzz.hpp"

int main(int argc, char** argv) {
  std::uint64_t seeds = 1000;
  std::uint64_t base = 1;
  bool keep_going = false;
  fides::sim::FuzzOptions options;

  if (const char* env = std::getenv("FIDES_SIM_SEEDS")) {
    seeds = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("FIDES_SIM_SEED")) {
    base = std::strtoull(env, nullptr, 10);
    seeds = 1;
  }
  if (const char* env = std::getenv("FIDES_CRASH")) {
    options.with_crash = std::strcmp(env, "0") != 0;
  }
  if (const char* env = std::getenv("FIDES_SPEC")) {
    options.force_speculation = std::strcmp(env, "0") != 0;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--base-seed") == 0 && i + 1 < argc) {
      base = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--keep-going") == 0) {
      keep_going = true;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      options.force_pipeline = true;
    } else if (std::strcmp(argv[i], "--crash") == 0) {
      options.with_crash = true;
    } else if (std::strcmp(argv[i], "--spec") == 0) {
      options.force_speculation = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds N] [--base-seed B] [--keep-going] [--pipeline] "
                   "[--crash] [--spec]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("fides_simfuzz: %" PRIu64 " schedules, seeds [%" PRIu64 ", %" PRIu64
              ")\n",
              seeds, base, base + seeds);

  std::uint64_t failures = 0;
  std::uint64_t byzantine = 0;
  std::uint64_t detected = 0;
  std::uint64_t crashed = 0;
  std::uint64_t terminated = 0;
  std::uint64_t speculative = 0;
  std::uint64_t revotes = 0;
  for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
    const fides::sim::FuzzOutcome out = fides::sim::run_schedule(seed, options);
    byzantine += out.byzantine ? 1 : 0;
    detected += out.detected ? 1 : 0;
    crashed += out.crashed ? 1 : 0;
    terminated += out.terminated ? 1 : 0;
    speculative += out.speculative ? 1 : 0;
    revotes += out.spec_revotes;
    if (!out.ok) {
      ++failures;
      std::printf("FAIL seed=%" PRIu64 "\n  scenario: %s\n  invariant: %s\n"
                  "  trace-hash: %s\n  reproduce: %s --base-seed %" PRIu64
                  " --seeds 1%s%s%s\n",
                  seed, out.scenario.c_str(), out.failure.c_str(),
                  out.trace_hash.hex().c_str(), argv[0], seed,
                  options.force_pipeline ? " --pipeline" : "",
                  options.with_crash ? " --crash" : "",
                  options.force_speculation ? " --spec" : "");
      if (!keep_going) return 1;
    }
    if ((seed - base + 1) % 100 == 0) {
      std::printf("  ... %" PRIu64 "/%" PRIu64 " schedules, %" PRIu64
                  " byzantine, %" PRIu64 " detected, %" PRIu64 " failures\n",
                  seed - base + 1, seeds, byzantine, detected, failures);
    }
  }

  std::printf("done: %" PRIu64 " schedules, %" PRIu64 " byzantine (%" PRIu64
              " detected), %" PRIu64 " crash cycles (%" PRIu64
              " cohort-terminated), %" PRIu64 " speculative (%" PRIu64
              " re-votes), %" PRIu64 " failures\n",
              seeds, byzantine, detected, crashed, terminated, speculative, revotes,
              failures);
  return failures == 0 ? 0 : 1;
}
