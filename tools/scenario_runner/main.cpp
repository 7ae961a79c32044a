// scenario_runner — run named scenarios from the library against either
// execution backend.
//
//   scenario_runner --list                 enumerate scenarios
//   scenario_runner --run NAME [--run NAME2 ...] [--seed N]
//   scenario_runner --all [--seed N]       run every scenario
//   scenario_runner --spec FILE            run a spec_io file (the fuzzer's
//                                          counterexample format)
//   scenario_runner --adversary            force worst-case delivery
//                                          scheduling on the selected specs
//   scenario_runner --trace K              also dump the first K trace events
//
// Backend selection:
//   --backend sim            deterministic in-process simulator (default)
//   --backend process        one real ssr_node OS process per node over
//                            localhost UDP; requires --node-bin
//   --node-bin PATH          path to the ssr_node binary
//   --time-scale X           wall seconds per simulated second (default .05)
//   --work-dir DIR           scratch/log directory (default: mkdtemp)
//   --keep-logs              keep the scratch directory even on success
//
// Trace tooling (simulator backend, single --run):
//   --record FILE            save the trace event stream + hash to FILE
//   --diff FILE              re-run and report the first event where the
//                            current trace diverges from the recorded one
//
// Parallel sweeps (simulator backend):
//   --sweep                  run the selected scenarios as a (spec, seed)
//                            job matrix on a worker pool; results print in
//                            submission order and are byte-identical to a
//                            serial run at any --jobs
//   --jobs N                 worker threads (default 1)
//   --seeds A..B             inclusive seed range (default: --seed alone)
//   --record-dir DIR         save one trace file per job into DIR
//
// Exit status: 0 when every run met its awaits with zero invariant
// violations (and, under --diff, the traces match), 1 otherwise (2 on
// usage errors).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "scenario/library.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/sweep.hpp"
#ifdef __unix__
#include "scenario/process_runner.hpp"
#endif

namespace {

using namespace ssr;
using namespace ssr::scenario;

struct CliOptions {
  bool list = false;
  bool all = false;
  std::vector<std::string> names;
  std::vector<std::string> spec_files;
  bool adversary = false;
  std::uint64_t seed = 1;
  std::size_t trace_lines = 0;
  std::string backend = "sim";
  std::string node_bin;
  double time_scale = 0.05;
  std::string work_dir;
  bool keep_logs = false;
  std::string record_path;
  std::string diff_path;
  bool sweep = false;
  std::size_t jobs = 1;
  std::uint64_t seed_first = 0;
  std::uint64_t seed_last = 0;
  bool seeds_set = false;
  std::string record_dir;
};

void list_scenarios() {
  for (const auto& s : library()) {
    std::printf("%-26s %zu nodes%s  %s\n", s.name.c_str(), s.initial_nodes,
                s.enable_vs ? " +vs" : "    ", s.description.c_str());
  }
}

std::unique_ptr<ScenarioBackend> make_backend(const ScenarioSpec& spec,
                                              const CliOptions& cli) {
  if (cli.backend == "process") {
#ifdef __unix__
    ProcessBackendOptions opt;
    opt.node_binary = cli.node_bin;
    // One subdirectory per scenario so multi-run invocations don't clobber
    // each other's peer maps and logs.
    opt.work_dir =
        cli.work_dir.empty() ? "" : cli.work_dir + "/" + spec.name;
    opt.keep_dir = cli.keep_logs;
    opt.time_scale = cli.time_scale;
    opt.seed = cli.seed;
    return std::make_unique<ProcessRunner>(spec, std::move(opt));
#else
    return nullptr;
#endif
  }
  return std::make_unique<ScenarioRunner>(spec, cli.seed);
}

/// Runs one spec; prints the summary (and, under the process backend, where
/// the logs live when the run failed).
bool run_one(const ScenarioSpec& spec, const CliOptions& cli) {
  auto backend = make_backend(spec, cli);
  if (!backend) {
    std::fprintf(stderr, "backend '%s' is not available on this platform\n",
                 cli.backend.c_str());
    return false;
  }
  const ScenarioResult r = backend->run();
  std::printf("%s\n", r.summary().c_str());
  if (cli.trace_lines > 0) {
    std::printf("%s", backend->trace().dump(cli.trace_lines).c_str());
  }
#ifdef __unix__
  if (!r.ok && cli.backend == "process") {
    auto* pr = dynamic_cast<ProcessRunner*>(backend.get());
    if (pr != nullptr) {
      std::printf("  logs kept in %s\n", pr->work_dir().c_str());
    }
  }
#endif

  bool ok = r.ok;
  if (!cli.record_path.empty()) {
    std::ofstream out(cli.record_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", cli.record_path.c_str());
      return false;
    }
    backend->trace().save(out);
    std::printf("recorded %zu events to %s\n", r.trace_events,
                cli.record_path.c_str());
  }
  if (!cli.diff_path.empty()) {
    std::ifstream in(cli.diff_path);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", cli.diff_path.c_str());
      return false;
    }
    auto golden = TraceRecorder::load(in);
    if (!golden) {
      std::fprintf(stderr, "'%s' is not a recorded trace\n",
                   cli.diff_path.c_str());
      return false;
    }
    const TraceRecorder& current = backend->trace();
    const std::size_t n = std::min(golden->size(), current.size());
    std::size_t at = n;
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& g = (*golden)[i];
      const TraceEvent& c = current[i];
      if (g.when != c.when || g.node != c.node || g.kind != c.kind ||
          g.a != c.a || g.b != c.b) {
        at = i;
        break;
      }
    }
    if (at == n && golden->size() == current.size()) {
      std::printf("traces identical (%zu events)\n", current.size());
    } else if (at == n) {
      std::printf("traces diverge at event %zu: one stream ends "
                  "(recorded %zu events, current %zu)\n",
                  n, golden->size(), current.size());
      ok = false;
    } else {
      std::printf("traces diverge at event %zu:\n  recorded: %s\n"
                  "  current:  %s\n",
                  at, TraceRecorder::format_event((*golden)[at]).c_str(),
                  TraceRecorder::format_event(current[at]).c_str());
      ok = false;
    }
  }
  return ok;
}

///// --sweep mode: the selected scenarios × the seed range as one job matrix
/// on a SweepRunner worker pool. Output is in submission order — identical
/// text at --jobs=1 and --jobs=N (the CI equivalence check diffs the two).
bool run_sweep_mode(const std::vector<ScenarioSpec>& specs,
                    const CliOptions& cli) {
  SweepOptions opt;
  opt.jobs = cli.jobs;
  opt.record_dir = cli.record_dir;
  SweepRunner runner(opt);
  const std::uint64_t first = cli.seeds_set ? cli.seed_first : cli.seed;
  const std::uint64_t last = cli.seeds_set ? cli.seed_last : cli.seed;
  for (const ScenarioSpec& spec : specs) {
    runner.add_seed_range(spec, first, last);
  }
  SweepSummary s = runner.run();
  for (const ScenarioResult& r : s.results) {
    std::printf("%s\n", r.summary().c_str());
  }
  std::printf("%s, jobs=%zu\n", s.summary().c_str(), cli.jobs);
  return s.ok;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: scenario_runner --list\n"
      "       scenario_runner (--run NAME | --spec FILE)... | --all"
      "  [options]\n"
      "options:\n"
      "  --spec FILE       run a spec_io scenario file (the format fuzz\n"
      "                    counterexamples are saved in)\n"
      "  --adversary       force worst-case delivery scheduling on every\n"
      "                    selected spec (sim backend)\n"
      "  --seed N          runner seed (default 1)\n"
      "  --trace K         dump the first K trace events\n"
      "  --backend B       sim (default) | process\n"
      "  --node-bin PATH   ssr_node binary (process backend)\n"
      "  --time-scale X    wall seconds per sim second (process backend)\n"
      "  --work-dir DIR    scratch/log dir (process backend)\n"
      "  --keep-logs       keep the scratch dir on success too\n"
      "  --record FILE     save the trace stream (single --run)\n"
      "  --diff FILE       compare against a recorded trace (likewise)\n"
      "  --sweep           run scenarios x seeds on a worker pool (sim)\n"
      "  --jobs N          sweep worker threads (default 1)\n"
      "  --seeds A..B      inclusive sweep seed range (default: --seed)\n"
      "  --record-dir DIR  save one trace file per sweep job into DIR\n");
  return 2;
}

/// Parses "A..B" (inclusive) or a single "A" into [first, last].
bool parse_seed_range(const std::string& s, std::uint64_t& first,
                      std::uint64_t& last) {
  const auto dots = s.find("..");
  if (dots == std::string::npos) {
    char* end = nullptr;
    first = last = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && !s.empty();
  }
  const std::string a = s.substr(0, dots);
  const std::string b = s.substr(dots + 2);
  if (a.empty() || b.empty()) return false;
  char* end_a = nullptr;
  char* end_b = nullptr;
  first = std::strtoull(a.c_str(), &end_a, 10);
  last = std::strtoull(b.c_str(), &end_b, 10);
  return *end_a == '\0' && *end_b == '\0' && first <= last;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  // Accept both "--flag value" and "--flag=value".
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  const int nargs = static_cast<int>(args.size());
  for (int i = 0; i < nargs; ++i) {
    const std::string& arg = args[i];
    if (arg == "--list") {
      cli.list = true;
    } else if (arg == "--all") {
      cli.all = true;
    } else if (arg == "--run" && i + 1 < nargs) {
      cli.names.push_back(args[++i]);
    } else if (arg == "--spec" && i + 1 < nargs) {
      cli.spec_files.push_back(args[++i]);
    } else if (arg == "--adversary") {
      cli.adversary = true;
    } else if (arg == "--seed" && i + 1 < nargs) {
      cli.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (arg == "--trace" && i + 1 < nargs) {
      cli.trace_lines = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (arg == "--backend" && i + 1 < nargs) {
      cli.backend = args[++i];
    } else if (arg == "--node-bin" && i + 1 < nargs) {
      cli.node_bin = args[++i];
    } else if (arg == "--time-scale" && i + 1 < nargs) {
      cli.time_scale = std::strtod(args[++i].c_str(), nullptr);
    } else if (arg == "--work-dir" && i + 1 < nargs) {
      cli.work_dir = args[++i];
    } else if (arg == "--keep-logs") {
      cli.keep_logs = true;
    } else if (arg == "--record" && i + 1 < nargs) {
      cli.record_path = args[++i];
    } else if (arg == "--diff" && i + 1 < nargs) {
      cli.diff_path = args[++i];
    } else if (arg == "--sweep") {
      cli.sweep = true;
    } else if (arg == "--jobs" && i + 1 < nargs) {
      cli.jobs = std::strtoull(args[++i].c_str(), nullptr, 10);
      if (cli.jobs == 0) cli.jobs = 1;
    } else if (arg == "--seeds" && i + 1 < nargs) {
      if (!parse_seed_range(args[++i], cli.seed_first, cli.seed_last)) {
        std::fprintf(stderr, "--seeds wants A..B (inclusive) or a single "
                             "seed, got '%s'\n", args[i].c_str());
        return 2;
      }
      cli.seeds_set = true;
    } else if (arg == "--record-dir" && i + 1 < nargs) {
      cli.record_dir = args[++i];
    } else {
      return usage();
    }
  }

  if (cli.backend != "sim" && cli.backend != "process") {
    std::fprintf(stderr, "unknown backend '%s'\n", cli.backend.c_str());
    return 2;
  }
  if (cli.backend == "process" && cli.node_bin.empty()) {
    std::fprintf(stderr, "--backend process requires --node-bin\n");
    return 2;
  }
  if ((!cli.record_path.empty() || !cli.diff_path.empty()) &&
      (cli.all || cli.names.size() + cli.spec_files.size() != 1)) {
    std::fprintf(stderr, "--record/--diff need exactly one --run/--spec\n");
    return 2;
  }
  if (cli.adversary && cli.backend != "sim") {
    // The worst-case delivery scheduler lives inside the simulated fabric;
    // real UDP offers no delivery-order hook.
    std::fprintf(stderr, "--adversary works on the sim backend only\n");
    return 2;
  }
  if ((!cli.record_path.empty() || !cli.diff_path.empty()) &&
      cli.backend != "sim") {
    // Process-backend timestamps are wall clock; a diff would always
    // diverge at event 0.
    std::fprintf(stderr,
                 "--record/--diff work on the deterministic sim backend\n");
    return 2;
  }
  if (cli.sweep) {
    if (cli.backend != "sim") {
      // The sweep's determinism contract (and its one-world-per-thread
      // isolation) is a simulator property; process fleets contend for
      // real OS resources.
      std::fprintf(stderr, "--sweep runs on the sim backend only\n");
      return 2;
    }
    if (!cli.record_path.empty() || !cli.diff_path.empty() ||
        cli.trace_lines > 0) {
      std::fprintf(stderr,
                   "--sweep does not combine with --record/--diff/--trace "
                   "(use --record-dir for per-job traces)\n");
      return 2;
    }
    if (!cli.all && cli.names.empty() && cli.spec_files.empty()) {
      std::fprintf(stderr,
                   "--sweep wants --all or at least one --run/--spec\n");
      return 2;
    }
  } else if (cli.jobs > 1 || cli.seeds_set || !cli.record_dir.empty()) {
    std::fprintf(stderr,
                 "--jobs/--seeds/--record-dir only apply to --sweep\n");
    return 2;
  }

  if (cli.list) {
    list_scenarios();
    return 0;
  }
  if (!cli.all && cli.names.empty() && cli.spec_files.empty()) {
    return usage();
  }
  std::vector<ScenarioSpec> specs;
  if (cli.all) {
    specs = library();
  } else {
    for (const std::string& name : cli.names) {
      auto spec = find_scenario(name);
      if (!spec) {
        std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
      specs.push_back(*spec);
    }
    for (const std::string& path : cli.spec_files) {
      auto spec = load_spec_file(path);
      if (!spec) {
        std::fprintf(stderr, "cannot load spec file '%s'\n", path.c_str());
        return 2;
      }
      specs.push_back(*spec);
    }
  }
  if (cli.adversary) {
    for (ScenarioSpec& spec : specs) spec.adversarial = true;
  }
  if (cli.sweep) return run_sweep_mode(specs, cli) ? 0 : 1;
  bool ok = true;
  for (const ScenarioSpec& spec : specs) ok = run_one(spec, cli) && ok;
  return ok ? 0 : 1;
}
