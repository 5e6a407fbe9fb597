// rbcast_trace — offline analysis of JSONL run traces.
//
// Loads a trace written by `rbcast_sim --trace-out` (or any JsonlSink)
// and answers the questions an experimenter asks of a finished run:
// what happened overall, what one host did, how one broadcast message
// propagated, and how the tree converged. --compare diffs two traces of
// the same workload — canonically one simulated and one over real UDP
// sockets (rbcast_node) — on per-host delivery sets.
//
// Examples:
//   rbcast_sim --clusters 4 --messages 20 --trace-out run.jsonl
//   rbcast_trace --summary run.jsonl
//   rbcast_trace --timeline 3 run.jsonl
//   rbcast_trace --lineage 7 run.jsonl
//   rbcast_trace --convergence run.jsonl
//   rbcast_trace --compare sim.jsonl real.jsonl
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "trace/trace_reader.h"

using namespace rbcast;

namespace {

// One mode per run; --summary when none is given.
struct CliOptions {
  bool summary = false;
  std::optional<std::int32_t> timeline;  // host
  std::optional<std::uint64_t> lineage;  // broadcast seq
  bool convergence = false;
  bool compare = false;
  std::vector<std::string> paths;
};

// Loads one JSONL trace, exiting the process on unreadable/malformed input.
std::vector<trace::TraceRecord> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(2);
  }
  std::vector<trace::TraceRecord> records;
  std::string error;
  if (!trace::read_jsonl(in, &records, &error)) {
    std::cerr << path << ": " << error << "\n";
    std::exit(2);
  }
  if (records.empty()) {
    std::cerr << path << ": empty trace\n";
    std::exit(1);
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli::Flags flags("rbcast_trace", "analyze a JSONL run trace");
  flags.text("usage: rbcast_trace [mode] TRACE.jsonl\n"
             "       rbcast_trace --compare LEFT.jsonl RIGHT.jsonl\n\n");
  flags.positional("TRACE.jsonl", &cli.paths,
                   "the trace (two with --compare)", 2);
  flags.text("modes (default --summary):");
  flags.add("--summary", &cli.summary,
            "manifest, record counts, deliveries, drops");
  flags.add("--timeline", "HOST", &cli.timeline,
            "every record on host HOST's track, in order", {.min = 0});
  flags.add("--lineage", "SEQ", &cli.lineage,
            "the causal relay + gap-fill path of broadcast message SEQ "
            "across the network");
  flags.add("--convergence", &cli.convergence,
            "attachment / cycle-break timeline and when the tree last "
            "changed shape");
  flags.add("--compare", &cli.compare,
            "diff two traces of the same workload on per-host delivery sets "
            "(sim vs real divergence report); exits 1 when they diverge");
  flags.text(
      "\nTraces come from `rbcast_sim --trace-out F`, `rbcast_node "
      "--trace-out F`,\nor any trace::JsonlSink.\n");
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  const int modes = cli.summary + cli.timeline.has_value() +
                    cli.lineage.has_value() + cli.convergence + cli.compare;
  if (modes > 1) return flags.usage_error("give at most one mode");
  if (cli.compare && cli.paths.size() != 2) {
    return flags.usage_error("--compare needs two trace files");
  }
  if (!cli.compare && cli.paths.size() != 1) {
    return flags.usage_error(cli.paths.empty() ? "no trace file given"
                                               : "give one trace file");
  }

  const std::vector<trace::TraceRecord> records = load_trace(cli.paths[0]);
  if (cli.timeline) {
    const auto track = trace::timeline(records, *cli.timeline);
    if (track.empty()) {
      std::cerr << "no records for host " << *cli.timeline << "\n";
      return 1;
    }
    for (const auto& r : track) trace::print_record(std::cout, r);
  } else if (cli.lineage) {
    const auto steps = trace::lineage(records, *cli.lineage);
    if (steps.empty()) {
      std::cerr << "no records for seq " << *cli.lineage
                << " (trace ids require the paper or basic protocol)\n";
      return 1;
    }
    trace::print_lineage(std::cout, steps, *cli.lineage);
  } else if (cli.convergence) {
    trace::print_convergence(std::cout, records);
  } else if (cli.compare) {
    const std::vector<trace::TraceRecord> right = load_trace(cli.paths[1]);
    const trace::TraceComparison cmp = trace::compare_traces(records, right);
    trace::print_comparison(std::cout, cmp, cli.paths[0], cli.paths[1]);
    return cmp.match ? 0 : 1;
  } else {
    trace::print_summary(std::cout, records);
  }
  return 0;
}
