// Shared pieces of the rbcast benchmark: run options, the result record
// every workload fills, process resource probes, the delivery digest, the
// deterministic message bodies and the in-memory span tracer.
//
// Spans are recorded only here, around the calls the benchmark makes into
// each layer of the program (topo, harness, sim, net, transport, core,
// util, trace); nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  // Multiplies the virtual stream + drain of the DES workloads; the
  // benchmark's own tests shrink it to force undelivered pairs.
  double horizon_scale{1.0};
  // DES: run one stream in this process instead of forked streams with
  // repeats — what the traced run does, and its untraced baseline.
  bool single{false};
  // Where the traced run writes its spans (empty: do not write).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::uint64_t samples{0};  // 0: not a sampled statistic
};

// Message kinds the protocol hands to the transport, and the network's
// drop reasons, in the order the per-layer metrics list them.
inline constexpr const char* kKinds[] = {"data",       "gapfill",
                                         "info",       "attach_req",
                                         "attach_ack", "detach"};
inline constexpr std::size_t kKindCount = std::size(kKinds);
// Index of `kind` in kKinds, or kKindCount for anything else.
std::size_t kind_index(std::string_view kind);

// Every per-layer metric name with its unit. Each workload reports all of
// them, 0 where it skips a layer, so every run prints the same names.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

struct RunResult {
  bool correct{true};
  std::vector<std::string> errors;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  // End-to-end metrics listed in BENCHMARK.json.
  std::vector<Metric> e2e;
  // Per-layer values by name, preset to 0 for every layer_metric_units()
  // entry; set_layer() refuses names outside that table.
  std::map<std::string, double> layer;
  // Human-readable lines printed ahead of the JSON result (digest, sends).
  std::vector<std::string> info;

  RunResult();
  void fail(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  void add_e2e(std::string name, double v, std::string unit,
               std::uint64_t n = 0) {
    e2e.push_back({std::move(name), v, std::move(unit), n});
  }
  void set_layer(const std::string& name, double v);
};

RunResult run_des(const RunOptions& options);
RunResult run_udp(const RunOptions& options);

// --- process probes ---------------------------------------------------------

double wall_seconds();  // steady clock, arbitrary epoch
double cpu_seconds();   // user + sys of this process (getrusage)
double sys_cpu_seconds();
double peak_rss_mb();   // peak resident set of this process image

double median(std::vector<double> xs);

// --- host speed ---------------------------------------------------------------

// The host is shared, and its other tenants' load changes its speed: the
// same wan32_lossy_batched stream read 217-365 virtual s/s, and the same
// ten-seed set of runs spread by up to a third, with no change to the
// program. Host-time metrics (setup_s, sim_speed, cpu_us_per_delivery) are
// therefore scaled to a nominal host: each timed sample is multiplied by
// host_time_scale() taken just before it, or, for the UDP run, by the
// ScaleSampler that ran beside it.
//
// The reference is a fixed computation that uses nothing of the program: a
// binary-heap queue and an allocating ordered map, the DES's hot structures
// in miniature, so the host's load slows it as it slows the program. A
// change to the program moves the scaled metrics as it moves raw host time.
// One pass took 0.020-0.029 s of CPU on the 4-core container the bounds
// were set on; the scaled figures are those of a host where it takes
// kNominalReferenceS.
inline constexpr double kNominalReferenceS = 0.025;

// CPU seconds of one pass of the reference computation.
double reference_seconds();

// kNominalReferenceS over the median of three reference passes, run in a
// child process: the factor that scales host time measured next to it to
// the nominal host.
double host_time_scale();

// Times reference passes in a child process, one every 200 ms, while a
// phase runs that cannot stop for them (the UDP loop), and so measures the
// host's speed over the whole phase. finish() stops the child and returns
// the scale of the passes' median, as host_time_scale() does.
class ScaleSampler {
 public:
  ScaleSampler();
  ~ScaleSampler();
  ScaleSampler(const ScaleSampler&) = delete;
  ScaleSampler& operator=(const ScaleSampler&) = delete;

  double finish();

 private:
  int pid_{-1};
  int fd_{-1};
};

// --- message bodies and the delivery digest --------------------------------

// The body the source broadcasts as message `seq`: `bytes` bytes drawn
// from (seed, seq), so a relay that mixes up two messages is caught.
std::string body_for(std::uint64_t seed, std::uint64_t seq, std::size_t bytes);

// Open-loop arrival schedule: `n` due times, in seconds from the stream
// start, spaced exactly 1/rate apart after a phase in [0, 1/rate) drawn
// from `seed`.
std::vector<double> arrival_offsets(std::uint64_t seed, std::size_t n,
                                    double rate);

// FNV-1a over a stream of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

// --- tracing ----------------------------------------------------------------

// Records spans (name, start, end, parent, message id) in memory. Open spans
// form a stack, so a span opened while another is open is its child; a
// span's self time is its duration minus its children's. Spans of frequent
// boundaries can be aggregated without being stored.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count{0};
    double total_s{0};
    double child_s{0};
    [[nodiscard]] double self_s() const { return total_s - child_s; }
  };

  // Spans beyond this many are aggregated, not stored.
  static constexpr std::size_t kMaxStored = 250'000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t msg, bool store);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  // Opens a span closed at the end of the returned scope; a no-op when
  // tracing is off. `name` must outlive the tracer (a string literal).
  [[nodiscard]] Scope span(const char* name, std::uint64_t msg = 0,
                           bool store = true) {
    return Scope(enabled_ ? this : nullptr, name, msg, store);
  }

  // Totals per span name.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] double root_total_s() const { return root_s_; }

  // Self seconds summed per layer (the span name up to its first '.').
  [[nodiscard]] std::map<std::string, double> self_by_layer() const;

  // One JSON object per stored span; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into spans_, -1 for none or unstored
    std::uint64_t msg;
  };
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t stored;  // index into spans_, -1 when not stored
    double child_s;
  };

  void open(const char* name, std::uint64_t msg, bool store);
  void close();
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_{
      std::chrono::steady_clock::now()};
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  // Keyed by name pointer: names are string literals.
  std::unordered_map<const char*, Totals> totals_;
  double root_s_{0};
};

}  // namespace perfbench
