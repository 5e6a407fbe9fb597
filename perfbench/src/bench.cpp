#include "bench.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

// Keeps the reference computation's result alive.
volatile std::uint64_t reference_sink = 0;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::size_t kind_index(std::string_view kind) {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (kind == kKinds[i]) return i;
  }
  return kKindCount;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const auto table = [] {
    std::vector<std::pair<std::string, std::string>> t = {
        {"topo.build_s", "s"},         {"harness.build_s", "s"},
        {"core.start_s", "s"},         {"transport.bind_s", "s"},
        {"sim.events", "count"},       {"sim.step_s", "s"},
        {"sim.ns_per_event", "ns"},    {"sim.warmup_s", "s"},
        {"sim.stream_s", "s"},         {"sim.pending_peak", "count"},
        {"trace.observer_calls", "count"}, {"trace.observer_s", "s"},
    };
    for (const char* k : kKinds) {
      t.emplace_back(std::string("net.sends.") + k, "count");
    }
    t.emplace_back("net.link_transmits", "count");
    for (const char* r : {"link_down", "random_loss", "no_route",
                          "ttl_exceeded", "queue_overflow"}) {
      t.emplace_back(std::string("net.drops.") + r, "count");
    }
    t.insert(t.end(), {{"net.queue_wait_max_s", "s"},
                       {"transport.datagrams", "count"},
                       {"transport.frames_per_datagram", "ratio"},
                       {"transport.send_s", "s"},
                       {"transport.codec_s", "s"},
                       {"transport.sys_cpu_s", "s"},
                       {"transport.errors", "count"},
                       {"transport.impair_drops", "count"}});
    for (const char* k : kKinds) {
      t.emplace_back(std::string("core.upcalls.") + k, "count");
    }
    for (const char* k : kKinds) {
      t.emplace_back(std::string("core.handle_s.") + k, "s");
    }
    t.insert(t.end(), {{"core.timers_fired", "count"},
                       {"core.timer_s", "s"},
                       {"core.duplicate_ratio", "ratio"},
                       {"core.attaches_completed", "count"},
                       {"core.attach_timeouts", "count"},
                       {"core.gapfills_sent", "count"},
                       {"core.auth_rejects", "count"},
                       {"core.decode_errors", "count"},
                       {"util.info_intervals_max", "count"},
                       {"loadgen.late_max_ms", "ms"}});
    for (const char* layer : {"topo", "harness", "sim", "trace", "transport",
                              "core", "loadgen"}) {
      t.emplace_back(std::string(layer) + ".self_s", "s");
    }
    t.insert(t.end(), {{"trace.accounted_cpu_frac", "ratio"},
                       {"intercluster_data_per_msg", "count"},
                       {"undelivered_frac", "ratio"}});
    return t;
  }();
  return table;
}

RunResult::RunResult() {
  for (const auto& [name, unit] : layer_metric_units()) layer[name] = 0;
}

void RunResult::set_layer(const std::string& name, double v) {
  const auto it = layer.find(name);
  if (it == layer.end()) {
    throw std::logic_error("per-layer metric not in the table: " + name);
  }
  it->second = v;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  const rusage ru = self_usage();
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double sys_cpu_seconds() { return timeval_s(self_usage().ru_stime); }

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: the latter keeps the high-water mark of the
  // process image exec() replaced, so a child of a large parent would
  // report the parent's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double reference_seconds() {
  const double t0 = cpu_seconds();
  std::uint64_t state = 0x7265666572656e63ULL;
  std::uint64_t sum = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> queue;
  std::map<std::uint64_t, std::string> table;
  for (std::uint64_t i = 0; i < 55'000; ++i) {
    queue.emplace_back(splitmix64(state) % 1'000'000, i);
    std::push_heap(queue.begin(), queue.end(), std::greater<>());
    if (queue.size() > 20'000) {
      std::pop_heap(queue.begin(), queue.end(), std::greater<>());
      sum += queue.back().first;
      queue.pop_back();
    }
    const std::uint64_t key = splitmix64(state) % 30'000;
    const auto it = table.find(key);
    if (it == table.end()) {
      table.emplace(key, std::string(40 + key % 50, 'r'));
    } else {
      sum += it->second.size();
      table.erase(it);
    }
  }
  reference_sink = sum;
  return cpu_seconds() - t0;
}

// The passes run in a child process, so the reference's memory never
// counts in this process's peak RSS nor its CPU in this process's usage.
double host_time_scale() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::vector<double> passes;
    for (int i = 0; i < 3; ++i) passes.push_back(reference_seconds());
    const double m = median(passes);
    const bool sent = ::write(fds[1], &m, sizeof m) == sizeof m;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double m = 0;
  ssize_t n = 0;
  do {
    n = ::read(fds[0], &m, sizeof m);
  } while (n < 0 && errno == EINTR);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (n != static_cast<ssize_t>(sizeof m) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || m <= 0) {
    throw std::runtime_error("host speed reference did not finish");
  }
  return kNominalReferenceS / m;
}

ScaleSampler::ScaleSampler() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    for (;;) {  // until finish() sends SIGTERM
      const double t = reference_seconds();
      if (::write(fds[1], &t, sizeof t) != sizeof t) ::_exit(1);
      ::usleep(200'000);
    }
  }
  ::close(fds[1]);
  pid_ = pid;
  fd_ = fds[0];
}

ScaleSampler::~ScaleSampler() {
  if (pid_ < 0) return;
  try {
    finish();
  } catch (const std::exception&) {
    // The child is reaped either way; only the scale is lost.
  }
}

double ScaleSampler::finish() {
  ::kill(pid_, SIGTERM);
  std::vector<double> passes;
  for (;;) {
    double t = 0;
    const ssize_t n = ::read(fd_, &t, sizeof t);
    if (n == static_cast<ssize_t>(sizeof t)) {
      passes.push_back(t);
    } else if (n == 0 || errno != EINTR) {
      break;  // EOF: the child has ended
    }
  }
  ::close(fd_);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  fd_ = -1;
  if (passes.empty()) {
    throw std::runtime_error("host speed sampler timed no pass");
  }
  return kNominalReferenceS / median(passes);
}

std::string body_for(std::uint64_t seed, std::uint64_t seq,
                     std::size_t bytes) {
  std::uint64_t state = seed * 0x100000001b3ULL ^ seq;
  std::string body(bytes, '\0');
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t word = splitmix64(state);
    for (std::size_t b = 0; b < 8 && i + b < bytes; ++b) {
      body[i + b] = static_cast<char>((word >> (8 * b)) & 0xff);
    }
  }
  return body;
}

std::vector<double> arrival_offsets(std::uint64_t seed, std::size_t n,
                                    double rate) {
  std::uint64_t state = seed ^ 0x61727269766c6573ULL;
  const double phase =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;  // [0, 1)
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = (static_cast<double>(k) + phase) / rate;
  }
  return out;
}

void Digest::add(std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (word >> (8 * b)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t msg,
                     bool store)
    : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(name, msg, store);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::open(const char* name, std::uint64_t msg, bool store) {
  const std::int64_t start = now_ns();
  std::int64_t stored = -1;
  if (store && spans_.size() < kMaxStored) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    stored = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, start, 0, parent, msg});
  }
  stack_.push_back({name, start, stored, 0.0});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open top = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(end - top.start_ns) / 1e9;
  if (top.stored >= 0) spans_[static_cast<std::size_t>(top.stored)].end_ns = end;
  Totals& t = totals_[top.name];
  ++t.count;
  t.total_s += dur;
  t.child_s += top.child_s;
  if (stack_.empty()) {
    root_s_ += dur;
  } else {
    stack_.back().child_s += dur;
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> out;
  for (const auto& [name, t] : totals_) {
    Totals& o = out[name];
    o.count += t.count;
    o.total_s += t.total_s;
    o.child_s += t.child_s;
  }
  return out;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, t] : totals()) {
    out[name.substr(0, name.find('.'))] += t.self_s();
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"msg\":" << s.msg << "}\n";
  }
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace perfbench
