#include "support.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "graph/graph_io.h"

extern char** environ;

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

// --- Outcome ---------------------------------------------------------------

void Outcome::Add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Outcome::Fail(const std::string& why) {
  correct_ = false;
  std::printf("FAIL %s\n", why.c_str());
  std::fflush(stdout);
}

void Outcome::Guard(const std::string& name, double value, bool held) {
  std::printf("guard %s = %.6g %s\n", name.c_str(), value, held ? "ok" : "VIOLATED");
  if (!held) Fail("guard " + name + " violated");
}

std::string Outcome::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- Tracer ----------------------------------------------------------------

int Tracer::Begin(const char* name, uint64_t op, int parent) {
  spans_.push_back({name, NowNanos(), 0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNanos(); }

std::vector<double> Tracer::SelfTimesNs() const {
  // Children of one parent run one after another inside it, so the part of
  // the parent they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesByName() const {
  const std::vector<double> self = SelfTimesNs();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name].push_back(self[i]);
  return out;
}

std::map<std::string, std::vector<double>> Tracer::DurationsByName() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- Inputs ----------------------------------------------------------------

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string EnsureSnapshot(const Options& options, vulnds::DatasetId id) {
  const std::string dir = options.work_dir + "/graphs-" + options.source_digest;
  const std::string path = dir + "/" + vulnds::DatasetName(id) + ".snap";
  if (std::filesystem::exists(path)) return path;
  if (!MakeDirs(dir)) return "";
  vulnds::Result<vulnds::UncertainGraph> graph =
      vulnds::MakeDataset(id, 1.0, kDatasetSeed);
  if (!graph.ok()) return "";
  if (!vulnds::WriteGraphFile(*graph, path, vulnds::GraphFileFormat::kBinary).ok()) {
    return "";
  }
  return path;
}

// --- ServerProcess ---------------------------------------------------------

namespace {

// Reads one '\n'-terminated line from `fd` within `timeout_ms`.
bool ReadLineFromFd(int fd, std::string* line, int timeout_ms) {
  line->clear();
  const double deadline = NowSeconds() + timeout_ms / 1000.0;
  char c = 0;
  while (true) {
    const int left = static_cast<int>((deadline - NowSeconds()) * 1000.0);
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, left);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t got = ::read(fd, &c, 1);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

}  // namespace

bool ServerProcess::Start(const std::string& cli, const std::vector<std::string>& args,
                          const std::string& log_path) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  std::vector<std::string> argv_storage = {cli, "serve", "tcp=0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, cli.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  if (rc != 0) {
    ::close(out_pipe[0]);
    return false;
  }
  pid_ = pid;
  stdout_fd_ = out_pipe[0];
  std::string line;
  if (!ReadLineFromFd(out_pipe[0], &line, 30'000)) {
    Stop();
    return false;
  }
  const std::size_t colon = line.rfind(':');
  if (line.rfind("listening tcp=", 0) != 0 || colon == std::string::npos) {
    Stop();
    return false;
  }
  port_ = std::atoi(line.c_str() + colon + 1);
  return port_ > 0;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 1000 && !reaped; ++i) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  port_ = -1;
}

// --- LineClient ------------------------------------------------------------

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  pos_ = 0;
}

bool LineClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool LineClient::ReadLine(std::string* line) {
  while (true) {
    const std::size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
      }
      return true;
    }
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[16384];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool LineClient::Request(const std::string& line, std::string* response) {
  if (fd_ < 0) return false;
  const std::string wire = line + "\n";
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  std::string first;
  if (!ReadLine(&first)) return false;
  response->assign(first);
  response->push_back('\n');
  static const char* const kBlockHeads[] = {"ok detect ", "ok truth ", "ok stats",
                                            "ok metrics", "ok catalog", "ok versions "};
  bool block = false;
  for (const char* head : kBlockHeads) {
    if (first.rfind(head, 0) == 0) block = true;
  }
  if (!block) return true;
  std::string row;
  while (true) {
    if (!ReadLine(&row)) return false;
    response->append(row);
    response->push_back('\n');
    if (row == ".") return true;
  }
}

// --- Scrapes ---------------------------------------------------------------

std::map<std::string, double> ParseStats(const std::string& block) {
  std::map<std::string, double> out;
  std::istringstream lines(block);
  std::string line;
  while (std::getline(lines, line)) {
    std::string prefix;
    if (line.rfind("serve ", 0) == 0) prefix = "serve.";
    if (line.rfind("server ", 0) == 0) prefix = "server.";
    if (line.rfind("shard ", 0) == 0 || line.rfind("ok ", 0) == 0) continue;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) continue;
      char* end = nullptr;
      const std::string value = token.substr(eq + 1);
      const double v = std::strtod(value.c_str(), &end);
      if (end != value.c_str()) out[prefix + token.substr(0, eq)] = v;
    }
  }
  return out;
}

namespace {

// Family totals of a `metrics` exposition (labels summed away; histogram
// series keep their _sum/_count suffixes).
std::map<std::string, double> ParseMetrics(const std::string& block) {
  std::map<std::string, double> out;
  std::istringstream lines(block);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("ok ", 0) == 0 || line == ".") {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string series = line.substr(0, space);
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos) {
      // Histogram buckets are cumulative per label set; summing them is
      // meaningless, so only _sum/_count and plain series are kept.
      if (series.find("le=\"") != std::string::npos) continue;
      series = series.substr(0, brace);
    }
    out[series] += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

}  // namespace

bool Scrape(LineClient& client, std::map<std::string, double>* out) {
  std::string stats;
  std::string metrics;
  if (!client.Request("stats", &stats) || stats.rfind("ok stats", 0) != 0) return false;
  if (!client.Request("metrics", &metrics) || metrics.rfind("ok metrics", 0) != 0) {
    return false;
  }
  *out = ParseStats(stats);
  for (const auto& [key, value] : ParseMetrics(metrics)) (*out)["metrics." + key] = value;
  return true;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

double HeaderValue(const std::string& response, const std::string& key) {
  const std::string head = " " + response.substr(0, response.find('\n'));
  const std::size_t at = head.find(" " + key + "=");
  if (at == std::string::npos) return -1.0;
  return std::strtod(head.c_str() + at + key.size() + 2, nullptr);
}

std::string RankingRows(const std::string& response) {
  const std::size_t nl = response.find('\n');
  return nl == std::string::npos ? std::string() : response.substr(nl + 1);
}

std::size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

bool PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return !cpus.empty() && sched_setaffinity(0, sizeof(set), &set) == 0;
}

double PeakRssMb(pid_t pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

void PrintProvenance(const Options& options, const std::string& simd_tier) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"simd_tier\": \"%s\", \"build_type\": \"%s\", \"source\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, AvailableCpus(),
      std::thread::hardware_concurrency(), simd_tier.c_str(), PERFBENCH_BUILD_TYPE,
      options.source_digest.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
