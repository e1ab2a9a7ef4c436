#include "common/failpoint.h"

#include <cerrno>
#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "common/env.h"

namespace vulnds::fail {

int InjectedErrno(Outcome outcome) {
  switch (outcome) {
    case Outcome::kNone:
      return 0;
    case Outcome::kEnospc:
      return ENOSPC;
    case Outcome::kEio:
    case Outcome::kShortWrite:
      return EIO;
  }
  return EIO;
}

const std::vector<std::string>& KnownPoints() {
  static const std::vector<std::string> kAll = {
      points::kJournalOpen,          points::kJournalAppendWrite,
      points::kJournalSyncFsync,     points::kJournalCompactWrite,
      points::kJournalCompactFsync,  points::kJournalCompactRename,
      points::kSnapshotWriteOpen,    points::kSnapshotWriteData,
      points::kSnapshotWriteFsync,   points::kSnapshotWriteRename,
      points::kSnapshotRead,         points::kSpillWrite,
      points::kSpillPageIn,          points::kNetSendWrite,
  };
  return kAll;
}

namespace {

enum class Policy { kOnce, kEvery, kAfter };

struct PointState {
  Policy policy = Policy::kOnce;
  std::uint64_t n = 1;  // period for kEvery, pass count for kAfter
  Outcome outcome = Outcome::kEio;
  std::uint64_t checks = 0;  // times Check reached this point while armed
  std::uint64_t hits = 0;    // times it fired
  bool disarmed = false;     // kOnce after firing: keeps hit count visible
  std::string spec;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, PointState> points;
};

Registry& TheRegistry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

bool ParseOutcome(const std::string& token, Outcome* out) {
  if (token == "eio") {
    *out = Outcome::kEio;
  } else if (token == "enospc") {
    *out = Outcome::kEnospc;
  } else if (token == "short") {
    *out = Outcome::kShortWrite;
  } else {
    return false;
  }
  return true;
}

bool ParseCount(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token.size() > 18) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// Parses "<policy>:<outcome>" into `state`; returns false on bad grammar.
bool ParseSpec(const std::string& spec, PointState* state) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      break;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
  if (parts.size() == 2 && parts[0] == "once") {
    state->policy = Policy::kOnce;
    state->n = 1;
  } else if (parts.size() == 3 && parts[0] == "every") {
    state->policy = Policy::kEvery;
    if (!ParseCount(parts[1], &state->n) || state->n == 0) return false;
  } else if (parts.size() == 3 && parts[0] == "after") {
    state->policy = Policy::kAfter;
    if (!ParseCount(parts[1], &state->n)) return false;
  } else {
    return false;
  }
  return ParseOutcome(parts.back(), &state->outcome);
}

}  // namespace

namespace detail {

std::atomic<int> g_armed_count{0};

Outcome CheckSlow(const char* point) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.points.find(point);
  if (it == reg.points.end() || it->second.disarmed) return Outcome::kNone;
  PointState& state = it->second;
  ++state.checks;
  bool fire = false;
  switch (state.policy) {
    case Policy::kOnce:
      fire = true;
      break;
    case Policy::kEvery:
      fire = state.checks % state.n == 0;
      break;
    case Policy::kAfter:
      fire = state.checks > state.n;
      break;
  }
  if (!fire) return Outcome::kNone;
  ++state.hits;
  if (state.policy == Policy::kOnce) {
    state.disarmed = true;
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  return state.outcome;
}

}  // namespace detail

Status Arm(const std::string& point, const std::string& spec) {
  if (point.empty() || point.find('=') != std::string::npos ||
      point.find(',') != std::string::npos) {
    return Status::InvalidArgument("bad failpoint name '" + point + "'");
  }
  PointState state;
  if (!ParseSpec(spec, &state)) {
    return Status::InvalidArgument("bad failpoint spec '" + spec + "' for '" +
                                   point +
                                   "' (want once:|every:N:|after:N: followed "
                                   "by eio|enospc|short)");
  }
  state.spec = spec;
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto [it, inserted] = reg.points.try_emplace(point);
  if (inserted || it->second.disarmed) {
    detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  it->second = std::move(state);
  return Status::OK();
}

void Disarm(const std::string& point) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.points.find(point);
  if (it == reg.points.end() || it->second.disarmed) return;
  it->second.disarmed = true;
  detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, state] : reg.points) {
    if (!state.disarmed) {
      detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  reg.points.clear();
}

std::uint64_t Hits(const std::string& point) {
  Registry& reg = TheRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.points.find(point);
  return it == reg.points.end() ? 0 : it->second.hits;
}

Status ArmFromEnv() {
  const std::string raw = GetEnvString("VULNDS_FAILPOINTS", "");
  if (raw.empty()) return Status::OK();
  std::size_t start = 0;
  while (start <= raw.size()) {
    std::size_t comma = raw.find(',', start);
    if (comma == std::string::npos) comma = raw.size();
    const std::string entry = raw.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return Status::InvalidArgument("bad VULNDS_FAILPOINTS entry '" + entry +
                                     "' (want point=spec)");
    }
    const Status armed = Arm(entry.substr(0, eq), entry.substr(eq + 1));
    if (!armed.ok()) return armed;
  }
  return Status::OK();
}

std::vector<std::string> ArmedPoints() {
  Registry& reg = TheRegistry();
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    out.reserve(reg.points.size());
    for (const auto& [name, state] : reg.points) {
      if (!state.disarmed) out.push_back(name + "=" + state.spec);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vulnds::fail
