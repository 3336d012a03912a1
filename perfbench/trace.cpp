// Span recorder: in-memory complete events ("ph":"X"), written once as
// Chrome trace-event JSON when the run ends.  Off by default; a Span then
// costs one relaxed load.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Event {
  const char* name;
  double start;
  double dur;
  int tid;
};

std::atomic<bool> g_on{false};
std::mutex g_mutex;
std::vector<Event> g_events;  // guarded by g_mutex
std::unordered_map<std::thread::id, int> g_tids;  // guarded by g_mutex
double g_epoch = 0.0;

}  // namespace

void tracing_enable(bool on) {
  std::lock_guard lock(g_mutex);
  g_events.reserve(1 << 16);
  g_epoch = now_s();
  g_on.store(on, std::memory_order_relaxed);
}

bool tracing_on() { return g_on.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (tracing_on()) start_ = now_s();
}

Span::~Span() {
  if (!tracing_on()) return;
  const double end = now_s();
  std::lock_guard lock(g_mutex);
  const auto [it, fresh] =
      g_tids.try_emplace(std::this_thread::get_id(), static_cast<int>(g_tids.size()));
  g_events.push_back({name_, start_ - g_epoch, end - start_, it->second});
}

bool write_trace(const std::string& path) {
  std::lock_guard lock(g_mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < g_events.size(); ++i) {
    const Event& e = g_events[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d}%s\n",
                 e.name, e.start * 1e6, e.dur * 1e6, e.tid,
                 i + 1 < g_events.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
