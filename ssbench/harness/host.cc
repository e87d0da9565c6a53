#include "harness/host.h"

#include <fcntl.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/stats.h"
#include "harness/tracing.h"
#include "src/sketch/kernels.h"

#ifndef SSBENCH_BUILD_TYPE
#define SSBENCH_BUILD_TYPE "unknown"
#endif

namespace ssbench {

HostFingerprint Fingerprint() {
  HostFingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      fp.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  if (uname(&uts) == 0) {
    fp.kernel = std::string(uts.sysname) + " " + uts.release;
  }
  fp.build_type = SSBENCH_BUILD_TYPE;
  fp.sketch_kernel = ss::kernels::ImplName(ss::kernels::ActiveImpl());
  return fp;
}

double CpuReferenceMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t start = NowNanos();
    uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
    }
    // Keep the loop's result observable so it is not folded away.
    volatile uint64_t sink = x;
    (void)sink;
    ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  }
  return Median(ms);
}

double FsyncReferenceMs(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return 0.0;
  }
  std::vector<char> block(4096, 'x');
  std::vector<double> ms;
  for (int rep = 0; rep < 8; ++rep) {
    uint64_t start = NowNanos();
    if (::write(fd, block.data(), block.size()) != static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      break;
    }
    ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Median(ms);
}

double WakeupLatenessP99Ms() {
  constexpr int kThreads = 2;
  constexpr uint64_t kPeriodNs = 1'250'000;
  constexpr uint64_t kSpanNs = 1'000'000'000;
  std::vector<std::vector<double>> late(kThreads);
  const uint64_t start = NowNanos() + kPeriodNs;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t due = start + t * kPeriodNs / kThreads; due < start + kSpanNs;
           due += kPeriodNs) {
        uint64_t now = NowNanos();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        late[t].push_back(static_cast<double>(NowNanos() - due) / 1e6);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<double> all;
  for (const auto& v : late) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return Quantile(all, 0.99);
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) {
    return t;
  }
  std::istringstream fields(line.substr(4));
  uint64_t v = 0;
  for (int i = 0; fields >> v; ++i) {
    if (i < 8) {  // user nice system idle iowait irq softirq steal (guest is in user)
      t.total += v;
    }
    if (i == 7) {
      t.steal = v;
    }
  }
  return t;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

namespace {
double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double ProcessCpuSeconds() { return CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace ssbench
