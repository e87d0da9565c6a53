// Host fingerprint and reference timings, so results from a shared or
// drifting machine can be told apart from a change in the program.
#ifndef SSBENCH_HARNESS_HOST_H_
#define SSBENCH_HARNESS_HOST_H_

#include <cstdint>
#include <string>

namespace ssbench {

struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string kernel;
  std::string build_type;
  std::string sketch_kernel;  // avx2 / scalar, as dispatched at start-up
};

HostFingerprint Fingerprint();

// Median wall time of a fixed integer workload (pure CPU).
double CpuReferenceMs();
// Median time to write and fsync 4 KiB in `dir`.
double FsyncReferenceMs(const std::string& dir);
// p99 of how late two otherwise idle threads wake from a timed sleep, one
// wake-up every 1.25 ms each for one second: the floor under any sub-10 ms
// tail latency measured on this host.
double WakeupLatenessP99Ms();

// Cumulative CPU jiffies from /proc/stat: steal and total.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
// Percentage of CPU time stolen by the hypervisor between two readings.
double StealPercent(const CpuTimes& before, const CpuTimes& after);

// CPU time, user and system, in seconds, that this process (all threads) or
// the calling thread has used so far. Time the hypervisor steals from the VM
// is not charged to either.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace ssbench

#endif  // SSBENCH_HARNESS_HOST_H_
