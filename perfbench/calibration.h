#ifndef PIMENTO_PERFBENCH_CALIBRATION_H_
#define PIMENTO_PERFBENCH_CALIBRATION_H_

#include <cstdint>

namespace perfbench {

/// The fixed calibration kernel behind `bench.ref_ms`: kChurnSteps rounds
/// of freeing and reallocating one of kSlots small blocks (each slot always
/// the same size), then kMixSteps steps of a dependent integer hash chain.
/// It calls nothing in the engine, so no program change can move it;
/// interleaved with the requests, it measures how fast the machine is
/// running at that moment, and the `_ref` metrics divide request timings
/// by it.
///
/// Why this mix, from runs on a 4-vCPU VM while other processes loaded the
/// host: every workload allocates once per 100-150 ns of request time,
/// and Fig. 5 request latency (2.0-5.0 ms) tracked small-block churn
/// (ratio 0.47-0.61) far better than a 4 MiB pointer chase (0.14-0.22) or
/// pure arithmetic (0.20-0.43). Churn alone over-corrected, though: in the
/// noisiest sets it slowed 1.9x while requests slowed 1.45x, and the
/// arithmetic chain, which that load barely slowed, takes about a quarter
/// of the kernel to damp its response. Each slot's size has its own glibc
/// per-thread cache bin and is freed right before it is reallocated, so
/// every step is served from that cache and the kernel does not depend on
/// the state the engine leaves in the heap.
class RefKernel {
 public:
  RefKernel() = default;
  ~RefKernel();
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  /// Runs the kernel once and returns its wall time in ms.
  double RunMs();

  /// The kernel's time at the reference speed: about its fastest on a
  /// 4-vCPU x86-64 VM. It only sets the scale of the speed-normalized
  /// setup_s.
  static constexpr double kReferenceMs = 6.0;

  static constexpr int kSlots = 16;
  static constexpr int kChurnSteps = 400000;
  static constexpr int kMixSteps = 430000;

 private:
  void* slots_[kSlots] = {};
  uint64_t checksum_ = 0;
};

}  // namespace perfbench

#endif  // PIMENTO_PERFBENCH_CALIBRATION_H_
