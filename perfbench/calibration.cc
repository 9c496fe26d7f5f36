#include "perfbench/calibration.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {

RefKernel::~RefKernel() {
  for (void* p : slots_) std::free(p);
}

double RefKernel::RunMs() {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kChurnSteps; ++i) {
    const int j = i % kSlots;
    void*& slot = slots_[j];
    std::free(slot);
    slot = std::malloc(24 + 16 * static_cast<size_t>(j));  // 24..264 bytes
    if (slot == nullptr) throw std::bad_alloc();
    // Touching the block keeps the pair from being optimized away.
    std::memset(slot, i & 0xff, 8);
    checksum_ += *static_cast<unsigned char*>(slot);
  }
  uint64_t x = checksum_ | 1;
  for (int i = 0; i < kMixSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  checksum_ = x;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench
