// Kernel dispatch: CentroidBlock repacking, the CPUID-driven kAuto
// resolution, the process-wide default the --kernel flag overrides, and
// the AssignNearest batch query on that default.

#include "cluster/kernels/kernel.h"

#include <atomic>
#include <limits>

#include "cluster/kernels/internal.h"

namespace pmkm {

void CentroidBlock::Load(const double* centroids, size_t k, size_t dim) {
  PMKM_CHECK(k > 0 && dim > 0);
  k_ = k;
  dim_ = dim;
  padded_k_ = (k + kLanePad - 1) / kLanePad * kLanePad;
  transposed_.assign(padded_k_ * dim,
                     std::numeric_limits<double>::infinity());
  for (size_t d = 0; d < dim; ++d) {
    double* col = transposed_.data() + d * padded_k_;
    for (size_t j = 0; j < k; ++j) col[j] = centroids[j * dim + d];
  }
}

const char* KernelKindToString(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return "auto";
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
    case KernelKind::kNeon:
      return "neon";
  }
  return "unknown";
}

Result<KernelKind> ParseKernelKind(const std::string& name) {
  if (name == "auto") return KernelKind::kAuto;
  if (name == "scalar") return KernelKind::kScalar;
  if (name == "avx2") return KernelKind::kAvx2;
  if (name == "neon") return KernelKind::kNeon;
  return Status::InvalidArgument(
      "unknown kernel '" + name + "' (use scalar|avx2|neon|auto)");
}

namespace {

// The kAuto resolution, probed exactly once per process.
const DistanceKernel* ResolveAuto() {
  static const DistanceKernel* const chosen = [] {
    if (const DistanceKernel* avx2 = kernels::Avx2Kernel();
        avx2 != nullptr && kernels::CpuSupportsAvx2()) {
      return avx2;
    }
    if (const DistanceKernel* neon = kernels::NeonKernel();
        neon != nullptr) {
      return neon;
    }
    return kernels::ScalarKernel();
  }();
  return chosen;
}

std::atomic<const DistanceKernel*> g_default{nullptr};

const DistanceKernel* LookupKernel(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return ResolveAuto();
    case KernelKind::kScalar:
      return kernels::ScalarKernel();
    case KernelKind::kAvx2:
      return kernels::Avx2Kernel() != nullptr && kernels::CpuSupportsAvx2()
                 ? kernels::Avx2Kernel()
                 : nullptr;
    case KernelKind::kNeon:
      return kernels::NeonKernel();
  }
  return nullptr;
}

}  // namespace

bool KernelAvailable(KernelKind kind) {
  return LookupKernel(kind) != nullptr;
}

const DistanceKernel& GetKernel(KernelKind kind) {
  const DistanceKernel* kernel = LookupKernel(kind);
  PMKM_CHECK(kernel != nullptr)
      << "kernel '" << KernelKindToString(kind)
      << "' is not available on this host";
  return *kernel;
}

const DistanceKernel& DefaultKernel() {
  const DistanceKernel* kernel =
      g_default.load(std::memory_order_acquire);
  if (kernel == nullptr) {
    kernel = ResolveAuto();
    g_default.store(kernel, std::memory_order_release);
  }
  return *kernel;
}

Result<KernelKind> SetDefaultKernel(KernelKind kind) {
  const DistanceKernel* kernel = LookupKernel(kind);
  if (kernel == nullptr) {
    return Status::InvalidArgument(
        "kernel '" + std::string(KernelKindToString(kind)) +
        "' is not available on this host (host is " +
        HostIsaDescription() + ")");
  }
  const DistanceKernel* previous =
      g_default.exchange(kernel, std::memory_order_acq_rel);
  return previous == nullptr ? KernelKind::kAuto : previous->kind();
}

void AssignNearest(const double* points, size_t n, size_t dim,
                   const Dataset& centroids, uint32_t* assign,
                   double* dist2, double* second2) {
  PMKM_CHECK(centroids.dim() == dim);
  CentroidBlock block;
  block.Load(centroids);
  DefaultKernel().AssignBlock(points, n, dim, block, assign, dist2,
                              second2);
}

std::vector<const DistanceKernel*> AvailableKernels() {
  std::vector<const DistanceKernel*> out;
  out.push_back(kernels::ScalarKernel());
  for (KernelKind kind : {KernelKind::kAvx2, KernelKind::kNeon}) {
    if (const DistanceKernel* k = LookupKernel(kind); k != nullptr) {
      out.push_back(k);
    }
  }
  return out;
}

std::string HostIsaDescription() {
#if defined(__x86_64__) || defined(_M_X64)
  return kernels::CpuSupportsAvx2() ? "x86-64 (avx2+fma)"
                                    : "x86-64 (sse2)";
#elif defined(__aarch64__)
  return "aarch64 (neon)";
#else
  return "generic";
#endif
}

}  // namespace pmkm
