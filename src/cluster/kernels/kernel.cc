// Kernel dispatch: the CPUID-driven kAuto resolution, the AssignBlock
// shim, and the AssignNearest batch query on the kAuto kernel.

#include "cluster/kernels/kernel.h"

#include "cluster/kernels/internal.h"

namespace pmkm {

void CentroidBlock::Load(const double* centroids, size_t k, size_t dim) {
  PMKM_CHECK(k > 0 && dim > 0);
  k_ = k;
  dim_ = dim;
  row_major_.assign(centroids, centroids + k * dim);
}

void DistanceKernel::AssignBlock(const double* points, size_t n, size_t dim,
                                 const CentroidBlock& centroids,
                                 uint32_t* assign, double* dist2) const {
  PMKM_DCHECK(centroids.k() > 0 && centroids.dim() == dim);
  AssignMasked(points, n, dim, centroids.row_major(), centroids.k(), nullptr,
               nullptr, assign, dist2, nullptr);
}

const char* KernelKindToString(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return "auto";
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<KernelKind> ParseKernelKind(const std::string& name) {
  if (name == "auto") return KernelKind::kAuto;
  if (name == "scalar") return KernelKind::kScalar;
  if (name == "avx2") return KernelKind::kAvx2;
  return Status::InvalidArgument(
      "unknown kernel '" + name + "' (use scalar|avx2|auto)");
}

namespace {

// The kAuto resolution, probed exactly once per process.
const DistanceKernel* ResolveAuto() {
  static const DistanceKernel* const chosen = [] {
    if (const DistanceKernel* avx2 = kernels::Avx2Kernel();
        avx2 != nullptr && kernels::CpuSupportsAvx2()) {
      return avx2;
    }
    return kernels::ScalarKernel();
  }();
  return chosen;
}

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

void AssignNearest(const double* points, size_t n, size_t dim,
                   const Dataset& centroids, uint32_t* assign,
                   double* dist2) {
  PMKM_CHECK(!centroids.empty() && centroids.dim() == dim);
  GetKernel(KernelKind::kAuto)
      .AssignMasked(points, n, dim, centroids.data(), centroids.size(),
                    nullptr, nullptr, assign, dist2, nullptr);
}

std::string HostIsaDescription() {
#if defined(__x86_64__) || defined(_M_X64)
  return kernels::CpuSupportsAvx2() ? "x86-64 (avx2+fma)"
                                    : "x86-64 (sse2)";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "generic";
#endif
}

}  // namespace pmkm
