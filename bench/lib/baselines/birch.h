// BIRCH (Zhang, Ramakrishnan & Livny, SIGMOD'96): the paper's §2.2 point of
// comparison among memory-bounded clustering methods.
//
// Phase 1 builds a height-balanced CF-tree of clustering features
// CF = (n, LS, SS) under a distance threshold; phase 3 ("global
// clustering") runs a weighted k-means over the leaf CF centroids. The tree
// rebuilds itself with a larger threshold when it exceeds its node budget,
// which is how BIRCH honours a fixed memory envelope.

#ifndef PMKM_BENCH_LIB_BASELINES_BIRCH_H_
#define PMKM_BENCH_LIB_BASELINES_BIRCH_H_

#include <memory>
#include <vector>

#include "cluster/kmeans.h"
#include "data/weighted.h"

namespace pmkm {

/// One clustering feature: sufficient statistics of a subcluster.
struct ClusteringFeature {
  double n = 0.0;              // point count
  std::vector<double> ls;      // linear sum Σx
  double ss = 0.0;             // scalar square sum Σ‖x‖²

  explicit ClusteringFeature(size_t dim = 0) : ls(dim, 0.0) {}

  void Add(std::span<const double> x, double weight = 1.0);
  void Merge(const ClusteringFeature& other);

  /// Centroid LS/n (requires n > 0).
  std::vector<double> Centroid() const;

  /// Average intra-subcluster radius sqrt(SS/n − ‖LS/n‖²), the threshold
  /// quantity of the original paper.
  double Radius() const;

  /// Radius the CF would have after absorbing (x, weight).
  double RadiusAfterAdd(std::span<const double> x, double weight) const;

  /// Squared centroid distance to another CF.
  double CentroidDistanceSq(const ClusteringFeature& other) const;
};

struct BirchConfig {
  size_t k = 40;                  // global-phase cluster count
  size_t branching = 16;          // max entries per node
  double initial_threshold = 0.0; // 0 = start at zero, grow on rebuilds
  size_t max_leaf_entries = 512;  // memory envelope (total leaf CFs)
  KMeansConfig global;            // global-phase weighted k-means
};

/// Streaming BIRCH: Insert points one at a time, then Finish().
class Birch {
 public:
  explicit Birch(size_t dim, BirchConfig config);
  ~Birch();

  Birch(const Birch&) = delete;
  Birch& operator=(const Birch&) = delete;

  /// Inserts one point, growing/rebuilding the CF-tree as needed.
  Status Insert(std::span<const double> point);

  /// Inserts a whole dataset.
  Status InsertAll(const Dataset& data);

  /// Leaf CFs as weighted centroids (the phase-3 input).
  WeightedDataset LeafCentroids() const;

  size_t num_leaf_entries() const;
  double threshold() const { return threshold_; }
  size_t rebuilds() const { return rebuilds_; }

  /// Runs the global clustering over the leaf CFs.
  Result<ClusteringModel> Finish() const;

  // Tree node types; public only so implementation helpers can name them.
  struct Node;
  struct Entry;

 private:
  Status InsertCf(const ClusteringFeature& cf);
  void InsertIntoTree(const ClusteringFeature& cf);
  void Rebuild();

  size_t dim_;
  BirchConfig config_;
  double threshold_;
  size_t rebuilds_ = 0;
  size_t leaf_entries_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace pmkm

#endif  // PMKM_BENCH_LIB_BASELINES_BIRCH_H_
