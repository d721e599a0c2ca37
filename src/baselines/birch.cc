#include "baselines/birch.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pmkm {

// ---------------------------------------------------------------------------
// ClusteringFeature

void ClusteringFeature::Add(std::span<const double> x, double weight) {
  PMKM_DCHECK(x.size() == ls.size());
  n += weight;
  double xx = 0.0;
  for (size_t d = 0; d < ls.size(); ++d) {
    ls[d] += weight * x[d];
    xx += x[d] * x[d];
  }
  ss += weight * xx;
}

void ClusteringFeature::Merge(const ClusteringFeature& other) {
  PMKM_DCHECK(other.ls.size() == ls.size());
  n += other.n;
  for (size_t d = 0; d < ls.size(); ++d) ls[d] += other.ls[d];
  ss += other.ss;
}

std::vector<double> ClusteringFeature::Centroid() const {
  PMKM_CHECK(n > 0.0);
  std::vector<double> c(ls.size());
  for (size_t d = 0; d < ls.size(); ++d) c[d] = ls[d] / n;
  return c;
}

double ClusteringFeature::Radius() const {
  if (n <= 0.0) return 0.0;
  double norm_sq = 0.0;
  for (double v : ls) norm_sq += v * v;
  const double var = ss / n - norm_sq / (n * n);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double ClusteringFeature::RadiusAfterAdd(std::span<const double> x,
                                         double weight) const {
  ClusteringFeature tmp = *this;
  tmp.Add(x, weight);
  return tmp.Radius();
}

double ClusteringFeature::CentroidDistanceSq(
    const ClusteringFeature& other) const {
  PMKM_DCHECK(n > 0.0 && other.n > 0.0);
  double acc = 0.0;
  for (size_t d = 0; d < ls.size(); ++d) {
    const double diff = ls[d] / n - other.ls[d] / other.n;
    acc += diff * diff;
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Tree structure

struct Birch::Entry {
  ClusteringFeature cf;
  std::unique_ptr<Node> child;  // null for leaf entries
};

struct Birch::Node {
  bool is_leaf = true;
  std::vector<Entry> entries;
};

namespace {

// Index of the entry whose CF centroid is closest to `cf`.
size_t ClosestEntry(const std::vector<Birch::Entry>& entries,
                    const ClusteringFeature& cf);

}  // namespace

// Nested-type access for the local helpers.
namespace {

size_t ClosestEntry(const std::vector<Birch::Entry>& entries,
                    const ClusteringFeature& cf) {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    const double d = entries[i].cf.CentroidDistanceSq(cf);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace

Birch::Birch(size_t dim, BirchConfig config)
    : dim_(dim),
      config_(std::move(config)),
      threshold_(config_.initial_threshold),
      root_(std::make_unique<Node>()) {
  PMKM_CHECK(dim_ >= 1);
  PMKM_CHECK(config_.branching >= 2);
  PMKM_CHECK(config_.max_leaf_entries >= 2);
}

Birch::~Birch() = default;

Status Birch::Insert(std::span<const double> point) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  ClusteringFeature cf(dim_);
  cf.Add(point);
  return InsertCf(cf);
}

Status Birch::InsertAll(const Dataset& data) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dimensionality mismatch");
  }
  for (size_t i = 0; i < data.size(); ++i) {
    PMKM_RETURN_NOT_OK(Insert(data.Row(i)));
  }
  return Status::OK();
}

Status Birch::InsertCf(const ClusteringFeature& cf) {
  InsertIntoTree(cf);
  while (leaf_entries_ > config_.max_leaf_entries) {
    Rebuild();
  }
  return Status::OK();
}

namespace {

// Splits an over-full node's entries into two groups seeded by the
// farthest pair of CF centroids; `right` receives the second group.
void SplitEntries(std::vector<Birch::Entry>* entries,
                  std::vector<Birch::Entry>* right) {
  auto& es = *entries;
  PMKM_CHECK(es.size() >= 2);
  size_t a = 0, b = 1;
  double best = -1.0;
  for (size_t i = 0; i < es.size(); ++i) {
    for (size_t j = i + 1; j < es.size(); ++j) {
      const double d = es[i].cf.CentroidDistanceSq(es[j].cf);
      if (d > best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  std::vector<Birch::Entry> left;
  for (size_t i = 0; i < es.size(); ++i) {
    if (i == a) {
      left.push_back(std::move(es[i]));
    } else if (i == b) {
      right->push_back(std::move(es[i]));
    }
  }
  // Seeds are left[0] and (*right)[0]; distribute the rest by proximity.
  for (size_t i = 0; i < es.size(); ++i) {
    if (i == a || i == b) continue;
    const double da = es[i].cf.CentroidDistanceSq(left[0].cf);
    const double db = es[i].cf.CentroidDistanceSq((*right)[0].cf);
    if (da <= db) {
      left.push_back(std::move(es[i]));
    } else {
      right->push_back(std::move(es[i]));
    }
  }
  *entries = std::move(left);
}

}  // namespace

void Birch::InsertIntoTree(const ClusteringFeature& cf) {
  // Recursive insert; returns a split-off sibling entry if the child split.
  struct Inserter {
    Birch* tree;

    // Returns nullopt, or the new sibling entry to add to the parent.
    std::unique_ptr<Entry> Insert(Node* node, const ClusteringFeature& cf) {
      if (node->is_leaf) {
        if (!node->entries.empty()) {
          const size_t i = ClosestEntry(node->entries, cf);
          // Absorption test: merged subcluster must stay within threshold.
          ClusteringFeature merged = node->entries[i].cf;
          merged.Merge(cf);
          if (merged.Radius() <= tree->threshold_) {
            node->entries[i].cf = std::move(merged);
            return nullptr;
          }
        }
        Entry e;
        e.cf = cf;
        node->entries.push_back(std::move(e));
        ++tree->leaf_entries_;
      } else {
        const size_t i = ClosestEntry(node->entries, cf);
        std::unique_ptr<Entry> sibling =
            Insert(node->entries[i].child.get(), cf);
        node->entries[i].cf.Merge(cf);
        if (sibling != nullptr) {
          node->entries.push_back(std::move(*sibling));
        }
      }
      if (node->entries.size() <= tree->config_.branching) return nullptr;

      // Overflow: split this node, hand the new half to the parent.
      auto sibling_node = std::make_unique<Node>();
      sibling_node->is_leaf = node->is_leaf;
      SplitEntries(&node->entries, &sibling_node->entries);
      auto sibling_entry = std::make_unique<Entry>();
      sibling_entry->cf = ClusteringFeature(tree->dim_);
      for (const Entry& e : sibling_node->entries) {
        sibling_entry->cf.Merge(e.cf);
      }
      sibling_entry->child = std::move(sibling_node);
      return sibling_entry;
    }
  };

  Inserter inserter{this};
  std::unique_ptr<Entry> sibling = inserter.Insert(root_.get(), cf);
  if (sibling != nullptr) {
    // Root split: grow the tree by one level.
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    Entry left;
    left.cf = ClusteringFeature(dim_);
    for (const Entry& e : root_->entries) left.cf.Merge(e.cf);
    left.child = std::move(root_);
    new_root->entries.push_back(std::move(left));
    new_root->entries.push_back(std::move(*sibling));
    root_ = std::move(new_root);
  }
}

namespace {

void CollectLeafCfs(const Birch::Node* node,
                    std::vector<ClusteringFeature>* out);

}  // namespace

// Definition after Node is complete.
namespace {

void CollectLeafCfs(const Birch::Node* node,
                    std::vector<ClusteringFeature>* out) {
  if (node->is_leaf) {
    for (const Birch::Entry& e : node->entries) out->push_back(e.cf);
    return;
  }
  for (const Birch::Entry& e : node->entries) {
    CollectLeafCfs(e.child.get(), out);
  }
}

}  // namespace

void Birch::Rebuild() {
  std::vector<ClusteringFeature> cfs;
  cfs.reserve(leaf_entries_);
  CollectLeafCfs(root_.get(), &cfs);

  // Grow the threshold: at least the smallest pairwise leaf-centroid
  // distance (so at least one merge is guaranteed), with geometric growth
  // as a floor against degenerate stalls.
  double min_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < cfs.size(); ++i) {
    for (size_t j = i + 1; j < cfs.size(); ++j) {
      min_dist = std::min(min_dist, cfs[i].CentroidDistanceSq(cfs[j]));
    }
  }
  double next = threshold_ > 0.0 ? threshold_ * 1.5 : 1e-6;
  if (std::isfinite(min_dist)) {
    next = std::max(next, std::sqrt(min_dist) * 0.51);
  }
  threshold_ = next;
  ++rebuilds_;

  root_ = std::make_unique<Node>();
  leaf_entries_ = 0;
  for (const ClusteringFeature& cf : cfs) {
    InsertIntoTree(cf);
  }
}

WeightedDataset Birch::LeafCentroids() const {
  std::vector<ClusteringFeature> cfs;
  CollectLeafCfs(root_.get(), &cfs);
  WeightedDataset out(dim_);
  for (const ClusteringFeature& cf : cfs) {
    if (cf.n > 0.0) out.Append(cf.Centroid(), cf.n);
  }
  return out;
}

size_t Birch::num_leaf_entries() const { return leaf_entries_; }

Result<ClusteringModel> Birch::Finish() const {
  const WeightedDataset leaves = LeafCentroids();
  if (leaves.empty()) {
    return Status::FailedPrecondition("no points were inserted");
  }
  if (leaves.size() <= config_.k) {
    ClusteringModel model;
    model.centroids = leaves.points();
    model.weights = leaves.weights();
    model.sse = 0.0;
    model.mse_per_point = 0.0;
    model.converged = true;
    return model;
  }
  KMeansConfig cfg = config_.global;
  cfg.k = config_.k;
  return KMeans(cfg).FitWeighted(leaves);
}

}  // namespace pmkm
