#include "stream/explain.h"

#include <gtest/gtest.h>

namespace pmkm {
namespace {

TEST(ExplainTest, RendersEveryOperatorAndKnob) {
  KMeansConfig partial;
  partial.k = 40;
  partial.restarts = 10;
  MergeKMeansConfig merge;
  merge.k = 40;
  PhysicalPlan plan;
  plan.chunk_points = 5461;
  plan.partial_clones = 7;
  plan.queue_capacity = 14;

  const std::string text = ExplainPartialMergePlan(
      3, 60000, 6, partial, merge, plan);
  EXPECT_NE(text.find("merge-kmeans (k=40, seeding=heaviest"),
            std::string::npos);
  EXPECT_NE(text.find("partial-kmeans ×7 clones"), std::string::npos);
  EXPECT_NE(text.find("R=10"), std::string::npos);
  EXPECT_NE(text.find("chunk=5461 pts"), std::string::npos);
  EXPECT_NE(text.find("queue cap 14"), std::string::npos);
  EXPECT_NE(text.find("scan (3 buckets, ~60000 pts, dim 6)"),
            std::string::npos);
}

TEST(ExplainTest, SingularForms) {
  KMeansConfig partial;
  MergeKMeansConfig merge;
  PhysicalPlan plan;
  plan.partial_clones = 1;
  const std::string text =
      ExplainPartialMergePlan(1, 100, 2, partial, merge, plan);
  EXPECT_NE(text.find("×1 clone ("), std::string::npos);
  EXPECT_NE(text.find("(1 bucket,"), std::string::npos);
}

TEST(ExplainTest, ServeSizedPlanRunsOneClonePerBudgetedCore) {
  // Two 10,000-point buckets at a two-core, 512 KiB budget: the shape of
  // a pmkm_serve job. Both budgeted cores run a partial clone.
  KMeansConfig partial;
  partial.k = 8;
  partial.restarts = 5;
  MergeKMeansConfig merge;
  merge.k = 8;
  ResourceModel resources;
  resources.cores = 2;
  resources.memory_bytes_per_operator = 512 << 10;
  const PhysicalPlan plan = PlanPartialMerge(6, 10000, resources);
  const std::string text =
      ExplainPartialMergePlan(2, 20000, 6, partial, merge, plan);
  EXPECT_NE(text.find("partial-kmeans ×2 clones"), std::string::npos)
      << text;
  EXPECT_NE(text.find("queue cap 2"), std::string::npos) << text;
}

}  // namespace
}  // namespace pmkm
