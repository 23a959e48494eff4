#include "vfi/vf_assign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/require.hpp"
#include "workload/profile.hpp"

namespace vfimr::vfi {
namespace {

using power::VfPoint;
using power::VfTable;

TEST(SelectVf, ThresholdsFromMeanUtilization) {
  const auto& table = VfTable::standard();
  // One cluster per utilization level; mean == the single member.
  const std::vector<double> u = {0.90, 0.76, 0.66, 0.40};
  const std::vector<std::size_t> assign = {0, 1, 2, 3};
  const auto vf = select_vf(u, assign, 4, table);
  EXPECT_DOUBLE_EQ(vf[0].freq_hz, 2.5e9);   // 0.90/0.9*2.5 = 2.5
  EXPECT_DOUBLE_EQ(vf[1].freq_hz, 2.25e9);  // 2.11
  EXPECT_DOUBLE_EQ(vf[2].freq_hz, 2.0e9);   // 1.83
  EXPECT_DOUBLE_EQ(vf[3].freq_hz, 1.5e9);   // 1.11
}

TEST(SelectVf, MeanDilutesOutliers) {
  const auto& table = VfTable::standard();
  // 3 cores at 0.74 + one 0.97 bottleneck: mean 0.7975 -> still 2.25 GHz.
  const std::vector<double> u = {0.74, 0.74, 0.74, 0.97};
  const std::vector<std::size_t> assign = {0, 0, 0, 0};
  const auto vf = select_vf(u, assign, 1, table);
  EXPECT_DOUBLE_EQ(vf[0].freq_hz, 2.25e9);
}

TEST(SelectVf, EmptyClusterRejected) {
  const auto& table = VfTable::standard();
  const std::vector<double> u = {0.5, 0.5};
  const std::vector<std::size_t> assign = {0, 0};
  EXPECT_THROW(select_vf(u, assign, 2, table), RequirementError);
}

TEST(SelectVf, UtilTargetValidation) {
  const auto& table = VfTable::standard();
  VfSelectParams params;
  params.util_target = 0.0;
  EXPECT_THROW(select_vf({0.5}, {0}, 1, table, params), RequirementError);
}

TEST(DesignVfi, ReassignsBottleneckClusterOnly) {
  // Build an artificial profile: homogeneous 0.74 with a 0.97 master whose
  // traffic anchors it in its own block -> VFI1 2.25 everywhere, VFI2 raises
  // exactly the master's cluster to 2.5.
  const auto profile = workload::make_profile(workload::App::kPCA);
  const auto design =
      design_vfi(profile.utilization, profile.traffic, profile.master_threads,
                 VfTable::standard());
  ASSERT_EQ(design.vfi1.size(), 4u);
  for (const auto& vf : design.vfi1) {
    EXPECT_DOUBLE_EQ(vf.freq_hz, 2.25e9);
  }
  ASSERT_EQ(design.raised_clusters.size(), 1u);
  const std::size_t raised = design.raised_clusters[0];
  EXPECT_DOUBLE_EQ(design.vfi2[raised].freq_hz, 2.5e9);
  // The raised cluster is the one holding the masters.
  for (std::size_t m : profile.master_threads) {
    EXPECT_EQ(design.assignment[m], raised);
  }
  // VFI2 never lowers any cluster.
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_GE(design.vfi2[c].freq_hz, design.vfi1[c].freq_hz);
  }
}

TEST(DesignVfi, NoReassignmentWhenMastersAlreadyFast) {
  // WC's masters live in a 2.5 GHz cluster: nothing to raise (§4.2).
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto design =
      design_vfi(profile.utilization, profile.traffic, profile.master_threads,
                 VfTable::standard());
  EXPECT_TRUE(design.raised_clusters.empty());
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(design.vfi1[c], design.vfi2[c]);
  }
}

TEST(DesignVfi, VfOfThreadConsistent) {
  const auto profile = workload::make_profile(workload::App::kMM);
  const auto design =
      design_vfi(profile.utilization, profile.traffic, profile.master_threads,
                 VfTable::standard());
  for (std::size_t t = 0; t < 64; ++t) {
    EXPECT_EQ(design.vf_of_thread(t, false),
              design.vfi1[design.assignment[t]]);
    EXPECT_EQ(design.vf_of_thread(t, true), design.vfi2[design.assignment[t]]);
  }
}

struct Table2Case {
  workload::App app;
  std::vector<double> vfi1_ghz;  // sorted
  std::vector<double> vfi2_ghz;  // sorted
};

// Without this, gtest prints the case as raw bytes (padding and heap
// pointers), which puts run-dependent text into the discovered test names.
void PrintTo(const Table2Case& c, std::ostream* os) {
  *os << workload::app_name(c.app);
}

class Table2Regression : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2Regression, MatchesPaper) {
  const auto& c = GetParam();
  const auto profile = workload::make_profile(c.app);
  const auto design =
      design_vfi(profile.utilization, profile.traffic, profile.master_threads,
                 VfTable::standard());
  auto ghz = [](const std::vector<VfPoint>& vf) {
    std::vector<double> out;
    for (const auto& p : vf) out.push_back(p.freq_hz / 1e9);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ghz(design.vfi1), c.vfi1_ghz);
  EXPECT_EQ(ghz(design.vfi2), c.vfi2_ghz);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table2Regression,
    ::testing::Values(
        Table2Case{workload::App::kMM,
                   {2.25, 2.25, 2.5, 2.5},
                   {2.25, 2.5, 2.5, 2.5}},
        Table2Case{workload::App::kHist,
                   {2.25, 2.25, 2.5, 2.5},
                   {2.25, 2.5, 2.5, 2.5}},
        Table2Case{workload::App::kKmeans,
                   {1.5, 1.5, 2.0, 2.0},
                   {1.5, 1.5, 2.0, 2.0}},
        Table2Case{workload::App::kWC,
                   {2.0, 2.0, 2.5, 2.5},
                   {2.0, 2.0, 2.5, 2.5}},
        Table2Case{workload::App::kPCA,
                   {2.25, 2.25, 2.25, 2.25},
                   {2.25, 2.25, 2.25, 2.5}},
        Table2Case{workload::App::kLR,
                   {2.25, 2.25, 2.5, 2.5},
                   {2.25, 2.25, 2.5, 2.5}}),
    [](const auto& info) { return workload::app_name(info.param.app); });

}  // namespace
}  // namespace vfimr::vfi
