// Unit tests for mhs::apps — kernel semantics and workload structure.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/fixed_point.h"
#include "base/table.h"
#include "ir/task_graph_algos.h"

namespace mhs::apps {
namespace {

TEST(Kernels, FirIsLowPassUnityDc) {
  // Constant input must pass through with gain ~1 (coefficients sum to 1).
  const ir::Cdfg c = fir_kernel(9);
  std::map<std::string, std::int64_t> in;
  const std::int64_t dc = Q16::from_double(3.0).raw();
  for (const ir::OpId id : c.inputs()) in[c.op(id).name] = dc;
  const auto out = c.evaluate(in);
  const double y = Q16::from_raw(out.at("y")).to_double();
  EXPECT_NEAR(y, 3.0, 0.01);
}

TEST(Kernels, FirRejectsBadTapCount) {
  EXPECT_THROW(fir_kernel(0), PreconditionError);
  EXPECT_THROW(fir_kernel(65), PreconditionError);
}

TEST(Kernels, BiquadDcGainRoughlyUnity) {
  // With x = x1 = x2 = y1 = y2 = k (steady state), y ~ k for this section:
  // (b0+b1+b2) / (1+a1+a2) = 1.1716/1.1716 = 1.
  const ir::Cdfg c = iir_biquad_kernel();
  const std::int64_t k = Q16::from_double(2.0).raw();
  const auto out = c.evaluate(
      {{"x", k}, {"x1", k}, {"x2", k}, {"y1", k}, {"y2", k}});
  EXPECT_NEAR(Q16::from_raw(out.at("y")).to_double(), 2.0, 0.05);
}

TEST(Kernels, Dct8MatchesDirectComputation) {
  const ir::Cdfg c = dct8_kernel();
  double x[8] = {1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0};
  std::map<std::string, std::int64_t> in;
  for (int i = 0; i < 8; ++i) {
    in[concat("x", std::to_string(i))] = Q16::from_double(x[i]).raw();
  }
  const auto out = c.evaluate(in);
  for (int k = 0; k < 8; ++k) {
    const double scale =
        k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    double expected = 0.0;
    for (int n = 0; n < 8; ++n) {
      expected += x[n] * scale * std::cos((2 * n + 1) * k * M_PI / 16.0);
    }
    const double got =
        Q16::from_raw(out.at(concat("X", std::to_string(k)))).to_double();
    EXPECT_NEAR(got, expected, 0.02) << "coefficient " << k;
  }
}

TEST(Kernels, XteaMatchesReferenceImplementation) {
  // Reference XTEA (32-bit arithmetic), same round count.
  auto reference = [](std::uint32_t v0, std::uint32_t v1,
                      const std::uint32_t key[4], int rounds) {
    std::uint32_t sum = 0;
    constexpr std::uint32_t delta = 0x9E3779B9;
    for (int r = 0; r < rounds; ++r) {
      v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
      sum += delta;
      v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    }
    return std::pair<std::uint32_t, std::uint32_t>{v0, v1};
  };

  for (const std::size_t rounds : {1u, 4u, 16u, 32u}) {
    const ir::Cdfg c = xtea_kernel(rounds);
    const std::uint32_t key[4] = {0x01234567, 0x89ABCDEF, 0xFEDCBA98,
                                  0x76543210};
    const std::uint32_t v0 = 0xDEADBEEF, v1 = 0xCAFEBABE;
    const auto [r0, r1] =
        reference(v0, v1, key, static_cast<int>(rounds));
    const auto out = c.evaluate({{"v0", v0},
                                 {"v1", v1},
                                 {"k0", key[0]},
                                 {"k1", key[1]},
                                 {"k2", key[2]},
                                 {"k3", key[3]}});
    EXPECT_EQ(static_cast<std::uint32_t>(out.at("v0_out")), r0)
        << rounds << " rounds";
    EXPECT_EQ(static_cast<std::uint32_t>(out.at("v1_out")), r1)
        << rounds << " rounds";
  }
}

TEST(Kernels, Median5IsOrderStatistic) {
  const ir::Cdfg c = median5_kernel();
  const std::int64_t perms[][5] = {
      {1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}, {2, 5, 1, 4, 3},
      {7, 7, 7, 7, 7}, {-5, 10, 0, -3, 2},
  };
  for (const auto& p : perms) {
    const auto out = c.evaluate({{"a", p[0]},
                                 {"b", p[1]},
                                 {"c", p[2]},
                                 {"d", p[3]},
                                 {"e", p[4]}});
    std::vector<std::int64_t> sorted(p, p + 5);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(out.at("median"), sorted[2]);
  }
}

TEST(Kernels, ChecksumMatchesFletcherStyleReference) {
  const std::size_t n = 6;
  const ir::Cdfg c = checksum_kernel(n);
  std::map<std::string, std::int64_t> in;
  std::int64_t a = 1, b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t w = static_cast<std::int64_t>(i * 37 + 11);
    in[concat("w", std::to_string(i))] = w;
    a = (a + w) & 65535;
    b = (b + a) & 65535;
  }
  const auto out = c.evaluate(in);
  EXPECT_EQ(out.at("ck_a"), a);
  EXPECT_EQ(out.at("ck_b"), b);
}

TEST(Kernels, SadSumsAbsoluteDifferences) {
  const ir::Cdfg c = sad_kernel(3);
  const auto out = c.evaluate({{"a0", 5},
                               {"b0", 9},
                               {"a1", -2},
                               {"b1", 3},
                               {"a2", 7},
                               {"b2", 7}});
  EXPECT_EQ(out.at("sad"), 4 + 5 + 0);
}

TEST(Kernels, NatureOfComputationSpansTheAxis) {
  // §3.3 "nature of computation": DCT is wide, XTEA is a chain. The
  // width/depth ratio must reflect that.
  const ir::Cdfg dct = dct8_kernel();
  const ir::Cdfg xtea = xtea_kernel(16);
  std::size_t dct_ops = 0, xtea_ops = 0;
  for (const ir::OpId id : dct.op_ids()) {
    if (ir::op_is_compute(dct.op(id).kind)) ++dct_ops;
  }
  for (const ir::OpId id : xtea.op_ids()) {
    if (ir::op_is_compute(xtea.op(id).kind)) ++xtea_ops;
  }
  const double dct_ratio =
      static_cast<double>(dct_ops) / static_cast<double>(dct.depth());
  const double xtea_ratio =
      static_cast<double>(xtea_ops) / static_cast<double>(xtea.depth());
  EXPECT_GT(dct_ratio, 4.0 * xtea_ratio);
}

TEST(Workloads, JpegPipelineStructure) {
  const ir::TaskGraph g = jpeg_pipeline_graph();
  EXPECT_EQ(g.num_tasks(), 7u);
  EXPECT_TRUE(g.is_dag());
  EXPECT_EQ(ir::sources(g).size(), 1u);
  EXPECT_EQ(ir::sinks(g).size(), 1u);
  EXPECT_EQ(ir::width_estimate(g), 2u);  // the two DCTs
}

TEST(Workloads, DspChainKernelsAligned) {
  const KernelBackedWorkload w = dsp_chain_workload();
  EXPECT_EQ(w.kernels.size(), w.graph.num_tasks());
  std::size_t with_kernels = 0;
  for (const ir::Cdfg* k : w.kernels) {
    if (k != nullptr) ++with_kernels;
  }
  EXPECT_EQ(with_kernels, 4u);
  EXPECT_TRUE(w.graph.is_dag());
}

TEST(Workloads, ProcessNetworksValidate) {
  ekg_monitor_network().validate();
  packet_pipeline_network().validate();
  worker_farm_network(3, 1000, 64).validate();
  const ir::ProcessNetwork farm = worker_farm_network(5, 1000, 64);
  EXPECT_EQ(farm.num_processes(), 7u);
  EXPECT_EQ(farm.num_channels(), 10u);
}

}  // namespace
}  // namespace mhs::apps
