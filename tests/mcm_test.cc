// MCM tests (Section 6): F2 linear algebra, all three protocols' answers and
// round shapes, and the Eq. (5) FAQ-SS equivalence.
#include <gtest/gtest.h>

#include "faq/solvers.h"
#include "lowerbounds/bounds.h"
#include "mcm/bitmatrix.h"
#include "mcm/protocols.h"
#include "oracle.h"

namespace topofaq {
namespace {

McmInstance RandomInstance(int k, int n, uint64_t seed) {
  Rng rng(seed);
  McmInstance inst;
  inst.x = BitVector::Random(n, &rng);
  for (int i = 0; i < k; ++i)
    inst.matrices.push_back(BitMatrix::Random(n, &rng));
  return inst;
}

TEST(BitVector, GetSetAndDot) {
  BitVector v(100);
  v.Set(3, true);
  v.Set(99, true);
  EXPECT_TRUE(v.Get(3));
  EXPECT_FALSE(v.Get(4));
  BitVector w(100);
  w.Set(3, true);
  EXPECT_TRUE(v.Dot(w));   // one common position
  w.Set(99, true);
  EXPECT_FALSE(v.Dot(w));  // two common positions: parity 0
}

TEST(BitVector, RandomMasksTailBits) {
  Rng rng(1);
  BitVector v = BitVector::Random(70, &rng);
  // Bits beyond 70 must be zero in the last word.
  EXPECT_EQ(v.words()[1] >> 6, 0u);
}

TEST(BitMatrix, IdentityActsTrivially) {
  Rng rng(2);
  BitVector x = BitVector::Random(33, &rng);
  EXPECT_EQ(BitMatrix::Identity(33).Apply(x), x);
}

TEST(BitMatrix, MultiplyMatchesComposition) {
  Rng rng(3);
  for (int iter = 0; iter < 10; ++iter) {
    BitMatrix a = BitMatrix::Random(20, &rng);
    BitMatrix b = BitMatrix::Random(20, &rng);
    BitVector x = BitVector::Random(20, &rng);
    EXPECT_EQ(a.Multiply(b).Apply(x), a.Apply(b.Apply(x)));
  }
}

TEST(BitMatrix, RankOfIdentityAndSingular) {
  EXPECT_EQ(BitMatrix::Identity(12).Rank(), 12);
  BitMatrix z(5);
  EXPECT_EQ(z.Rank(), 0);
  BitMatrix m(4);
  m.Set(0, 0, true);
  m.Set(1, 0, true);  // duplicate row
  EXPECT_EQ(m.Rank(), 1);
}

TEST(McmProtocols, AllThreeAgreeWithChainApply) {
  for (auto [k, n] : {std::pair{1, 8}, {3, 8}, {4, 16}, {7, 8}}) {
    McmInstance inst = RandomInstance(k, n, 100 + k);
    const BitVector expected = ChainApply(inst.matrices, inst.x);
    EXPECT_EQ(RunMcmSequential(inst).y, expected);
    EXPECT_EQ(RunMcmMerge(inst).y, expected);
    EXPECT_EQ(RunMcmTrivial(inst).y, expected);
  }
}

TEST(McmProtocols, SequentialRoundsAreLinearInKN) {
  // (k+1) pipelined N-bit hops at 1 bit/round: rounds = (k+1)·N exactly
  // (transfers are sequential: each hop waits for the previous product).
  McmInstance inst = RandomInstance(6, 32, 7);
  McmResult r = RunMcmSequential(inst);
  EXPECT_EQ(r.rounds, 7 * 32);
}

TEST(McmProtocols, MergeRoundsAreQuadraticInN) {
  // ceil(log2 k) iterations of parallel N² transfers.
  McmInstance inst = RandomInstance(8, 16, 8);
  McmResult r = RunMcmMerge(inst);
  EXPECT_GE(r.rounds, 3 * 16 * 16);       // 3 halving iterations
  EXPECT_LE(r.rounds, 3 * 16 * 16 + 200); // + hop lags and x routing
}

TEST(McmProtocols, TrivialRoundsAreCubicish) {
  McmInstance inst = RandomInstance(4, 16, 9);
  McmResult r = RunMcmTrivial(inst);
  // The last edge must carry k·N² + N bits at 1 bit/round.
  EXPECT_GE(r.rounds, 4 * 16 * 16);
}

TEST(McmProtocols, CrossoverAtLargeK) {
  // For k << N sequential wins; the merge protocol's N² log k only pays off
  // once k >> N (Appendix I.1).
  McmInstance small_k = RandomInstance(2, 24, 10);
  EXPECT_LT(RunMcmSequential(small_k).rounds, RunMcmMerge(small_k).rounds);
  McmInstance big_k = RandomInstance(100, 4, 11);
  EXPECT_LT(RunMcmMerge(big_k).rounds, RunMcmSequential(big_k).rounds);
}

TEST(McmProtocols, SequentialIsWithinConstantOfLowerBound) {
  // Theorem 6.4: Ω(kN) rounds; Prop 6.1 protocol is O(kN): ratio bounded.
  for (int k : {2, 4, 8}) {
    McmInstance inst = RandomInstance(k, 16, 20 + k);
    McmResult r = RunMcmSequential(inst);
    McmBounds b = ComputeMcmBounds(k, 16);
    EXPECT_GE(r.rounds, b.lower);
    EXPECT_LE(r.rounds, 4 * b.lower);
  }
}

TEST(McmAsFaq, MatchesChainApply) {
  // Eq. (5): the FAQ-SS formulation over GF(2) computes the same vector.
  for (auto [k, n] : {std::pair{1, 4}, {2, 4}, {3, 6}}) {
    McmInstance inst = RandomInstance(k, n, 300 + k);
    auto q = McmAsFaq(inst);
    ASSERT_TRUE(q.Validate().ok());
    auto res = BruteForceSolve(q);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(DecodeFaqVector(*res, n), ChainApply(inst.matrices, inst.x));
  }
}

TEST(McmAsFaq, ZeroMatrixGivesZeroVector) {
  McmInstance inst;
  Rng rng(12);
  inst.x = BitVector::Random(5, &rng);
  inst.matrices.push_back(BitMatrix(5));  // zero matrix: empty relation
  // An all-zero matrix yields an empty listing; Eq. (5) needs at least one
  // nonzero entry per function, so check the chain answer directly.
  EXPECT_EQ(ChainApply(inst.matrices, inst.x), BitVector(5));
}

TEST(McmBounds, FormulasOrderCorrectly) {
  McmBounds b = ComputeMcmBounds(/*k=*/8, /*n=*/64);
  EXPECT_LT(b.lower, b.sequential + 64);
  EXPECT_LT(b.sequential, b.trivial);   // k <= N regime
  McmBounds big = ComputeMcmBounds(/*k=*/100000, /*n=*/16);
  EXPECT_LT(big.merge, big.sequential);  // k >> N regime
}

class McmSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(McmSweep, ProtocolsAgreeEverywhere) {
  auto [k, n] = GetParam();
  McmInstance inst = RandomInstance(k, n, 1000 + k * 31 + n);
  const BitVector expected = ChainApply(inst.matrices, inst.x);
  McmResult seq = RunMcmSequential(inst);
  McmResult mrg = RunMcmMerge(inst);
  EXPECT_EQ(seq.y, expected);
  EXPECT_EQ(mrg.y, expected);
  EXPECT_GT(seq.rounds, 0);
  EXPECT_GT(mrg.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, McmSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5, 9),
                                            ::testing::Values(4, 12, 20)));

}  // namespace
}  // namespace topofaq
