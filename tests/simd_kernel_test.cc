// Differential fuzz for the SIMD kernel library (relation/simd.h): every
// vector kernel must agree with its scalar twin on randomized sorted
// inputs — duplicates, long equal runs, degenerate tails, lengths straddling
// the vector width, keys below/inside/above the range — and the multiway
// join must produce bit-identical relations with the vector kernels on and
// off, across encodings and parallelism levels. The scalar twins define the
// semantics; these suites are what lets every consumer treat the dispatch
// as invisible.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bit_identity.h"
#include "random_instances.h"
#include "relation/multiway.h"
#include "relation/simd.h"
#include "semiring/semiring.h"
#include "util/rng.h"

namespace topofaq {
namespace {

/// Sorted array with duplicates and runs: lengths hover around vector-width
/// multiples (0..~70), values from a small domain so equal runs are common.
template <typename T>
std::vector<T> RandomSorted(Rng* rng, size_t max_len, uint64_t dom) {
  const size_t n = rng->NextU64(max_len + 1);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng->NextU64(dom));
  std::sort(v.begin(), v.end());
  return v;
}

/// A probe key that lands below, inside, or above the array's range.
template <typename T>
T RandomKey(Rng* rng, const std::vector<T>& v, uint64_t dom) {
  switch (rng->NextU64(4)) {
    case 0:
      return 0;
    case 1:
      return static_cast<T>(dom + rng->NextU64(4));  // past every value
    case 2:
      return v.empty() ? static_cast<T>(rng->NextU64(dom))
                       : v[rng->NextU64(v.size())];
    default:
      return static_cast<T>(rng->NextU64(dom));
  }
}

// The differential fuzzes run the vector bodies wherever the host has them.
const bool kVec = simd::Available(true);

TEST(SimdKernelTest, LowerBoundMatchesScalar) {
  Rng rng(2024);
  for (int trial = 0; trial < 4000; ++trial) {
    const uint64_t dom = 1 + rng.NextU64(64);
    const auto a64 = RandomSorted<Value>(&rng, 70, dom);
    const auto a32 = RandomSorted<uint32_t>(&rng, 70, dom);
    const bool strict = (trial & 1) != 0;
    const Value k64 = RandomKey(&rng, a64, dom);
    const uint32_t k32 = RandomKey(&rng, a32, dom);
    const size_t lo64 = a64.empty() ? 0 : rng.NextU64(a64.size());
    const size_t lo32 = a32.empty() ? 0 : rng.NextU64(a32.size());
    EXPECT_EQ(
        simd::LowerBoundU64(kVec, a64.data(), lo64, a64.size(), k64, strict,
                            nullptr),
        simd::ScalarLowerBoundU64(a64.data(), lo64, a64.size(), k64, strict))
        << "trial " << trial;
    EXPECT_EQ(
        simd::LowerBoundU32(kVec, a32.data(), lo32, a32.size(), k32, strict,
                            nullptr),
        simd::ScalarLowerBoundU32(a32.data(), lo32, a32.size(), k32, strict))
        << "trial " << trial;
  }
}

TEST(SimdKernelTest, AdvanceMatchesScalar) {
  Rng rng(2025);
  for (int trial = 0; trial < 4000; ++trial) {
    const uint64_t dom = 1 + rng.NextU64(64);
    const auto a = RandomSorted<Value>(&rng, 70, dom);
    const bool strict = (trial & 1) != 0;
    const Value key = RandomKey(&rng, a, dom);
    const size_t i = a.empty() ? 0 : rng.NextU64(a.size() + 1);
    EXPECT_EQ(
        simd::AdvanceU64(kVec, a.data(), i, a.size(), key, strict, nullptr),
        simd::ScalarAdvanceU64(a.data(), i, a.size(), key, strict))
        << "trial " << trial;
  }
}

/// With an effectively unlimited block budget neither body ever returns
/// kSeek, so every kMatch must be *positionally* identical to the scalar
/// two-pointer walk; on kExhausted both must have drained a side (the other
/// side's position is unspecified — see Frontier::Kind).
TEST(SimdKernelTest, NextMatchUnlimitedBudgetIsExact) {
  Rng rng(2027);
  const size_t unlimited = static_cast<size_t>(1) << 30;
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t dom = 1 + rng.NextU64(96);
    const auto a = RandomSorted<Value>(&rng, 70, dom);
    const auto b = RandomSorted<Value>(&rng, 70, dom);
    size_t i = 0, j = 0;
    for (;;) {
      const simd::Frontier fv =
          simd::NextMatchU64(kVec, a.data(), i, a.size(), b.data(), j,
                             b.size(), unlimited, nullptr);
      const simd::Frontier fs = simd::ScalarNextMatchU64(
          a.data(), i, a.size(), b.data(), j, b.size(), unlimited);
      ASSERT_EQ(fv.kind, fs.kind) << "trial " << trial;
      if (fv.kind != simd::Frontier::kMatch) {
        ASSERT_EQ(fv.kind, simd::Frontier::kExhausted) << "trial " << trial;
        EXPECT_TRUE(fv.i == a.size() || fv.j == b.size()) << "trial " << trial;
        EXPECT_TRUE(fs.i == a.size() || fs.j == b.size()) << "trial " << trial;
        break;
      }
      ASSERT_EQ(fv.i, fs.i) << "trial " << trial;
      ASSERT_EQ(fv.j, fs.j) << "trial " << trial;
      i = fv.i + 1;
      j = fv.j + 1;
    }
  }
}

/// With small budgets the two bodies may hand back kSeek at different
/// positions — but a caller that answers every kSeek with a far seek (as the
/// multiway frontier does) must recover the identical match sequence from
/// either body, because neither is allowed to skip a possible match.
template <typename Step>
std::vector<std::pair<Value, Value>> DriveToFixpoint(
    const std::vector<Value>& a, const std::vector<Value>& b,
    size_t max_blocks, Step step) {
  std::vector<std::pair<Value, Value>> matches;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const simd::Frontier f =
        step(a.data(), i, a.size(), b.data(), j, b.size(), max_blocks);
    i = f.i;
    j = f.j;
    if (f.kind == simd::Frontier::kMatch) {
      matches.emplace_back(a[i], b[j]);
      ++i;
      ++j;
    } else if (f.kind == simd::Frontier::kExhausted) {
      break;
    } else if (f.kind == simd::Frontier::kSeekA) {
      i = simd::ScalarLowerBoundU64(a.data(), i, a.size(), b[j], false);
    } else {
      j = simd::ScalarLowerBoundU64(b.data(), j, b.size(), a[i], false);
    }
  }
  return matches;
}

TEST(SimdKernelTest, NextMatchCappedBudgetSameMatches) {
  Rng rng(2028);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t dom = 1 + rng.NextU64(200);
    const auto a = RandomSorted<Value>(&rng, 120, dom);
    const auto b = RandomSorted<Value>(&rng, 120, dom);
    const size_t cap = 1 + rng.NextU64(8);
    const auto mv = DriveToFixpoint(
        a, b, cap,
        [](const Value* x, size_t i, size_t xn, const Value* y, size_t j,
           size_t yn, size_t mb) {
          return simd::NextMatchU64(kVec, x, i, xn, y, j, yn, mb, nullptr);
        });
    const auto ms = DriveToFixpoint(
        a, b, cap,
        [](const Value* x, size_t i, size_t xn, const Value* y, size_t j,
           size_t yn, size_t mb) {
          return simd::ScalarNextMatchU64(x, i, xn, y, j, yn, mb);
        });
    EXPECT_EQ(mv, ms) << "trial " << trial << " cap " << cap;
  }
}

/// A side shorter than one vector with its match far ahead in the other:
/// the closing scalar walk must honour the block budget (a few dozen steps)
/// instead of walking the long side to the match, and following the seeks
/// must still recover the scalar body's match positions.
TEST(SimdKernelTest, NextMatchShortSideRespectsBudget) {
  constexpr size_t kCap = 8;
  constexpr size_t kLong = 100000;
  for (size_t short_len = 1; short_len <= 3; ++short_len) {
    std::vector<Value> a, b(kLong);
    std::vector<uint32_t> a32, b32(kLong);
    for (size_t t = 0; t < kLong; ++t) b[t] = b32[t] = 2 * t;
    for (size_t t = 0; t < short_len; ++t)
      a.push_back(2 * (kLong - short_len + t));  // matches b's last rows
    a32.assign(a.begin(), a.end());
    SCOPED_TRACE(short_len);
    const simd::Frontier f64 = simd::NextMatchU64(
        kVec, a.data(), 0, a.size(), b.data(), 0, b.size(), kCap, nullptr);
    const simd::Frontier f32 = simd::NextMatchU32(
        kVec, a32.data(), 0, a32.size(), b32.data(), 0, b32.size(), kCap,
        nullptr);
    for (const simd::Frontier& f : {f64, f32}) {
      EXPECT_EQ(f.kind, simd::Frontier::kSeekB);
      EXPECT_LE(f.i + f.j, kCap * 8);
    }
    const auto step_vec = [](const Value* x, size_t i, size_t xn,
                             const Value* y, size_t j, size_t yn, size_t mb) {
      return simd::NextMatchU64(kVec, x, i, xn, y, j, yn, mb, nullptr);
    };
    const auto step_scalar = [](const Value* x, size_t i, size_t xn,
                                const Value* y, size_t j, size_t yn,
                                size_t mb) {
      return simd::ScalarNextMatchU64(x, i, xn, y, j, yn, mb);
    };
    const auto mv = DriveToFixpoint(a, b, kCap, step_vec);
    EXPECT_EQ(mv, DriveToFixpoint(a, b, kCap, step_scalar));
    EXPECT_EQ(mv.size(), short_len);
    // The u32 body at positions: the match after a seek is b's last rows.
    const size_t j = simd::ScalarLowerBoundU32(b32.data(), f32.j, kLong,
                                               a32[f32.i], false);
    const simd::Frontier m32 = simd::NextMatchU32(
        kVec, a32.data(), f32.i, a32.size(), b32.data(), j, kLong, kCap,
        nullptr);
    const simd::Frontier s32 = simd::ScalarNextMatchU32(
        a32.data(), f32.i, a32.size(), b32.data(), j, kLong, kCap);
    EXPECT_EQ(m32.kind, simd::Frontier::kMatch);
    EXPECT_EQ(m32.kind, s32.kind);
    EXPECT_EQ(m32.i, s32.i);
    EXPECT_EQ(m32.j, s32.j);
  }
}

TEST(SimdKernelTest, DecodeWindowMatchesDecodeInto) {
  Rng rng(2029);
  for (int trial = 0; trial < 800; ++trial) {
    // Domain size sweeps the code width across the quad-unpack boundary
    // (width <= 14 vectorizes; wider falls back to the scalar visitor).
    const uint64_t dom = 1 + rng.NextU64(trial % 3 == 0 ? (1u << 17) : 300);
    const size_t n = 4 + rng.NextU64(96);
    std::vector<Value> col(n);
    for (auto& v : col) v = rng.NextU64(dom);
    std::sort(col.begin(), col.end());
    std::vector<Value> dict(col);
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    const EncodedColumn ed = EncodedColumn::Dict(col, dict);
    const EncodedColumn ef =
        EncodedColumn::For(col, col.front(), col.back());
    for (const EncodedColumn* e : {&ed, &ef}) {
      const size_t begin = rng.NextU64(n);
      const size_t end = begin + rng.NextU64(n - begin + 1);
      std::vector<Value> want(end - begin), got(end - begin);
      e->DecodeInto(begin, end, want.data());
      simd::DecodeWindowU64(kVec, *e, begin, end, got.data(), nullptr);
      EXPECT_EQ(want, got) << "trial " << trial << " width " << e->width;
      ASSERT_TRUE(simd::FitsU32(*e));  // dom < 2^32 throughout
      std::vector<uint32_t> got32(end - begin);
      simd::DecodeWindowU32(kVec, *e, begin, end, got32.data(), nullptr);
      for (size_t t = 0; t < want.size(); ++t)
        ASSERT_EQ(want[t], static_cast<Value>(got32[t]))
            << "trial " << trial << " width " << e->width;
    }
  }
}

TEST(SimdKernelTest, FitsU32Boundaries) {
  const std::vector<Value> small{1, 2, 3};
  EXPECT_TRUE(simd::FitsU32(EncodedColumn::Dict(small, small)));
  const std::vector<Value> big{1, 2, (1ull << 32)};
  EXPECT_FALSE(simd::FitsU32(EncodedColumn::Dict(big, big)));
  // FOR whose *span* fits 32 bits but whose values do not.
  const std::vector<Value> high{(1ull << 40), (1ull << 40) + 7};
  EXPECT_FALSE(simd::FitsU32(
      EncodedColumn::For(high, high.front(), high.back())));
  EXPECT_TRUE(simd::FitsU32(EncodedColumn::For(small, 1, 3)));
}

TEST(SimdKernelTest, ScalarModeForcesScalarBodies) {
  ExecContext off;
  off.simd = false;
  const bool vec = simd::Available(off.simd);
  EXPECT_FALSE(vec);
  Rng rng(2030);
  const auto a = RandomSorted<Value>(&rng, 64, 40);
  // With the switch off the dispatchers run the scalar twins verbatim and
  // retire no vector block.
  int64_t blocks = 0;
  for (const bool strict : {false, true}) {
    for (const Value key : {Value{0}, Value{17}, Value{60}}) {
      EXPECT_EQ(simd::LowerBoundU64(vec, a.data(), 0, a.size(), key, strict,
                                    &blocks),
                simd::ScalarLowerBoundU64(a.data(), 0, a.size(), key, strict));
      EXPECT_EQ(
          simd::AdvanceU64(vec, a.data(), 0, a.size(), key, strict, &blocks),
          simd::ScalarAdvanceU64(a.data(), 0, a.size(), key, strict));
    }
  }
  EXPECT_EQ(blocks, 0);
}

/// The end-to-end contract: the multiway join's relation output is
/// bit-identical with the vector kernels on and off, for every encoding
/// mode and parallelism level — the SIMD layer is pure mechanism.
TEST(SimdKernelTest, MultiwayBitIdenticalSimdOnOff) {
  using S = CountingSemiring;
  const Hypergraph tri(3, {{0, 1}, {1, 2}, {0, 2}});
  for (const EncodingMode mode :
       {EncodingMode::kAuto, EncodingMode::kPlain, EncodingMode::kForceDict,
        EncodingMode::kForceFor}) {
    EncodingContext em(mode);
    for (const uint64_t seed : {7u, 8u}) {
      std::vector<Relation<S>> rels;
      for (int e = 0; e < tri.num_edges(); ++e)
        rels.push_back(RandomRelation<S>(tri.edge(e), 6000, 700,
                                         seed + static_cast<uint64_t>(e),
                                         /*skew=*/2, &em));
      for (const int par : {1, 3}) {
        SCOPED_TRACE(InstanceLabel("triangle mode=" +
                                       std::to_string(static_cast<int>(mode)) +
                                       " par=" + std::to_string(par),
                                   seed));
        EncodingContext con(mode), coff(mode);
        con.parallelism = coff.parallelism = par;
        con.simd = true;
        coff.simd = false;
        const Relation<S> ron = MultiwayJoin(rels, &con);
        const Relation<S> roff = MultiwayJoin(rels, &coff);
        EXPECT_TRUE(BytesEqual(ron, roff));
        // The vector leg must have retired blocks (or counted its
        // fallbacks) whenever the host has the kernels; the scalar leg
        // never retires a block.
        if (simd::Available(true)) {
          EXPECT_GT(con.multiway.simd_blocks + con.multiway.scalar_fallbacks,
                    0);
        }
        EXPECT_EQ(coff.multiway.simd_blocks, 0);
      }
    }
  }
}

}  // namespace
}  // namespace topofaq
