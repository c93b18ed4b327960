// Compressed-column tests (docs/kernel.md, "Compressed columns"): the
// bit-packing primitives, EncodedColumn round trips and code-space seeks,
// the encode-on-canonicalize policy, and — the core guarantee — that every
// operator produces byte-identical canonical output whether its inputs are
// plain, dictionary-encoded, FOR-encoded, or mixed, across four semirings
// and parallelism levels, and that the streaming transport ships encoded
// pages bit-identically while paying fewer payload bits than the plain
// r·log2(D) cost model.
//
// CI also runs the whole test matrix with TOPOFAQ_ENCODING=dict and =for,
// which forces every Canonicalize in every suite through the encoded
// kernel instantiations.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "bench/scan_checksum.h"
#include "bit_identity.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "network/stream.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "random_instances.h"
#include "relation/encoding.h"
#include "relation/multiway.h"
#include "relation/ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using NRel = Relation<NaturalSemiring>;

// ---------------------------------------------------------------------------
// Bit-packing primitives
// ---------------------------------------------------------------------------

TEST(BitPack, RoundTripEveryWidth) {
  Rng rng(7);
  for (int width = 1; width <= 64; ++width) {
    const uint64_t mask = PackMask(width);
    const size_t n = 131;  // odd count: codes straddle word boundaries
    std::vector<uint64_t> vals(n);
    for (auto& v : vals) v = rng.NextU64() & mask;
    std::vector<uint64_t> words(PackedWords(n, width), 0);
    for (size_t i = 0; i < n; ++i) PackAt(words.data(), i, width, vals[i]);
    for (size_t i = 0; i < n; ++i)
      ASSERT_EQ(UnpackAt(words.data(), i, width, mask), vals[i])
          << "width " << width << " pos " << i;
    std::vector<uint64_t> out(n);
    UnpackRange(words.data(), 0, n, width, out.data());
    EXPECT_EQ(out, vals) << "width " << width;
  }
}

TEST(BitPack, MaskAndWordCounts) {
  EXPECT_EQ(PackMask(1), 1ull);
  EXPECT_EQ(PackMask(63), ~0ull >> 1);
  EXPECT_EQ(PackMask(64), ~0ull);
  // 64 three-bit codes = 192 bits = 3 words, +1 padding.
  EXPECT_EQ(PackedWords(64, 3), 4u);
  EXPECT_EQ(PackedWords(0, 17), 1u);  // padding word alone
}

// ---------------------------------------------------------------------------
// EncodedColumn
// ---------------------------------------------------------------------------

TEST(EncodedColumn, ForRoundTripAndSeeks) {
  // Sorted column with a large base: FOR stores narrow deltas.
  std::vector<Value> col;
  for (uint64_t i = 0; i < 500; ++i) col.push_back(1'000'000 + i * 3);
  const EncodedColumn e = EncodedColumn::For(col, col.front(), col.back());
  ASSERT_EQ(e.encoding, ColumnEncoding::kFor);
  EXPECT_LT(e.width, 12);  // span 1497 -> 11 bits, not 64
  for (size_t i = 0; i < col.size(); ++i) ASSERT_EQ(e.At(i), col[i]);
  std::vector<Value> dec(col.size());
  e.DecodeInto(0, col.size(), dec.data());
  EXPECT_EQ(dec, col);
  // LowerCode/UpperCode are the code-space images of lower/upper_bound.
  for (Value key : {Value{0}, col.front(), col.front() + 1, col[250],
                    col.back(), col.back() + 7}) {
    const auto lb = std::lower_bound(col.begin(), col.end(), key) - col.begin();
    const auto ub = std::upper_bound(col.begin(), col.end(), key) - col.begin();
    // Codes are monotone in value, so comparing stored codes against the
    // translated key code reproduces the value-space bounds.
    size_t lpos = 0, upos = 0;
    while (lpos < e.rows && e.CodeAt(lpos) < e.LowerCode(key)) ++lpos;
    while (upos < e.rows && e.CodeAt(upos) < e.UpperCode(key)) ++upos;
    EXPECT_EQ(static_cast<int64_t>(lpos), lb) << key;
    EXPECT_EQ(static_cast<int64_t>(upos), ub) << key;
  }
  // Top-of-domain strict seek: UpperCode saturates to the ~0ull sentinel.
  EXPECT_EQ(e.UpperCode(~0ull), ~0ull);
}

TEST(EncodedColumn, DictRoundTripAndSeeks) {
  // Skewed low-cardinality column (sorted, as in canonical storage).
  std::vector<Value> col;
  for (uint64_t v : {5u, 5u, 5u, 9u, 9u, 1000u, 1000u, 1000u, 1000u, 4096u})
    col.push_back(v);
  const EncodedColumn e =
      EncodedColumn::Dict(col, std::vector<Value>{5, 9, 1000, 4096});
  ASSERT_EQ(e.encoding, ColumnEncoding::kDict);
  EXPECT_EQ(e.width, 2);
  EXPECT_EQ(e.code_domain(), 4u);
  for (size_t i = 0; i < col.size(); ++i) ASSERT_EQ(e.At(i), col[i]);
  // Code order == value order (the dictionary is sorted).
  for (size_t i = 1; i < col.size(); ++i)
    EXPECT_LE(e.CodeAt(i - 1), e.CodeAt(i));
  EXPECT_EQ(e.LowerCode(5), 0u);
  EXPECT_EQ(e.LowerCode(6), 1u);    // between entries: next code
  EXPECT_EQ(e.UpperCode(9), 2u);
  EXPECT_EQ(e.LowerCode(9999), 4u);  // past every entry: == dict size
}

TEST(EncodedColumn, ScanChecksumMatchesNaiveFold) {
  // The fused (possibly vectorized) fold must agree bit-for-bit with the
  // naive per-row Σ (3·value + annot) across encodings, widths above and
  // below the SIMD eligibility cut, unaligned begins, and short tails.
  Rng rng(77);
  for (const size_t n : {size_t{3}, size_t{257}, size_t{4096}}) {
    for (const bool wide : {false, true}) {
      std::vector<Value> col(n);
      const uint64_t span = wide ? (uint64_t{1} << 40) : 900;
      for (auto& v : col) v = 1'000'000 + rng.NextU64(span);
      std::sort(col.begin(), col.end());
      std::vector<uint64_t> annots(n);
      for (auto& a : annots) a = rng.NextU64(1'000'000);
      const Value mn = col.front();
      const Value mx = col.back();
      std::vector<Value> d(col);
      d.erase(std::unique(d.begin(), d.end()), d.end());
      const EncodedColumn forenc = EncodedColumn::For(col, mn, mx);
      const EncodedColumn dictenc = EncodedColumn::Dict(col, d);
      for (const EncodedColumn* e : {&forenc, &dictenc}) {
        for (const size_t begin : {size_t{0}, size_t{1}, n / 3}) {
          for (const size_t end : {n, n - 1, begin}) {
            if (end < begin) continue;
            uint64_t naive = 0;
            for (size_t i = begin; i < end; ++i)
              naive += 3 * e->At(i) + annots[i];
            ASSERT_EQ(ScanChecksum(*e, begin, end, annots.data()), naive)
                << "n=" << n << " wide=" << wide << " enc=" << int(e->encoding)
                << " range=[" << begin << "," << end << ")";
          }
        }
      }
    }
  }
}

TEST(EncodedColumn, SliceSharesCodeSpace) {
  std::vector<Value> col;
  for (uint64_t i = 0; i < 100; ++i) col.push_back(i / 7);
  std::vector<Value> dict;
  for (uint64_t v = 0; v < 15; ++v) dict.push_back(v);
  const EncodedColumn src = EncodedColumn::Dict(col, dict);
  // First page ships the dictionary; later pages elide it but keep the
  // same code space, so the sink's cached dictionary still decodes them.
  const EncodedColumn first = EncodedColumn::Slice(src, 0, 40, true);
  const EncodedColumn later = EncodedColumn::Slice(src, 40, 100, false);
  EXPECT_EQ(first.dict, src.dict);
  EXPECT_TRUE(later.dict.empty());
  EXPECT_EQ(later.width, src.width);
  for (size_t i = 0; i < 40; ++i) ASSERT_EQ(first.At(i), col[i]);
  for (size_t i = 0; i < 60; ++i)
    ASSERT_EQ(src.dict[later.CodeAt(i)], col[40 + i]);
}

/// PackAt-per-code reference words for `codes` at `width`.
std::vector<uint64_t> PackAtReference(const std::vector<uint64_t>& codes,
                                      int width) {
  std::vector<uint64_t> words(PackedWords(codes.size(), width), 0);
  for (size_t i = 0; i < codes.size(); ++i)
    PackAt(words.data(), i, width, codes[i]);
  return words;
}

TEST(EncodedColumn, SequentialPackMatchesPackAt) {
  // For, Dict and Slice pack through one sequential word writer; its words
  // must equal a PackAt per code, padding word included, at widths around
  // the word and the single-load unpack boundaries, for counts that end
  // mid-word, on a word boundary and with a straddling last code.
  Rng rng(17);
  for (int width : {1, 7, 14, 57, 63, 64}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{65},
                     size_t{1000}}) {
      SCOPED_TRACE("width " + std::to_string(width) + " n " +
                   std::to_string(n));
      const uint64_t mask = PackMask(width);
      const Value base = width == 64 ? 0 : 1000;
      std::vector<uint64_t> codes(n);
      for (uint64_t& c : codes) c = rng.NextU64() & mask;
      if (n > 1) {  // pin the full code range
        codes[0] = 0;
        codes[1] = mask;
      }
      std::vector<Value> col(n);
      for (size_t i = 0; i < n; ++i) col[i] = base + codes[i];
      const EncodedColumn f = EncodedColumn::For(col, base, base + mask);
      ASSERT_EQ(f.width, width);
      EXPECT_EQ(f.words, PackAtReference(codes, width));
      if (n > 2) {
        const EncodedColumn sl = EncodedColumn::Slice(f, 1, n - 1, false);
        EXPECT_EQ(sl.words,
                  PackAtReference(std::vector<uint64_t>(codes.begin() + 1,
                                                        codes.end() - 1),
                                  width));
      }
      if (width <= 14 && n > 0) {  // a 2^width-entry dictionary
        std::vector<Value> dict(size_t{1} << width);
        for (size_t k = 0; k < dict.size(); ++k) dict[k] = 3 * k + 5;
        std::vector<Value> dcol(n);
        for (size_t i = 0; i < n; ++i) dcol[i] = dict[codes[i]];
        const EncodedColumn d = EncodedColumn::Dict(dcol, dict);
        ASSERT_EQ(d.width, width);
        EXPECT_EQ(d.words, PackAtReference(codes, width));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Encode-on-canonicalize policy
// ---------------------------------------------------------------------------

TEST(EncodingPolicy, ForcedModesEncodeUnconditionally) {
  std::vector<Value> tiny{3, 1, 4, 1, 5};
  const ColumnStats st = ColumnStats::Of(tiny);
  EXPECT_EQ(ChooseAndEncode(tiny, st, EncodingMode::kForceFor, false).encoding,
            ColumnEncoding::kFor);
  EXPECT_EQ(ChooseAndEncode(tiny, st, EncodingMode::kForceDict, false).encoding,
            ColumnEncoding::kDict);
  EXPECT_EQ(ChooseAndEncode(tiny, st, EncodingMode::kPlain, false).encoding,
            ColumnEncoding::kPlain);
}

TEST(EncodingPolicy, AutoSkipsShortColumns) {
  std::vector<Value> col(kEncodeMinRows - 1, 7);
  EXPECT_EQ(ChooseAndEncode(col, ColumnStats::Of(col), EncodingMode::kAuto,
                            true)
                .encoding,
            ColumnEncoding::kPlain);
}

TEST(EncodingPolicy, AutoPrefersForOnLeadingNarrowColumn) {
  // A sorted leading key column over a narrow domain: classic FOR target.
  std::vector<Value> col;
  for (size_t i = 0; i < 2 * kEncodeMinRows; ++i)
    col.push_back(1u << 20 | (i / 3));
  const EncodedColumn e =
      ChooseAndEncode(col, ColumnStats::Of(col), EncodingMode::kAuto, true);
  EXPECT_EQ(e.encoding, ColumnEncoding::kFor);
  EXPECT_LE(e.width, 13);  // ~2730 distinct deltas
}

TEST(EncodingPolicy, AutoPicksDictOnLowCardinalityRuns) {
  // Long runs over 16 distinct wide values: run_heads tiny, FOR span huge.
  std::vector<Value> col;
  for (size_t i = 0; i < 2 * kEncodeMinRows; ++i)
    col.push_back((i / 512) * 0x0123456789abull);
  const EncodedColumn e =
      ChooseAndEncode(col, ColumnStats::Of(col), EncodingMode::kAuto, false);
  EXPECT_EQ(e.encoding, ColumnEncoding::kDict);
  EXPECT_LE(e.width, 5);
}

TEST(EncodingPolicy, AutoLeavesWideRandomColumnsPlain) {
  // Full-width random values: neither encoding halves the payload.
  Rng rng(13);
  std::vector<Value> col(2 * kEncodeMinRows);
  for (auto& v : col) v = rng.NextU64();
  EXPECT_EQ(ChooseAndEncode(col, ColumnStats::Of(col), EncodingMode::kAuto,
                            false)
                .encoding,
            ColumnEncoding::kPlain);
}

// ---------------------------------------------------------------------------
// Relation round trips
// ---------------------------------------------------------------------------

TEST(RelationEncoding, EncodeDecodeRoundTrip) {
  EncodingContext plain(EncodingMode::kPlain);
  NRel base =
      RandomRelation<NaturalSemiring>({0, 1}, 6000, 4096, 21, 2, &plain);
  ASSERT_FALSE(base.any_encoded());
  for (EncodingMode m : {EncodingMode::kForceDict, EncodingMode::kForceFor}) {
    EncodingContext force(m);
    NRel enc = base;
    enc.EncodeColumns(&force);
    ASSERT_TRUE(enc.any_encoded());
    // Every accessor decodes to the same values.
    for (size_t j = 0; j < enc.arity(); ++j) {
      const ColView v = enc.view(j);
      for (size_t i = 0; i < enc.size(); ++i)
        ASSERT_EQ(v.At(i), base.col(j)[i]);
    }
    EXPECT_TRUE(BytesEqual(enc, base));  // columns() decodes
    // Packed codes pin fewer bytes than the raw columns.
    EXPECT_LT(enc.ResidentKeyBytes(), base.ResidentKeyBytes());
    enc.DecodeAll();
    EXPECT_FALSE(enc.any_encoded());
    EXPECT_TRUE(BytesEqual(enc, base));
  }
}

TEST(RelationEncoding, MutationDecodesFirst) {
  EncodingContext force(EncodingMode::kForceFor);
  NRel r = RandomRelation<NaturalSemiring>({0, 1}, 100, 32, 5, 0, &force);
  ASSERT_TRUE(r.any_encoded());
  r.Add({99, 99}, 3);  // mutators drop to plain storage...
  EXPECT_FALSE(r.canonical());
  r.Canonicalize(&force);  // ...and canonicalize re-encodes
  EXPECT_TRUE(r.any_encoded());
  EXPECT_EQ(r.at(r.size() - 1, 0), 99u);
}

TEST(RelationEncoding, AutoEncodingPreservesBytes) {
  // Auto mode on a large skewed relation: encoded and plain builds of the
  // same rows must decode identically.
  EncodingContext plain(EncodingMode::kPlain), autom(EncodingMode::kAuto);
  NRel base =
      RandomRelation<NaturalSemiring>({0, 1, 2}, 20000, 256, 33, 0, &plain);
  NRel enc =
      RandomRelation<NaturalSemiring>({0, 1, 2}, 20000, 256, 33, 0, &autom);
  EXPECT_FALSE(base.any_encoded());
  EXPECT_TRUE(enc.any_encoded());  // 20k rows over a 256-value domain
  EXPECT_TRUE(BytesEqual(enc, base));
}

// ---------------------------------------------------------------------------
// Operator differentials: plain vs dict vs FOR vs mixed, 4 semirings,
// parallelism {1, 2, hw}
// ---------------------------------------------------------------------------

/// Runs Join/Eliminate on (left, right) under every
/// encoding pairing and parallelism level; all results must match the
/// all-plain serial bytes. Outputs are built on kPlain contexts so the
/// comparison isolates *input* encodings (output encoding is covered by
/// the round-trip tests above).
template <CommutativeSemiring S>
void CheckOpsEncodingInvariant(const Relation<S>& left,
                               const Relation<S>& right, const char* what) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  EncodingContext serial(EncodingMode::kPlain);
  serial.parallelism = 1;
  const Relation<S> join0 = Join(left, right, &serial);
  const Relation<S> elim0 =
      Eliminate(left, {left.schema().var(left.arity() - 1)},
                {VarOp::kSemiringSum}, &serial);
  const EncodingMode modes[] = {EncodingMode::kPlain, EncodingMode::kForceDict,
                                EncodingMode::kForceFor};
  for (EncodingMode lm : modes) {
    for (EncodingMode rm : modes) {
      const Relation<S> l = Recode(left, lm);
      const Relation<S> r = Recode(right, rm);
      for (int p : {1, 2, hw}) {
        EncodingContext ctx(EncodingMode::kPlain);
        ctx.parallelism = p;
        SCOPED_TRACE(std::string(what) + " lm=" + std::to_string(int(lm)) +
                     " rm=" + std::to_string(int(rm)) + " p=" +
                     std::to_string(p));
        EXPECT_TRUE(BytesEqual(Join(l, r, &ctx), join0));
        EXPECT_TRUE(BytesEqual(
            Eliminate(l, {l.schema().var(l.arity() - 1)},
                      {VarOp::kSemiringSum}, &ctx),
            elim0));
      }
    }
  }
}

template <CommutativeSemiring S>
void RunEncodedSemiringSuite(uint64_t seed) {
  EncodingContext plain(EncodingMode::kPlain);
  const size_t n = 5000;  // above kEncodeMinRows and kParallelMinRows
  // Skewed keys: long runs, where dictionaries actually engage.
  CheckOpsEncodingInvariant<S>(
      RandomRelation<S>({0, 1}, n, 5000, seed, 2, &plain),
      RandomRelation<S>({1, 2}, n, 5000, seed + 1, 2, &plain),
      "skewed probe join");
  // Prefix-aligned merge path.
  CheckOpsEncodingInvariant<S>(
      RandomRelation<S>({0, 1}, n, 256, seed + 2, 0, &plain),
      RandomRelation<S>({0, 2}, n, 256, seed + 3, 0, &plain),
      "prefix merge join");
}

TEST(EncodedOps, NaturalSemiring) {
  RunEncodedSemiringSuite<NaturalSemiring>(501);
}
TEST(EncodedOps, CountingSemiring) {
  RunEncodedSemiringSuite<CountingSemiring>(502);
}
TEST(EncodedOps, MinPlusSemiring) {
  RunEncodedSemiringSuite<MinPlusSemiring>(503);
}
TEST(EncodedOps, Gf2Semiring) { RunEncodedSemiringSuite<Gf2Semiring>(504); }

TEST(EncodedOps, MultiwayTriangleMatchesPlain) {
  using S = NaturalSemiring;
  EncodingContext serial(EncodingMode::kPlain);
  serial.parallelism = 1;
  const Relation<S> r = RandomRelation<S>({0, 1}, 5000, 48, 601, 1, &serial);
  const Relation<S> s = RandomRelation<S>({1, 2}, 5000, 48, 602, 1, &serial);
  const Relation<S> t = RandomRelation<S>({0, 2}, 5000, 48, 603, 1, &serial);
  const Relation<S> base =
      MultiwayJoin(std::vector<Relation<S>>{r, s, t}, &serial);
  ASSERT_GT(base.size(), 0u);
  for (EncodingMode m : {EncodingMode::kForceDict, EncodingMode::kForceFor}) {
    for (int p : {1, 2}) {
      EncodingContext ctx(EncodingMode::kPlain);
      ctx.parallelism = p;
      SCOPED_TRACE("mode " + std::to_string(int(m)) + " p " +
                   std::to_string(p));
      EXPECT_TRUE(BytesEqual(
          MultiwayJoin(std::vector<Relation<S>>{Recode(r, m), Recode(s, m),
                                                Recode(t, m)},
                       &ctx),
          base));
    }
  }
  // Mixed: each input under a different encoding.
  EncodingContext ctx(EncodingMode::kPlain);
  EXPECT_TRUE(BytesEqual(
      MultiwayJoin(
          std::vector<Relation<S>>{Recode(r, EncodingMode::kForceDict),
                                   Recode(s, EncodingMode::kForceFor),
                                   Recode(t, EncodingMode::kPlain)},
          &ctx),
      base));
}

TEST(EncodedOps, EliminateBatchedFoldMatchesPlain) {
  using S = MinPlusSemiring;
  EncodingContext serial(EncodingMode::kPlain);
  serial.parallelism = 1;
  const Relation<S> r =
      RandomRelation<S>({0, 1, 2, 3}, 6000, 16, 71, 1, &serial);
  const Relation<S> base =
      Eliminate(r, {3, 2}, {VarOp::kSemiringSum, VarOp::kSemiringSum},
                &serial);
  for (EncodingMode m : {EncodingMode::kForceDict, EncodingMode::kForceFor}) {
    EncodingContext ctx(EncodingMode::kPlain);
    ctx.parallelism = 2;
    EXPECT_TRUE(BytesEqual(
        Eliminate(Recode(r, m), {3, 2},
                  {VarOp::kSemiringSum, VarOp::kSemiringSum}, &ctx),
        base));
  }
}

// ---------------------------------------------------------------------------
// Transport: encoded pages are bit-identical and cheaper than plain
// ---------------------------------------------------------------------------

TEST(EncodedStream, RoundTripIsBitIdenticalAndCheaper) {
  EncodingContext force(EncodingMode::kForceDict);
  NRel r = RandomRelation<NaturalSemiring>({0, 1, 2}, 5000, 64, 81, 2, &force);
  ASSERT_TRUE(r.any_encoded());
  AsyncNetwork net(LineTopology(2), LinkParams{1.0, 64.0});
  StreamNet<NaturalSemiring> streams(
      &net, StreamOptions{.page_rows = 64, .node_page_budget = 4}, &force);
  NRel rebuilt;
  bool done = false;
  streams.SendRelation(0, 1, r, /*bits_per_attr=*/32, [&](NRel got) {
    rebuilt = std::move(got);
    done = true;
  });
  net.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(BytesEqual(r, rebuilt));
  EXPECT_EQ(rebuilt.col_encoding(0), ColumnEncoding::kDict);  // sink's mode
  // Narrow dictionary codes beat the 32-bit plain model by a wide margin.
  EXPECT_LT(streams.payload_bits_encoded(), streams.payload_bits_plain());
  EXPECT_EQ(streams.payload_bits_plain(), r.EncodedBits(32));
}

template <CommutativeSemiring S>
DistInstance<S> SkewedInstance(int seed, Graph g, ExecContext* ctx) {
  Rng rng(seed);
  Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
  DistInstance<S> inst;
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    // Low cardinality, wide magnitude, large common base: the plain
    // r·log2(D) model pays for the magnitude, dictionary codes only for
    // the cardinality, and FOR deltas only for the span above the base.
    Relation<S> r{Schema(h.edge(e))};
    std::vector<Value> row(r.arity());
    for (int i = 0; i < 5000; ++i) {
      for (auto& v : row)
        v = (Value{1} << 30) + rng.NextU64(16) * 1'000'003;
      r.Add(row, TestAnnot<S>(rng.NextU64(1 << 20)));
    }
    r.Canonicalize(ctx);
    rels.push_back(std::move(r));
  }
  inst.query = MakeFaqSS<S>(h, std::move(rels), {});
  inst.topology = std::move(g);
  inst.owners = RoundRobinOwners(h.num_edges(), inst.topology.num_nodes());
  inst.sink = inst.topology.num_nodes() - 1;
  return inst;
}

TEST(EncodedStream, AsyncProtocolsMatchSyncUnderForcedEncodings) {
  EncodingContext plain(EncodingMode::kPlain);
  auto inst = SkewedInstance<NaturalSemiring>(901, LineTopology(4), &plain);
  auto sync = RunTrivialProtocol(inst, {}, &plain);
  ASSERT_TRUE(sync.ok());
  for (EncodingMode m : {EncodingMode::kForceDict, EncodingMode::kForceFor}) {
    auto enc = inst;
    for (auto& r : enc.query.relations) r = Recode(r, m);
    EncodingContext scope(m);  // intermediates re-encode under m too
    AsyncProtocolOptions opts;
    opts.stream.page_rows = 64;
    auto async = RunTrivialProtocolAsync(enc, opts, &scope);
    ASSERT_TRUE(async.ok()) << int(m);
    EXPECT_TRUE(BytesEqual(sync->answer, async->answer)) << int(m);
    // The encoded payload accounting reflects real savings, and the plain
    // accounting matches the cost model the sync ledger charges.
    EXPECT_GT(async->stats.payload_bits_plain, 0);
    EXPECT_LT(async->stats.payload_bits_encoded,
              async->stats.payload_bits_plain);
  }
}

}  // namespace
}  // namespace topofaq
