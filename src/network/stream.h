// Streaming relation transport over the AsyncNetwork (async.h): ships a
// `Relation<S>` from one node to another as a sequence of fixed-size
// column-chunk pages instead of one whole-relation payload, so a relation
// larger than the in-flight budget never fully materializes on the wire.
//
// Page format: `RelationPage<S>` holds `page_rows` consecutive rows of the
// source relation as per-column chunks (the same struct-of-arrays layout as
// Relation itself) plus the parallel annotation chunk and a `last` flag.
// Pages are plain row ranges — a single key run may span a page boundary;
// the sink's RelationBuilder re-certifies the canonical invariant with no
// sort because pages arrive in row order over FIFO channels.
//
// Compressed columns ship compressed: a chunk of an encoded source column
// (relation/encoding.h) is re-packed as the bit-packed code slice it covers
// (EncodedColumn::Slice) instead of decoded values, and the packet's wire
// bits are the true packed payload — rows·width bits per encoded column
// versus rows·bits_per_attr for a plain one. A dictionary travels exactly
// once per stream, on the first page; the sink caches it and decodes every
// later chunk against the cached copy. Decoding happens only at the sink's
// AppendChunk splice (the RelationBuilder emission point), and the rebuilt
// relation re-runs the encode-on-canonicalize policy in Build(), so a
// skewed relation stays compressed end to end: in memory at the source, on
// every hop of the wire, and in memory at the sink. The per-stream
// encoded/plain payload totals are exported for ProtocolStats.
//
// Backpressure rule: every *source node* has a page budget
// (`StreamOptions::node_page_budget`, shared by all streams it is currently
// sourcing). A page is charged against the budget when it is materialized,
// travels hop-by-hop along the stream's fixed shortest-path route, is freed
// when the final sink consumes it, and the budget slot returns to the source
// as a small credit packet routed back along the same path. A source at its
// budget stalls (no page is cut from the relation at all) until a credit
// arrives, so the pages in flight *per source node* never exceed the budget
// (relayed pages stay charged to their source; a relay buffers forwarded
// pages on top of its own budget) — the InFlightLedger records the
// high-water mark protocols export as `ProtocolStats::max_in_flight_pages`.
//
// Determinism: pages of one stream arrive in sequence order (FIFO channels,
// fixed route), sources are pumped in stream-id order, and the rebuilt
// relation is bit-identical — per column and annotation bit pattern — to the
// source (RelationBuilder's sorted path, no closing sort).
#ifndef TOPOFAQ_NETWORK_STREAM_H_
#define TOPOFAQ_NETWORK_STREAM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "network/async.h"
#include "relation/relation.h"

namespace topofaq {

/// Knobs of the streaming transport.
struct StreamOptions {
  /// Rows per page (the chunk size payloads are cut into).
  size_t page_rows = 4096;
  /// Max pages one source node may have materialized in flight, across all
  /// streams it is sourcing (the backpressure budget; >= 1).
  int64_t node_page_budget = 8;
};

/// Fixed per-page framing overhead on the wire (stream id, seq, row count).
inline constexpr int64_t kPageHeaderBits = 64;
/// Wire size of one credit (budget-return) packet.
inline constexpr int64_t kCreditBits = 32;

/// Exact in-flight page accounting, per source node. A page is "in flight"
/// from the moment the source materializes it until the sink consumes it;
/// the budget slot itself is only reusable once the credit returns.
class InFlightLedger {
 public:
  explicit InFlightLedger(int num_nodes);

  void Charge(NodeId src);
  void Release(NodeId src);
  int64_t InFlight(NodeId src) const { return in_flight_[src]; }
  /// High-water mark of in-flight pages charged to any single source node
  /// (relayed pages count against their source, not the relay).
  int64_t peak_pages() const { return peak_; }
  /// Pages ever charged (== pages shipped end to end when drained).
  int64_t total_pages() const { return total_; }

 private:
  std::vector<int64_t> in_flight_;
  int64_t peak_ = 0;
  int64_t total_ = 0;
};

/// One column chunk of a page: raw values (kPlain) or a bit-packed code
/// slice sharing the source column's code space (kDict / kFor). The
/// dictionary rides in `enc.dict` only on the stream's first page; later
/// chunks carry codes alone and the sink decodes them against its cached
/// copy.
struct PageCol {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  std::vector<Value> plain;  // kPlain only
  EncodedColumn enc;         // kDict / kFor only
};

/// One page: rows [row_begin, row_begin + rows()) of the source relation as
/// column chunks, schema order, plus the annotation chunk.
template <CommutativeSemiring S>
struct RelationPage {
  std::vector<PageCol> cols;
  std::vector<typename S::Value> annots;
  bool last = false;
  size_t rows() const { return annots.size(); }
};

/// The transport. Owns every node's AsyncNetwork handler (protocol adapters
/// interact through SendRelation completions and ScheduleAfter, never raw
/// packets). One StreamNet per simulation; all streams of a run share its
/// ledger. Sinks rebuild relations under `ctx`'s encoding mode (the
/// thread-local default context's for nullptr); `ctx` is borrowed.
template <CommutativeSemiring S>
class StreamNet {
 public:
  using Completion = std::function<void(Relation<S>)>;

  StreamNet(AsyncNetwork* net, StreamOptions opts, ExecContext* ctx = nullptr)
      : net_(net), opts_(opts), ctx_(ctx), ledger_(net->graph().num_nodes()) {
    TOPOFAQ_CHECK_MSG(opts_.page_rows >= 1, "page_rows must be >= 1");
    TOPOFAQ_CHECK_MSG(opts_.node_page_budget >= 1, "page budget must be >= 1");
    for (NodeId v = 0; v < net_->graph().num_nodes(); ++v)
      net_->SetHandler(v, [this, v](Packet p) { OnPacket(v, std::move(p)); });
  }

  /// Ships `rel` from `src` to `dst` (any pair of nodes; the route is the
  /// shortest path) and invokes `done` with the rebuilt relation once the
  /// last page is consumed at `dst`. `rel` must be canonical and must stay
  /// alive and unmodified until `done` fires — pages are cut from it lazily
  /// as budget allows, which is exactly what keeps oversized payloads from
  /// materializing. src == dst delivers a copy at the next simulated
  /// instant with no pages or bits.
  void SendRelation(NodeId src, NodeId dst, const Relation<S>& rel,
                    int bits_per_attr, Completion done) {
    TOPOFAQ_CHECK_MSG(rel.canonical(),
                      "streamed relations must be canonical (sorted pages "
                      "are what lets the sink skip its closing sort)");
    if (src == dst) {
      net_->ScheduleAfter(0, [done = std::move(done), copy = rel]() mutable {
        done(std::move(copy));
      });
      return;
    }
    const uint64_t id = next_stream_++;
    std::vector<NodeId> route = net_->graph().ShortestPath(src, dst);
    TOPOFAQ_CHECK_MSG(!route.empty(), "no route between stream endpoints");
    routes_[id] = std::move(route);
    sources_.emplace(id, SourceState{&rel, bits_per_attr, 0, 0, false});
    sinks_.emplace(id, SinkState{RelationBuilder<S>(rel.schema()),
                                 std::move(done),
                                 {},
                                 {}});
    Pump(src);
  }

  int64_t pages_shipped() const { return ledger_.total_pages(); }
  int64_t max_in_flight_pages() const { return ledger_.peak_pages(); }

  /// Actual payload bits shipped (annotations + column chunks as encoded,
  /// dictionaries included; framing/credits excluded) — what the packets'
  /// wire bits charge.
  int64_t payload_bits_encoded() const { return payload_bits_encoded_; }
  /// The same payload priced by the plain r·log2(D) cost model. The ratio
  /// encoded/plain is the wire compression the column encodings bought;
  /// the two are equal when every shipped column was plain.
  int64_t payload_bits_plain() const { return payload_bits_plain_; }

 private:
  struct SourceState {
    const Relation<S>* rel;
    int bits_per_attr;
    size_t next_row;
    int64_t seq;
    bool all_sent;  // the `last` page has been materialized
  };
  struct SinkState {
    RelationBuilder<S> builder;
    Completion done;
    /// Per-column dictionaries cached from the stream's first page; later
    /// chunks of a dict column decode against these.
    std::vector<std::vector<Value>> dicts;
    /// Decoded-chunk scratch reused across pages of this stream.
    std::vector<std::vector<Value>> scratch;
  };

  /// Materializes and launches pages for every stream sourced at `src`, in
  /// stream-id order, until the node's budget is exhausted or nothing is
  /// left to send.
  void Pump(NodeId src) {
    for (auto& [id, st] : sources_) {
      if (routes_[id].front() != src || st.all_sent) continue;
      while (!st.all_sent &&
             ledger_.InFlight(src) < opts_.node_page_budget) {
        const size_t n = st.rel->size();
        const size_t begin = st.next_row;
        const size_t end = std::min(n, begin + opts_.page_rows);
        const int64_t rows = static_cast<int64_t>(end - begin);
        auto page = std::make_shared<RelationPage<S>>();
        page->cols.reserve(st.rel->arity());
        // Payload accounting: encoded columns cost their true packed bits
        // (plus the dictionary, once per stream); plain columns keep the
        // r·log2(D) cost model, so a fully plain relation's wire bits are
        // unchanged from the pre-encoding transport.
        int64_t payload = rows * S::kValueBits;
        for (size_t j = 0; j < st.rel->arity(); ++j) {
          PageCol pc;
          if (const EncodedColumn* e = st.rel->encoded_col(j)) {
            const bool ship_dict =
                st.seq == 0 && e->encoding == ColumnEncoding::kDict;
            pc.encoding = e->encoding;
            pc.enc = EncodedColumn::Slice(*e, begin, end, ship_dict);
            payload += rows * e->width;
            if (ship_dict) payload += static_cast<int64_t>(e->DictBits());
          } else {
            ColumnView c = st.rel->col(j, begin, end);
            pc.plain.assign(c.begin(), c.end());
            payload += rows * st.bits_per_attr;
          }
          page->cols.push_back(std::move(pc));
        }
        const auto& an = st.rel->annots();
        page->annots.assign(an.begin() + begin, an.begin() + end);
        page->last = end == n;
        st.next_row = end;
        st.all_sent = page->last;
        payload_bits_encoded_ += payload;
        payload_bits_plain_ +=
            st.rel->EncodedBitsRange(begin, end, st.bits_per_attr);
        Packet p;
        p.src = src;
        p.dst = routes_[id].back();
        p.bits = kPageHeaderBits + payload;
        p.stream = id;
        p.seq = st.seq++;
        p.hop = 0;
        p.payload = std::move(page);
        ledger_.Charge(src);
        net_->Send(src, routes_[id][1], std::move(p));
      }
    }
  }

  void OnPacket(NodeId at, Packet p) {
    const std::vector<NodeId>& route = routes_.at(p.stream);
    if (p.control) {
      // Credit flowing back toward the source: hop index decreases.
      p.hop -= 1;
      TOPOFAQ_DCHECK(route[p.hop] == at);
      if (p.hop > 0) {
        net_->Send(at, route[p.hop - 1], std::move(p));
        return;
      }
      ledger_.Release(at);
      Pump(at);
      return;
    }
    p.hop += 1;
    TOPOFAQ_DCHECK(route[p.hop] == at);
    if (at != p.dst) {  // relay: store-and-forward toward the sink
      net_->Send(at, route[p.hop + 1], std::move(p));
      return;
    }
    Consume(at, std::move(p));
  }

  /// Final-hop delivery: fold the page into the sink builder, free it, and
  /// return the budget slot to the source as a credit packet.
  void Consume(NodeId at, Packet p) {
    auto it = sinks_.find(p.stream);
    TOPOFAQ_CHECK_MSG(it != sinks_.end(), "page for an unknown stream");
    SinkState& sink = it->second;
    auto* page = static_cast<RelationPage<S>*>(p.payload.get());
    // Decode the chunks here — the RelationBuilder emission point, the one
    // place packed codes turn back into values. A first-page dictionary is
    // captured into the per-stream cache; FOR chunks are self-contained.
    const size_t rows = page->rows();
    if (sink.dicts.size() < page->cols.size())
      sink.dicts.resize(page->cols.size());
    std::vector<std::vector<Value>>& cols = sink.scratch;
    cols.resize(page->cols.size());
    for (size_t j = 0; j < page->cols.size(); ++j) {
      PageCol& pc = page->cols[j];
      if (pc.encoding == ColumnEncoding::kPlain) {
        cols[j] = std::move(pc.plain);
        continue;
      }
      cols[j].resize(rows);
      if (pc.encoding == ColumnEncoding::kFor) {
        pc.enc.DecodeInto(0, rows, cols[j].data());
        continue;
      }
      if (!pc.enc.dict.empty()) sink.dicts[j] = std::move(pc.enc.dict);
      const std::vector<Value>& dict = sink.dicts[j];
      const uint64_t m = pc.enc.mask();
      for (size_t i = 0; i < rows; ++i)
        cols[j][i] = dict[UnpackAt(pc.enc.words.data(), i, pc.enc.width, m)];
    }
    // Pages are contiguous sorted column chunks already — splice them in
    // bulk (one boundary compare + arity+1 range inserts) instead of
    // regathering row by row. Build() re-runs the encoding policy, so a
    // compressed source arrives compressed.
    const std::vector<ColumnView> views(cols.begin(), cols.end());
    sink.builder.AppendChunk(
        views, std::span<const typename S::Value>(page->annots));
    const bool last = page->last;
    p.payload.reset();  // the page is consumed; only the credit remains

    const std::vector<NodeId>& route = routes_.at(p.stream);
    Packet credit;
    credit.src = at;
    credit.dst = route.front();
    credit.bits = kCreditBits;
    credit.stream = p.stream;
    credit.seq = p.seq;
    credit.hop = p.hop;
    credit.control = true;
    net_->Send(at, route[p.hop - 1], std::move(credit));

    if (last) {
      Relation<S> out = sink.builder.Build(ctx_);
      Completion done = std::move(sink.done);
      sinks_.erase(it);
      sources_.erase(p.stream);
      // routes_ stays: in-flight credits of this stream still consult it.
      done(std::move(out));
    }
  }

  AsyncNetwork* net_;
  StreamOptions opts_;
  ExecContext* ctx_;
  InFlightLedger ledger_;
  uint64_t next_stream_ = 0;
  int64_t payload_bits_encoded_ = 0;
  int64_t payload_bits_plain_ = 0;
  // Ordered maps: Pump walks streams in id order, so scheduling is
  // deterministic and independent of map iteration quirks.
  std::map<uint64_t, SourceState> sources_;
  std::map<uint64_t, SinkState> sinks_;
  std::map<uint64_t, std::vector<NodeId>> routes_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_NETWORK_STREAM_H_
