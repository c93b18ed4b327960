// Streaming relation transport over the AsyncNetwork (async.h): ships a
// `Relation<S>` as a sequence of fixed-size column-chunk pages instead of
// one whole-relation payload, so a relation larger than the in-flight
// budget never fully materializes on the wire. Three stream shapes, all
// over a rooted tree of the topology:
//
//  * point to point (SendRelation / SendAlong): a shortest path or an
//    explicit route, i.e. a one-branch tree with the sink as its terminal;
//  * tree multicast (Multicast): rows of a relation cut at the root, each
//    page forwarded once per tree child, so it crosses every tree edge once;
//  * tree convergecast (Convergecast): pages of aggregated values flowing up
//    to the root, a node forwarding page s once it holds page s from every
//    child and page s of the multicast it aggregates over. These pages carry
//    bits only (S::kValueBits per value); the caller folds the exact data.
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
// every hop of the wire, and in memory at the sink. The encoded/plain
// payload totals are exported for ProtocolStats.
//
// Backpressure rule: every node has a page budget
// (`StreamOptions::node_page_budget`, shared by all streams it is
// currently sending from). A relation page is charged to its root when it
// is materialized (a source at its budget cuts nothing until a slot
// returns), travels hop by hop down the tree, and is freed once every tree
// leaf has it: each leaf sends a small credit to its parent, a node passes
// one credit up once all its children have, and the root's slot returns
// with the last one. Relays forward copies without being charged, so a
// relay buffers forwarded pages on top of its own budget. A convergecast
// page is charged to the node that sends it up one hop, and the parent
// returns the slot with a credit as soon as the page arrives, so no budget
// waits on another node's budget and the scheme cannot deadlock at any
// budget >= 1. The InFlightLedger records the high-water mark protocols
// export as `ProtocolStats::max_in_flight_pages`.
//
// Determinism: pages of one stream cross each edge in sequence order (FIFO
// channels, fixed tree), a node's streams take turns in stream-id order,
// and every rebuilt relation is bit-identical — per column and annotation
// bit pattern — to the source (RelationBuilder's sorted path, no closing
// sort).
#ifndef TOPOFAQ_NETWORK_STREAM_H_
#define TOPOFAQ_NETWORK_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "network/async.h"
#include "network/primitives.h"
#include "relation/relation.h"
#include "util/bits.h"

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
/// interact through completions and ScheduleAfter, never raw packets). One
/// StreamNet per simulation; all streams of a run share its ledger. Every
/// stream runs over a rooted tree of the topology — a point-to-point route
/// is a one-branch tree — and is either a *down* stream (relation pages cut
/// at the root, one copy forwarded per tree child, rebuilt at terminals) or
/// a convergecast (value pages flowing up to the root). Sinks rebuild
/// relations under `ctx`'s encoding mode (the thread-local default
/// context's for nullptr); `ctx` is borrowed.
template <CommutativeSemiring S>
class StreamNet {
 public:
  using Completion = std::function<void(Relation<S>)>;
  /// Multicast delivery: the terminal and the rows it rebuilt.
  using TreeCompletion = std::function<void(NodeId, Relation<S>)>;

  StreamNet(AsyncNetwork* net, StreamOptions opts, ExecContext* ctx = nullptr)
      : net_(net),
        opts_(opts),
        ctx_(ctx),
        ledger_(net->graph().num_nodes()),
        last_served_(net->graph().num_nodes(), UINT64_MAX) {
    TOPOFAQ_CHECK_MSG(opts_.page_rows >= 1, "page_rows must be >= 1");
    TOPOFAQ_CHECK_MSG(opts_.node_page_budget >= 1, "page budget must be >= 1");
    for (NodeId v = 0; v < net_->graph().num_nodes(); ++v)
      net_->SetHandler(v, [this, v](Packet p) { OnPacket(v, std::move(p)); });
  }

  /// Ships `rel` from `src` to `dst` along a shortest path (SendAlong).
  void SendRelation(NodeId src, NodeId dst, const Relation<S>& rel,
                    int bits_per_attr, Completion done) {
    SendAlong(src == dst ? std::vector<NodeId>{src}
                         : net_->graph().ShortestPath(src, dst),
              rel, bits_per_attr, std::move(done));
  }

  /// Ships `rel` along `route` (route.front() the source, route.back() the
  /// sink, consecutive nodes adjacent) and invokes `done` with the rebuilt
  /// relation once the last page is consumed at the sink. `rel` must be
  /// canonical and must stay alive and unmodified until `done` fires —
  /// pages are cut from it lazily as budget allows, which is exactly what
  /// keeps oversized payloads from materializing. A one-node route delivers
  /// a copy at the next simulated instant with no pages or bits.
  void SendAlong(const std::vector<NodeId>& route, const Relation<S>& rel,
                 int bits_per_attr, Completion done) {
    TOPOFAQ_CHECK_MSG(!route.empty(), "no route between stream endpoints");
    if (route.size() == 1) {
      TOPOFAQ_CHECK_MSG(rel.canonical(), "streamed relations must be canonical");
      net_->ScheduleAfter(0, [done = std::move(done), copy = rel]() mutable {
        done(std::move(copy));
      });
      return;
    }
    std::vector<int> edges;
    for (size_t i = 0; i + 1 < route.size(); ++i)
      edges.push_back(net_->graph().EdgeBetween(route[i], route[i + 1]));
    Multicast(OrientTree(net_->graph(), edges, route.front()), {route.back()},
              rel, 0, rel.size(), bits_per_attr,
              [done = std::move(done)](NodeId, Relation<S> r) {
                done(std::move(r));
              });
  }

  /// Streams rows [begin, end) of `rel` from `tree.root` down `tree`: each
  /// page crosses every tree edge once (a node forwards one copy per tree
  /// child), each node of `terminals` rebuilds the rows and gets
  /// `done(node, rows)` after its last page, and the page's budget slot
  /// returns to the root once every tree leaf has it (credits merge on the
  /// way up, one per tree edge). `rel` must be canonical and stay
  /// unmodified until the last page is cut; the root is not a terminal.
  /// Returns the stream id.
  uint64_t Multicast(const RootedTree& tree,
                     const std::vector<NodeId>& terminals,
                     const Relation<S>& rel, size_t begin, size_t end,
                     int bits_per_attr, TreeCompletion done) {
    TOPOFAQ_CHECK_MSG(rel.canonical(),
                      "streamed relations must be canonical (sorted pages "
                      "are what lets the sink skip its closing sort)");
    TOPOFAQ_CHECK_MSG(begin <= end && end <= rel.size(), "bad row range");
    const uint64_t id = next_stream_;
    const NodeId root = tree.root;
    Stream& st = Open(tree);
    st.rel = &rel;
    st.bits_per_attr = bits_per_attr;
    st.rows = end - begin;
    st.next_row = begin;
    st.end_row = end;
    st.delivered = std::move(done);
    for (NodeId t : terminals) {
      TOPOFAQ_CHECK_MSG(t != root && st.tree.in_tree[t],
                        "multicast terminal outside the tree");
      st.sinks.emplace(t, SinkState{RelationBuilder<S>(rel.schema()), {}, {}});
    }
    // The first pages go out at the next event of this instant, so streams
    // opened together share the root's budget from their first page.
    net_->ScheduleAfter(0, [this, root] { Pump(root); });
    return id;
  }

  /// Opens a pipelined convergecast up the tree of multicast `paced_by`:
  /// one value per multicast row, `S::kValueBits` each, in pages of
  /// `page_rows` values plus kPageHeaderBits. The pages carry bits only
  /// (the caller folds the exact data). Page s aggregates over multicast
  /// page s, so a node sends it to its parent once it holds multicast page
  /// s and page s from every tree child. Each hop charges the sender's page
  /// budget, and the parent returns the slot with a credit as soon as the
  /// page arrives. `done` runs when the root holds every page from every
  /// child.
  void Convergecast(uint64_t paced_by, std::function<void()> done) {
    const Stream& pacer = streams_.at(paced_by);
    TOPOFAQ_CHECK_MSG(!pacer.up() && pacer.rows >= 1,
                      "a convergecast aggregates over a non-empty multicast");
    Stream& st = Open(pacer.tree);
    st.rows = pacer.rows;
    st.pages = CeilDiv(static_cast<int64_t>(st.rows),
                       static_cast<int64_t>(opts_.page_rows));
    st.paced_by = paced_by;
    st.done = std::move(done);
    // Nothing can go up before the first multicast page arrives, and every
    // arrival pumps its node.
  }

  int64_t pages_shipped() const { return ledger_.total_pages(); }
  int64_t max_in_flight_pages() const { return ledger_.peak_pages(); }

  /// Actual payload bits shipped (annotations + column chunks as encoded,
  /// dictionaries included, and convergecast values; framing/credits
  /// excluded) — what the packets' wire bits charge. A multicast page
  /// counts once, however many tree edges it crosses.
  int64_t payload_bits_encoded() const { return payload_bits_encoded_; }
  /// The same payload priced by the plain r·log2(D) cost model. The ratio
  /// encoded/plain is the wire compression the column encodings bought;
  /// the two are equal when every shipped column was plain.
  int64_t payload_bits_plain() const { return payload_bits_plain_; }

 private:
  struct SinkState {
    RelationBuilder<S> builder;
    /// Per-column dictionaries cached from the stream's first page; later
    /// chunks of a dict column decode against these.
    std::vector<std::vector<Value>> dicts;
    /// Decoded-chunk scratch reused across pages of this stream.
    std::vector<std::vector<Value>> scratch;
  };
  struct Stream {
    RootedTree tree;
    /// Per node, per child slot: credits (down stream) or pages
    /// (convergecast) received from that child.
    std::vector<std::vector<int64_t>> from_child;
    /// Per node: credits (down) or pages (convergecast) sent to the parent.
    std::vector<int64_t> to_parent;
    /// Per node: pages received from the parent (down streams).
    std::vector<int64_t> arrived;
    size_t rows = 0;          // down: rows of the range; up: values
    int64_t pages = 0;        // down: pages cut so far; up: pages per hop
    int64_t outstanding = 0;  // charged pages whose slot has not returned
    bool finished = false;    // down: last page cut; up: root holds all
    // Down streams.
    const Relation<S>* rel = nullptr;
    int bits_per_attr = 0;
    size_t next_row = 0, end_row = 0;
    std::map<NodeId, SinkState> sinks;  // terminals still receiving
    TreeCompletion delivered;
    // Convergecasts.
    uint64_t paced_by = 0;  // the multicast whose pages this one aggregates
    std::function<void()> done;

    bool up() const { return rel == nullptr; }
    /// Pages every child of `v` has delivered (convergecast) or
    /// acknowledged (down stream).
    int64_t FromChildren(NodeId v, int64_t if_leaf) const {
      const std::vector<int64_t>& c = from_child[v];
      return c.empty() ? if_leaf : *std::min_element(c.begin(), c.end());
    }
  };

  Stream& Open(const RootedTree& tree) {
    const int n = net_->graph().num_nodes();
    TOPOFAQ_CHECK_MSG(!tree.children[tree.root].empty(),
                      "a stream needs at least one tree edge");
    Stream st;
    st.from_child.resize(n);
    for (NodeId v = 0; v < n; ++v)
      st.from_child[v].assign(tree.children[v].size(), 0);
    st.to_parent.assign(n, 0);
    st.arrived.assign(n, 0);
    st.tree = tree;
    return streams_.emplace(next_stream_++, std::move(st)).first->second;
  }

  static size_t SlotOf(const RootedTree& t, NodeId parent, NodeId child) {
    size_t slot = 0;
    while (t.children[parent][slot] != child) ++slot;
    return slot;
  }

  /// One packet of stream `id` over the tree edge from -> to.
  void SendHop(uint64_t id, const Stream& st, NodeId from, NodeId to,
               int64_t seq, int64_t bits, bool control,
               std::shared_ptr<void> payload = {}) {
    Packet p;
    p.src = from;
    p.dst = to;
    p.bits = bits;
    p.stream = id;
    p.seq = seq;
    p.hop = st.tree.depth[from];
    p.control = control;
    p.payload = std::move(payload);
    net_->Send(from, to, std::move(p));
  }

  /// Launches every page `v` may send now — relation pages of the down
  /// streams rooted at `v`, and the convergecast pages `v` holds from all
  /// its children — until `v`'s budget is exhausted. Streams take turns in
  /// id order, one page each, starting after the stream `v` served last, so
  /// the trees of one star share the root's budget evenly.
  void Pump(NodeId v) {
    uint64_t& last = last_served_[v];
    for (bool sent = true; sent;) {
      sent = false;
      auto it = streams_.upper_bound(last);
      for (size_t k = 0, n = streams_.size(); k < n; ++k, ++it) {
        if (ledger_.InFlight(v) >= opts_.node_page_budget) return;
        if (it == streams_.end()) it = streams_.begin();
        if (SendOne(v, it->first, it->second)) {
          last = it->first;
          sent = true;
        }
      }
    }
  }

  /// Sends `v`'s next page of stream `id` if it has one ready.
  bool SendOne(NodeId v, uint64_t id, Stream& st) {
    if (!st.tree.in_tree[v] || st.finished) return false;
    if (!st.up()) {
      if (v != st.tree.root) return false;
      CutPage(v, id, st);
      return true;
    }
    if (v == st.tree.root) return false;
    // A dropped multicast has reached every node with every page.
    const auto pacer = streams_.find(st.paced_by);
    const int64_t have = std::min(
        st.FromChildren(v, st.pages),
        pacer == streams_.end() ? st.pages : pacer->second.arrived[v]);
    if (st.to_parent[v] >= have) return false;
    const int64_t seq = st.to_parent[v]++;
    const int64_t rows = static_cast<int64_t>(std::min(
        opts_.page_rows, st.rows - static_cast<size_t>(seq) * opts_.page_rows));
    payload_bits_encoded_ += rows * S::kValueBits;
    payload_bits_plain_ += rows * S::kValueBits;
    ledger_.Charge(v);
    ++st.outstanding;
    SendHop(id, st, v, st.tree.parent[v], seq,
            kPageHeaderBits + rows * S::kValueBits, false);
    return true;
  }

  /// Materializes the down stream's next page at its root and sends one
  /// copy to each tree child.
  void CutPage(NodeId root, uint64_t id, Stream& st) {
    const Relation<S>& rel = *st.rel;
    const size_t begin = st.next_row;
    const size_t end = std::min(st.end_row, begin + opts_.page_rows);
    const int64_t rows = static_cast<int64_t>(end - begin);
    auto page = std::make_shared<RelationPage<S>>();
    page->cols.reserve(rel.arity());
    // Payload accounting: encoded columns cost their true packed bits (plus
    // the dictionary, once per stream); plain columns keep the r·log2(D)
    // cost model, so a fully plain relation's wire bits are unchanged from
    // the pre-encoding transport.
    int64_t payload = rows * S::kValueBits;
    for (size_t j = 0; j < rel.arity(); ++j) {
      PageCol pc;
      if (const EncodedColumn* e = rel.encoded_col(j)) {
        const bool ship_dict =
            st.pages == 0 && e->encoding == ColumnEncoding::kDict;
        pc.encoding = e->encoding;
        pc.enc = EncodedColumn::Slice(*e, begin, end, ship_dict);
        payload += rows * e->width;
        if (ship_dict) payload += static_cast<int64_t>(e->DictBits());
      } else {
        ColumnView c = rel.col(j, begin, end);
        pc.plain.assign(c.begin(), c.end());
        payload += rows * st.bits_per_attr;
      }
      page->cols.push_back(std::move(pc));
    }
    page->annots.assign(rel.annots().begin() + begin,
                        rel.annots().begin() + end);
    page->last = end == st.end_row;
    st.next_row = end;
    st.finished = page->last;
    payload_bits_encoded_ += payload;
    payload_bits_plain_ += rel.EncodedBitsRange(begin, end, st.bits_per_attr);
    ledger_.Charge(root);
    ++st.outstanding;
    const int64_t seq = st.pages++;
    for (NodeId c : st.tree.children[root])
      SendHop(id, st, root, c, seq, kPageHeaderBits + payload, false, page);
  }

  void OnPacket(NodeId at, Packet p) {
    const uint64_t id = p.stream;
    Stream& st = streams_.at(id);
    if (st.up()) {
      if (p.control) {  // the parent took the page: the slot returns
        Release(at, id, st);
        return;
      }
      // A child's page s: count it, return the child's slot, and forward
      // whatever this node now holds from every child.
      ++st.from_child[at][SlotOf(st.tree, at, p.src)];
      SendHop(id, st, at, p.src, p.seq, kCreditBits, true);
      if (at != st.tree.root) {
        Pump(at);
      } else if (st.FromChildren(at, st.pages) == st.pages) {
        st.finished = true;
        st.done();
      }
      return;
    }
    if (p.control) {
      ++st.from_child[at][SlotOf(st.tree, at, p.src)];
      Ack(at, id, st);
      return;
    }
    // A relation page going down: forward one copy per child, acknowledge
    // it at a tree leaf, consume it here if this node is a terminal, and
    // release whatever convergecast page it paces.
    ++st.arrived[at];
    for (NodeId c : st.tree.children[at])
      SendHop(id, st, at, c, p.seq, p.bits, false, p.payload);
    if (st.tree.children[at].empty()) {
      ++st.to_parent[at];
      SendHop(id, st, at, st.tree.parent[at], p.seq, kCreditBits, true);
    }
    if (auto it = st.sinks.find(at); it != st.sinks.end())
      Consume(at, it, st, *static_cast<const RelationPage<S>*>(p.payload.get()));
    Pump(at);
  }

  /// Down-stream credits merge on the way up: `at` passes a credit for page
  /// s to its parent once every child has acknowledged s; at the root the
  /// page's budget slot returns.
  void Ack(NodeId at, uint64_t id, Stream& st) {
    const int64_t acked = st.FromChildren(at, 0);
    if (at != st.tree.root) {
      while (st.to_parent[at] < acked)
        SendHop(id, st, at, st.tree.parent[at], st.to_parent[at]++,
                kCreditBits, true);
      return;
    }
    // The last release may drop the stream, so count before releasing.
    const int64_t n = acked - st.to_parent[at];
    st.to_parent[at] = acked;
    for (int64_t i = 0; i < n; ++i) Release(at, id, st);
  }

  /// Returns one budget slot to `src`, drops the stream once it is finished
  /// with no page outstanding, and pumps `src` again.
  void Release(NodeId src, uint64_t id, Stream& st) {
    ledger_.Release(src);
    if (--st.outstanding == 0 && st.finished && st.sinks.empty())
      streams_.erase(id);
    Pump(src);
  }

  /// Terminal delivery: fold the page into this terminal's builder; after
  /// the last page, build the relation and hand it over.
  void Consume(NodeId at, typename std::map<NodeId, SinkState>::iterator it,
               Stream& st, const RelationPage<S>& page) {
    SinkState& sink = it->second;
    // Decode the chunks here — the RelationBuilder emission point, the one
    // place packed codes turn back into values. A first-page dictionary is
    // captured into the per-stream cache; FOR chunks are self-contained.
    // The page may be shared with other terminals, so it is only read.
    const size_t rows = page.rows();
    const size_t arity = page.cols.size();
    sink.dicts.resize(arity);
    sink.scratch.resize(arity);
    std::vector<ColumnView> views(arity);
    for (size_t j = 0; j < arity; ++j) {
      const PageCol& pc = page.cols[j];
      if (pc.encoding == ColumnEncoding::kPlain) {
        views[j] = ColumnView(pc.plain);
        continue;
      }
      std::vector<Value>& out = sink.scratch[j];
      out.resize(rows);
      if (pc.encoding == ColumnEncoding::kFor) {
        pc.enc.DecodeInto(0, rows, out.data());
      } else {
        if (!pc.enc.dict.empty()) sink.dicts[j] = pc.enc.dict;
        const std::vector<Value>& dict = sink.dicts[j];
        const uint64_t m = pc.enc.mask();
        for (size_t i = 0; i < rows; ++i)
          out[i] = dict[UnpackAt(pc.enc.words.data(), i, pc.enc.width, m)];
      }
      views[j] = ColumnView(out);
    }
    // Pages are contiguous sorted column chunks already — splice them in
    // bulk (one boundary compare + arity+1 range inserts) instead of
    // regathering row by row. Build() re-runs the encoding policy, so a
    // compressed source arrives compressed.
    sink.builder.AppendChunk(
        views, std::span<const typename S::Value>(page.annots));
    if (!page.last) return;
    Relation<S> out = sink.builder.Build(ctx_);
    st.sinks.erase(it);
    // The callback may open streams; `st` stays valid (std::map), and the
    // stream is dropped only once its slots have all returned.
    TreeCompletion deliver = st.delivered;
    deliver(at, std::move(out));
  }

  AsyncNetwork* net_;
  StreamOptions opts_;
  ExecContext* ctx_;
  InFlightLedger ledger_;
  uint64_t next_stream_ = 0;
  int64_t payload_bits_encoded_ = 0;
  int64_t payload_bits_plain_ = 0;
  // Ordered map: Pump walks streams in id order, so scheduling is
  // deterministic and independent of map iteration quirks.
  std::map<uint64_t, Stream> streams_;
  std::vector<uint64_t> last_served_;  // per node: stream Pump served last
};

}  // namespace topofaq

#endif  // TOPOFAQ_NETWORK_STREAM_H_
