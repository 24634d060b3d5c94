#include "layers.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>

#include "act/join.h"
#include "join2/cross_match.h"
#include "net/async_join_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/subscription_matcher.h"
#include "store/checkpointer.h"
#include "store/snapshot_store.h"

namespace perfbench {

namespace act = ac::act;
namespace net = ac::net;
namespace service = ac::service;

namespace {

constexpr int kReps = 5;

// Results of timed loops land here so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

/// Median wall seconds of `reps` runs of f, one span per run.
template <typename F>
double MedianSeconds(Tracer* tracer, const char* span, int reps, F&& f) {
  Samples s;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan scope(tracer, span);
    const int64_t t0 = NowNs();
    f();
    s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return s.Median();
}

/// The served configuration a point stream runs at in its load phase.
struct Served {
  StackConfig stack;
  int depth = 1;  // requests in flight
};

/// Submits `batches` keeping `depth` in flight; `each` sees every result.
template <typename Submit, typename Each>
void Pipeline(size_t n, int depth, Submit&& submit, Each&& each) {
  std::deque<std::future<service::JoinResult>> q;
  for (size_t i = 0; i < n; ++i) {
    if (q.size() >= static_cast<size_t>(depth)) {
      each(q.front().get());
      q.pop_front();
    }
    q.push_back(submit(i));
  }
  while (!q.empty()) {
    each(q.front().get());
    q.pop_front();
  }
}

/// One JOIN_DATASETS over a raw socket, timing the PAIR_RESULT stream from
/// its first chunk to its last. Negative on any failure.
double PairStreamMs(uint16_t port, uint16_t dataset_a, uint16_t dataset_b,
                    uint32_t page_size) {
  std::string error;
  net::UniqueFd fd = net::ConnectTcp("127.0.0.1", port, &error);
  if (!fd.valid()) return -1;
  net::JoinDatasetsRequest req;
  req.dataset_b = dataset_b;
  req.page_size = page_size;
  const std::vector<uint8_t> frame =
      net::EncodeJoinDatasetsFrame(1, dataset_a, req);
  if (!net::SendAll(fd.get(), frame.data(), frame.size(), &error)) return -1;
  int64_t first = 0;
  for (;;) {
    std::vector<uint8_t> buf(net::kFrameHeaderBytes);
    if (!net::RecvAll(fd.get(), buf.data(), buf.size(), &error)) return -1;
    if (first == 0) first = NowNs();
    uint32_t payload_bytes = 0;
    std::memcpy(&payload_bytes, buf.data() + 16, sizeof(payload_bytes));
    buf.resize(net::kFrameHeaderBytes + payload_bytes);
    if (!net::RecvAll(fd.get(), buf.data() + net::kFrameHeaderBytes,
                      payload_bytes, &error)) {
      return -1;
    }
    net::FrameHeader header;
    size_t frame_bytes = 0;
    net::WireError werr = net::WireError::kNone;
    net::PairChunk chunk;
    if (net::TryParseFrame(buf, buf.size(), &header, &frame_bytes, &werr) !=
            net::FrameParse::kFrame ||
        header.type != net::MessageType::kPairResult ||
        !net::DecodePairChunk(
            std::span<const uint8_t>(buf).subspan(net::kFrameHeaderBytes),
            &chunk)) {
      return -1;
    }
    if (chunk.last) return NsToMs(NowNs() - first);
  }
}

struct Rung {
  const char* name;
  const char* metric;
  double ns_per_pt;
  const char* what;
};

void PrintLadder(const std::vector<Rung>& rungs, const char* stream) {
  std::printf("\nlayer ladder (%s): ns per point, each rung against the one "
              "below\n",
              stream);
  std::printf("  %-14s %12s %14s %10s  %s\n", "rung", "ns/pt", "delta ns/pt",
              "ratio", "what the rung adds");
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    if (i == 0) {
      std::printf("  %-14s %12.2f %14s %10s  %s\n", r.name, r.ns_per_pt, "-",
                  "-", r.what);
      continue;
    }
    const Rung& below = rungs[i - 1];
    std::printf("  %-14s %12.2f %+14.2f %9.3fx  %s (base: %s %.2f ns/pt)\n",
                r.name, r.ns_per_pt, r.ns_per_pt - below.ns_per_pt,
                below.ns_per_pt > 0 ? r.ns_per_pt / below.ns_per_pt : 0,
                r.what, below.name, below.ns_per_pt);
  }
}

}  // namespace

void MeasureLayers(const Scenario& sc, const Snapshots& snaps,
                   PointStream stream, const std::string& scratch_dir,
                   Report* report, Tracer* tracer) {
  const bool fleet = stream == PointStream::kFleet;

  // --- The point stream: the workload's own requests.
  std::vector<service::QueryBatch> batches;
  std::shared_ptr<const act::PolygonIndex> trie_index;
  std::shared_ptr<const service::ShardedIndex> sharded;
  const std::vector<ac::geom::Polygon>* polygons = nullptr;
  Served served;
  if (fleet) {
    FleetModel model(sc.neighborhoods.mbr, sc.sizes, sc.fleet_seed);
    std::vector<Move> moves;
    for (int t = 0; t < 64; ++t) {
      model.Step(&moves);
      service::QueryBatch b;
      b.points = model.positions();
      for (const ac::geom::Point& p : b.points) {
        b.cell_ids.push_back(sc.grid.CellAt({p.y, p.x}).id());
      }
      b.mode = act::JoinMode::kExact;
      batches.push_back(std::move(b));
    }
    trie_index = std::make_shared<const act::PolygonIndex>(
        act::PolygonIndex::Build(sc.neighborhoods.polygons, sc.grid,
                                 sc.sharding.build));
    sharded = snaps.neighborhoods;
    polygons = &sc.neighborhoods.polygons;
    served = {kFleetStack, 1};
  } else {
    batches = sc.bulk_batches;
    trie_index = sc.census_reference;
    sharded = snaps.census;
    polygons = &sc.census.polygons;
    served = {kBulkStack, sc.sizes.bulk_inflight};
  }
  uint64_t points = 0;
  for (const service::QueryBatch& b : batches) points += b.points.size();
  const double pts = static_cast<double>(points);
  const act::AdaptiveCellTrie& trie = trie_index->trie();
  const act::LookupTable& table = trie_index->encoded().table;

  // --- geo: lat/lng -> leaf cell.
  const double encode_s = MedianSeconds(tracer, "geo.CellAt", kReps, [&] {
    uint64_t acc = 0;
    for (const service::QueryBatch& b : batches) {
      for (const ac::geom::Point& p : b.points) {
        acc ^= sc.grid.CellAt({p.y, p.x}).id();
      }
    }
    g_sink = g_sink + acc;
  });
  report->Add("geo.encode_ns_per_pt", encode_s / pts * 1e9, "ns", points);

  // --- act: trie probes and the join kernel, one thread.
  const double probe_s =
      MedianSeconds(tracer, "act.AdaptiveCellTrie::Probe", kReps, [&] {
        uint64_t acc = 0;
        for (const service::QueryBatch& b : batches) {
          for (uint64_t cell : b.cell_ids) acc += trie.Probe(cell);
        }
        g_sink = g_sink + acc;
      });
  std::vector<act::TaggedEntry> out;
  const double probe_batch_s =
      MedianSeconds(tracer, "act.AdaptiveCellTrie::ProbeBatch", kReps, [&] {
        uint64_t acc = 0;
        for (const service::QueryBatch& b : batches) {
          out.resize(b.cell_ids.size());
          trie.ProbeBatch(b.cell_ids.data(), b.cell_ids.size(), out.data());
          acc += out.back();
        }
        g_sink = g_sink + acc;
      });
  act::JoinStats exact_stats;
  auto join_s = [&](act::JoinMode mode, const char* span) {
    return MedianSeconds(tracer, span, kReps, [&] {
      act::JoinStats total;
      for (const service::QueryBatch& b : batches) {
        act::JoinStats st = act::ExecuteJoin(
            trie, table, {b.cell_ids, b.points}, *polygons, {mode, 1});
        total.num_points += st.num_points;
        total.AccumulateCounters(st);
      }
      if (mode == act::JoinMode::kExact) exact_stats = total;
      g_sink = g_sink + total.result_pairs;
    });
  };
  const double approx_s =
      join_s(act::JoinMode::kApproximate, "act.ExecuteJoin(approx)");
  const double exact_s = join_s(act::JoinMode::kExact, "act.ExecuteJoin(exact)");
  report->Add("act.probe_ns_per_pt", probe_s / pts * 1e9, "ns", points);
  report->Add("act.probe_batch_ns_per_pt", probe_batch_s / pts * 1e9, "ns",
              points);
  report->Add("act.join_approx_ns_per_pt", approx_s / pts * 1e9, "ns", points);
  report->Add("act.join_exact_ns_per_pt", exact_s / pts * 1e9, "ns", points);
  report->Add("geometry.refine_ns_per_pt", (exact_s - approx_s) / pts * 1e9,
              "ns", points, "exact - approx");
  report->Add("act.sth_pct", exact_stats.SthPercent(), "%", 0,
              "points that skipped refinement");
  report->Add("act.candidate_refs_per_pt",
              static_cast<double>(exact_stats.candidate_refs) / pts, "count");
  report->Add("act.pip_tests_per_pt",
              static_cast<double>(exact_stats.pip_tests) / pts, "count");

  // Trie shape of the served index behind the stream.
  uint64_t nodes = 0, value_slots = 0;
  double depth_sum = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    const act::PolygonIndex* shard = sharded->shard_index(s);
    if (shard == nullptr) continue;
    const act::ActStats& st = shard->trie().stats();
    nodes += st.node_count;
    value_slots += st.value_slots;
    depth_sum += st.avg_value_depth * static_cast<double>(st.value_slots);
  }
  report->Add("act.trie_nodes", static_cast<double>(nodes), "count");
  report->Add("act.avg_value_depth",
              value_slots > 0 ? depth_sum / static_cast<double>(value_slots)
                              : 0,
              "levels");

  // --- service: the sharded executor, one thread, then the queue hop at
  // the served configuration.
  Samples route_us, merge_us;
  const double sharded_s =
      MedianSeconds(tracer, "service.ShardedIndex::Join", kReps, [&] {
        for (const service::QueryBatch& b : batches) {
          service::ShardedIndex::JoinPhaseTimes phases;
          act::JoinStats st = sharded->Join({b.cell_ids, b.points},
                                            {act::JoinMode::kExact, 1},
                                            nullptr, &phases);
          route_us.Add(phases.route_us);
          merge_us.Add(phases.merge_us);
          g_sink = g_sink + st.result_pairs;
        }
      });
  report->Add("service.sharded_join_ns_per_pt", sharded_s / pts * 1e9, "ns",
              points);
  report->Add("service.route_us", route_us.Median(), "us", route_us.size(),
              "per request, median");
  report->Add("service.merge_us", merge_us.Median(), "us", merge_us.size(),
              "per request, median");

  std::vector<service::QueryBatch> local = batches;
  for (service::QueryBatch& b : local) b.dataset_id = 0;
  double submit_s = 0, codec_s = 0;
  Samples result_codec_us;
  {
    service::ServiceOptions so;
    so.worker_threads = served.stack.workers;
    service::JoinService svc(sharded, so);
    submit_s = MedianSeconds(tracer, "service.JoinService::Submit", kReps, [&] {
      Pipeline(
          local.size(), served.depth,
          [&](size_t i) { return svc.Submit(local[i]); },
          [&](const service::JoinResult& r) {
            g_sink = g_sink + r.stats.result_pairs;
          });
    });
    // Wire codec round trip around the same submits: request frame encode,
    // parse + decode, Submit, result frame encode, parse + decode.
    codec_s = MedianSeconds(tracer, "net.codec+Submit", kReps, [&] {
      Pipeline(
          local.size(), served.depth,
          [&](size_t i) {
            const std::vector<uint8_t> frame =
                net::EncodeJoinBatchFrame(i + 1, local[i]);
            net::FrameHeader h;
            size_t n = 0;
            net::WireError e = net::WireError::kNone;
            service::QueryBatch decoded;
            net::TryParseFrame(frame, frame.size(), &h, &n, &e);
            net::DecodeQueryBatch(
                std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes),
                &decoded);
            return svc.Submit(std::move(decoded));
          },
          [&](const service::JoinResult& r) {
            const int64_t t0 = NowNs();
            const std::vector<uint8_t> frame = net::EncodeJoinResultFrame(1, r);
            net::FrameHeader h;
            size_t n = 0;
            net::WireError e = net::WireError::kNone;
            service::JoinResult back;
            net::TryParseFrame(frame, frame.size(), &h, &n, &e);
            net::DecodeJoinResult(
                std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes),
                &back);
            result_codec_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
            g_sink = g_sink + back.stats.result_pairs;
          });
    });
  }
  report->Add("service.submit_ns_per_pt", submit_s / pts * 1e9, "ns", points,
              "served config");

  // --- net: codecs alone, one thread.
  std::vector<std::vector<uint8_t>> frames(local.size());
  const double frame_encode_s =
      MedianSeconds(tracer, "net.EncodeJoinBatchFrame", kReps, [&] {
        for (size_t i = 0; i < local.size(); ++i) {
          frames[i] = net::EncodeJoinBatchFrame(i + 1, local[i]);
        }
      });
  uint64_t frame_bytes = 0;
  for (const auto& f : frames) frame_bytes += f.size();
  const double frame_decode_s =
      MedianSeconds(tracer, "net.TryParseFrame+DecodeQueryBatch", kReps, [&] {
        for (const auto& frame : frames) {
          net::FrameHeader h;
          size_t n = 0;
          net::WireError e = net::WireError::kNone;
          service::QueryBatch decoded;
          net::TryParseFrame(frame, frame.size(), &h, &n, &e);
          net::DecodeQueryBatch(
              std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes),
              &decoded);
          g_sink = g_sink + decoded.cell_ids.size();
        }
      });
  report->Add("net.frame_encode_ns_per_pt", frame_encode_s / pts * 1e9, "ns",
              points);
  report->Add("net.frame_decode_ns_per_pt", frame_decode_s / pts * 1e9, "ns",
              points);
  report->Add("net.result_codec_us", result_codec_us.Median(), "us",
              result_codec_us.size(), "per reply, median");
  report->Add("net.request_bytes_per_pt",
              static_cast<double>(frame_bytes) / pts, "B",
              0, "JOIN_BATCH frame bytes per point");

  // --- net: loopback AsyncJoinClient::Call at the served configuration.
  double loopback_s = 0;
  {
    Stack stack(snaps, served.stack);
    std::string error;
    net::AsyncJoinClient client;
    if (stack.Start(&error) &&
        client.Connect(stack.server().host(), stack.server().port(), &error)) {
      const uint16_t id = fleet ? stack.neighborhoods_id() : stack.census_id();
      for (service::QueryBatch& b : local) b.dataset_id = id;
      loopback_s =
          MedianSeconds(tracer, "net.AsyncJoinClient::Call", kReps, [&] {
            std::deque<std::future<net::AsyncJoinClient::RawReply>> q;
            auto drain_one = [&] {
              g_sink = g_sink + q.front().get().payload.size();
              q.pop_front();
            };
            for (const service::QueryBatch& b : local) {
              if (q.size() >= static_cast<size_t>(served.depth)) drain_one();
              const uint64_t rid = client.NextRequestId();
              q.push_back(client.Call(net::EncodeJoinBatchFrame(rid, b), rid,
                                      net::MessageType::kJoinResult));
            }
            while (!q.empty()) drain_one();
          });
      // The crossmatch's response stream, first to last PAIR_RESULT chunk.
      Samples stream_ms;
      for (int r = 0; r < kReps; ++r) {
        ScopedSpan s(tracer, "net.pair_stream");
        const double ms =
            PairStreamMs(stack.server().port(), stack.neighborhoods_id(),
                         stack.census_id(), sc.sizes.pair_page_size);
        if (ms >= 0) stream_ms.Add(ms);
      }
      report->Add("net.pair_stream_ms", stream_ms.Median(), "ms",
                  stream_ms.size(), "first -> last PAIR_RESULT chunk");
    }
  }
  report->Add("net.loopback_ns_per_pt", loopback_s / pts * 1e9, "ns", points,
              "served config");

  // --- service: the subscription matcher replaying fleet ticks.
  {
    service::ServiceCatalog catalog;
    const uint16_t id = catalog.Add("neighborhoods", snaps.neighborhoods).value();
    service::SubscriptionMatcher matcher(&catalog);
    uint64_t events = 0;
    service::SubscriptionSpec spec;
    matcher.Add(id, spec, [&events](service::EventBatch&& b) {
      events += b.events.size();
    });
    FleetModel model(sc.neighborhoods.mbr, sc.sizes, sc.fleet_seed);
    std::vector<Move> moves;
    std::vector<uint64_t> cells;
    auto tick = [&] {
      model.Step(&moves);
      const auto& p = model.positions();
      cells.resize(p.size());
      for (size_t i = 0; i < p.size(); ++i) {
        cells[i] = sc.grid.CellAt({p[i].y, p[i].x}).id();
      }
    };
    tick();  // first sightings: every device ENTERs, not a steady tick
    matcher.OnPointBatch(id, cells, model.positions());
    events = 0;
    constexpr int kTicks = 400;
    Samples tick_us;
    for (int t = 0; t < kTicks; ++t) {
      tick();
      ScopedSpan s(tracer, "service.SubscriptionMatcher::OnPointBatch");
      const int64_t t0 = NowNs();
      matcher.OnPointBatch(id, cells, model.positions());
      tick_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    }
    report->Add("service.matcher_us_per_tick", tick_us.Median(), "us",
                tick_us.size(), "median");
    report->Add("service.events_per_tick",
                static_cast<double>(events) / kTicks, "count");
  }

  // --- service + store: delta apply, publish, checkpoint on census.
  {
    const uint32_t k = sc.sizes.churn_polygons_per_mutation;
    const uint32_t base_n = static_cast<uint32_t>(sc.census.polygons.size());
    Samples apply_ms, publish_ms, checkpoint_ms;
    std::shared_ptr<const service::ShardedIndex> cur = snaps.census;
    for (uint32_t m = 0; m < 4; ++m) {
      service::ShardedIndex::Delta add;
      add.add = sc.churn_adds[m];
      int64_t t0 = NowNs();
      auto added = [&] {
        ScopedSpan s(tracer, "service.ShardedIndex::ApplyDelta");
        return service::ShardedIndex::ApplyDelta(*cur, add);
      }();
      apply_ms.Add(NsToMs(NowNs() - t0));
      service::ShardedIndex::Delta remove;
      for (uint32_t i = 0; i < k; ++i) {
        remove.remove.push_back(added.first_added_id + i);
      }
      t0 = NowNs();
      {
        ScopedSpan s(tracer, "service.ShardedIndex::ApplyDelta");
        cur = service::ShardedIndex::ApplyDelta(*added.index, remove).index;
      }
      apply_ms.Add(NsToMs(NowNs() - t0));
    }
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove_all(scratch_dir, ec);
    fs::create_directories(scratch_dir, ec);
    service::ServiceOptions so;
    so.worker_threads = 1;
    service::JoinService svc(snaps.census, so);
    ac::store::SnapshotStore store;
    std::string error;
    const bool store_ok = store.Open({.dir = scratch_dir}, &error);
    ac::store::CheckpointerOptions copts;
    copts.autostart = false;
    ac::store::Checkpointer checkpointer(&store, &svc, copts);
    if (store_ok) checkpointer.CheckpointNow();  // the full base, untimed
    for (uint32_t m = 0; m < 4; ++m) {
      for (int op = 0; op < 2; ++op) {
        int64_t t0 = NowNs();
        {
          ScopedSpan s(tracer, op == 0 ? "service.JoinService::AddPolygons"
                                       : "service.JoinService::RemovePolygons");
          if (op == 0) {
            svc.AddPolygons(0, sc.churn_adds[m]);
          } else {
            std::vector<uint32_t> ids;
            for (uint32_t i = 0; i < k; ++i) ids.push_back(base_n + m * k + i);
            svc.RemovePolygons(0, ids);
          }
        }
        publish_ms.Add(NsToMs(NowNs() - t0));
        if (!store_ok) continue;
        t0 = NowNs();
        {
          ScopedSpan s(tracer, "store.Checkpointer::CheckpointNow");
          checkpointer.CheckpointNow();
        }
        checkpoint_ms.Add(NsToMs(NowNs() - t0));
      }
    }
    checkpointer.Stop();
    fs::remove_all(scratch_dir, ec);
    report->Add("service.apply_delta_ms", apply_ms.Median(), "ms",
                apply_ms.size(), "ADD/REMOVE alternating, median");
    report->Add("service.publish_ms", publish_ms.Median(), "ms",
                publish_ms.size(), "ADD/REMOVE alternating, median");
    report->Add("store.checkpoint_ms", checkpoint_ms.Median(), "ms",
                checkpoint_ms.size(), "one delta checkpoint, median");
  }

  // --- join2: probe-surface build, descent and refine on prebuilt views.
  {
    Samples view_ms, descend_ms, refine_ms;
    ac::join2::CrossMatchStats stats;
    for (int r = 0; r < kReps; ++r) {
      int64_t t0 = NowNs();
      ScopedSpan outer(tracer, "join2.crossmatch");
      auto views = [&] {
        ScopedSpan s(tracer, "join2.IntervalView::FromIndex", outer.handle());
        return std::make_pair(
            ac::join2::IntervalView::FromIndex(*snaps.neighborhoods),
            ac::join2::IntervalView::FromIndex(*snaps.census));
      }();
      view_ms.Add(NsToMs(NowNs() - t0));
      ac::join2::CrossMatchPhaseTimes phases;
      {
        ScopedSpan s(tracer, "join2.CrossMatch", outer.handle());
        auto pairs = ac::join2::CrossMatch(views.first, views.second, {},
                                           nullptr, &stats, &phases);
        g_sink = g_sink + pairs.size();
      }
      descend_ms.Add(phases.descend_us / 1e3);
      refine_ms.Add(phases.refine_us / 1e3);
    }
    report->Add("join2.view_build_ms", view_ms.Median(), "ms", view_ms.size(),
                "both sides");
    report->Add("join2.descend_ms", descend_ms.Median(), "ms",
                descend_ms.size());
    report->Add("join2.refine_ms", refine_ms.Median(), "ms", refine_ms.size());
    report->Add("join2.candidates_per_pair",
                stats.result_pairs > 0
                    ? static_cast<double>(stats.candidate_pairs) /
                          static_cast<double>(stats.result_pairs)
                    : 0,
                "count", 0, "candidate pairs per result pair");
    report->Add("join2.result_pairs", static_cast<double>(stats.result_pairs),
                "count");
  }

  std::vector<Rung> ladder = {
      {"encode", "geo.encode_ns_per_pt", 0, "Grid::CellAt on the coordinates"},
      {"probe", "act.probe_ns_per_pt", 0, "trie Probe per cell"},
      {"probe_batch", "act.probe_batch_ns_per_pt", 0,
       "ProbeBatch instead of Probe"},
      {"join_approx", "act.join_approx_ns_per_pt", 0,
       "ExecuteJoin approx: probe + ref walk + counts"},
      {"join_exact", "act.join_exact_ns_per_pt", 0, "+ PIP refinement"},
      {"sharded_join", "service.sharded_join_ns_per_pt", 0,
       "+ shard route, task split, merge"},
      {"submit", "service.submit_ns_per_pt", 0,
       "+ service queue hop, served threads"},
      {"wire_codec", "", codec_s / pts * 1e9,
       "+ request/result frame encode and decode"},
      {"loopback", "net.loopback_ns_per_pt", 0, "+ sockets, server, client"},
  };
  for (Rung& r : ladder) {
    if (r.metric[0] != '\0') r.ns_per_pt = report->Find(r.metric)->value;
  }
  PrintLadder(ladder, fleet ? "fleet ticks x neighborhoods"
                            : "bulk batches x census");
  std::printf(
      "  rungs up to sharded_join run on one thread; submit, wire_codec and "
      "loopback run at the served configuration (%d workers, %d in "
      "flight), so their deltas mix added work with added threads.\n",
      served.stack.workers, served.depth);
}

}  // namespace perfbench
