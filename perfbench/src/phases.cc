#include "phases.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "net/async_join_client.h"
#include "net/wire.h"
#include "store/checkpointer.h"
#include "store/snapshot_store.h"

namespace perfbench {

namespace net = ac::net;
namespace service = ac::service;

namespace {

/// Unbounded FIFO handed between two threads.
template <typename T>
class Channel {
 public:
  void Push(T v) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(v));
    }
    cv_.notify_one();
  }
  /// Blocks until an item arrives or the channel is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }
  std::optional<T> PopFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return !items_.empty(); })) {
      return std::nullopt;
    }
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Sleeps until `due_ns` (returns at once when already late).
void WaitUntil(int64_t due_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(due_ns)));
}

bool ConnectClient(Stack& stack, net::AsyncJoinClient* client, Tally* tally) {
  std::string error;
  if (client->Connect(stack.server().host(), stack.server().port(), &error)) {
    return true;
  }
  tally->Fail("connect: " + error, false);
  return false;
}

/// Records one traced JOIN_BATCH reply's server stages as child spans of
/// the client span, laid end to end from the send time.
void RecordServerStages(Tracer* tracer, const service::TraceContext& trace,
                        int64_t parent, int64_t send_ns, uint64_t rid) {
  if (!tracer->enabled() || !trace.enabled) return;
  int64_t at = send_ns;
  for (int s = 0; s < service::kNumTraceStages; ++s) {
    const int64_t dur = static_cast<int64_t>(trace.stage_us[s] * 1e3);
    tracer->Record(std::string("server.") +
                       service::TraceStageName(
                           static_cast<service::TraceStage>(s)),
                   at, at + dur, parent, rid, true);
    at += dur;
  }
}

void AddSplit(ServerSplit* split, const service::JoinResult& res,
              double rtt_ms) {
  split->queue_wait_ms.Add(res.queue_wait_ms);
  split->service_ms.Add(res.service_ms);
  split->rtt_minus_server_ms.Add(rtt_ms - res.queue_wait_ms - res.service_ms);
}

/// Total bytes of the regular files under `dir` (recursively).
uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// --- bulk ------------------------------------------------------------------

class BulkLoad {
 public:
  BulkLoad(const Scenario& sc, const Snapshots& snaps, Tracer* tracer)
      : sc_(sc), tracer_(tracer), stack_(snaps, kBulkStack) {
    std::string error;
    if (!stack_.Start(&error)) {
      out_.tally.Fail("server start: " + error, false);
      return;
    }
    if (!ConnectClient(stack_, &client_, &out_.tally)) return;
    batches_ = sc.bulk_batches;
    for (service::QueryBatch& b : batches_) {
      b.dataset_id = stack_.census_id();
      b.trace = tracer->enabled();
    }
    ready_ = true;
  }

  /// One round: `seconds` of closed-loop load, drained at the end.
  void Slice(double seconds) {
    if (!ready_) return;
    struct InFlight {
      uint32_t batch = 0;
      uint64_t rid = 0;
      int64_t send_ns = 0;
      int64_t span = -1;
      std::future<net::AsyncJoinClient::RawReply> reply;
    };
    std::deque<InFlight> inflight;
    std::vector<std::pair<int64_t, uint64_t>> completions;  // (done, points)
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    int64_t last_done = start;
    for (;;) {
      while (inflight.size() < static_cast<size_t>(sc_.sizes.bulk_inflight) &&
             NowNs() < deadline) {
        InFlight f;
        f.batch = static_cast<uint32_t>(next_++ % batches_.size());
        f.rid = client_.NextRequestId();
        f.span = tracer_->Begin("bulk.request", -1, f.rid);
        f.send_ns = NowNs();
        std::vector<uint8_t> frame;
        {
          ScopedSpan s(tracer_, "net.encode_join_batch", f.span, f.rid);
          batches_[f.batch].trace_id = f.rid;
          frame = net::EncodeJoinBatchFrame(f.rid, batches_[f.batch]);
        }
        f.reply = client_.Call(frame, f.rid, net::MessageType::kJoinResult);
        inflight.push_back(std::move(f));
      }
      if (inflight.empty()) break;
      InFlight f = std::move(inflight.front());
      inflight.pop_front();
      net::AsyncJoinClient::RawReply reply = f.reply.get();
      service::JoinResult res;
      bool decoded = false;
      if (reply.ok) {
        ScopedSpan s(tracer_, "net.decode_join_result", f.span, f.rid);
        decoded = net::DecodeJoinResult(reply.payload, &res);
      }
      const int64_t done = NowNs();
      tracer_->End(f.span);
      last_done = done;
      if (!reply.ok || !decoded) {
        out_.tally.Fail("bulk JOIN_BATCH: " +
                            (reply.ok ? std::string("undecodable result")
                                      : reply.message),
                        false);
        continue;
      }
      if (res.stats.counts != sc_.bulk_reference[f.batch] ||
          res.stats.num_points != batches_[f.batch].points.size()) {
        out_.tally.Fail("bulk counts differ from the PolygonIndex reference",
                        true);
        continue;
      }
      out_.tally.Ok();
      const double rtt = NsToMs(done - f.send_ns);
      out_.latency_ms.Add(rtt);
      completions.push_back({done, res.stats.num_points});
      AddSplit(&out_.split, res, rtt);
      RecordServerStages(tracer_, res.trace, f.span, f.send_ns, f.rid);
    }
    // Throughput per one-second window of completions (a short tail joins
    // the last window); the run reports the median over all windows.
    constexpr int64_t kWindowNs = 1'000'000'000;
    const int64_t span = last_done - start;
    const int64_t windows = std::max<int64_t>(1, span / kWindowNs);
    std::vector<uint64_t> points(static_cast<size_t>(windows), 0);
    for (const auto& [done, pts] : completions) {
      points[static_cast<size_t>(
          std::min(windows - 1, (done - start) / kWindowNs))] += pts;
    }
    for (int64_t w = 0; w < windows; ++w) {
      const int64_t len = w + 1 < windows ? kWindowNs : span - w * kWindowNs;
      if (len <= 0) continue;
      out_.window_mpts.Add(
          static_cast<double>(points[static_cast<size_t>(w)]) /
          static_cast<double>(len) * 1e3);
    }
  }

  BulkOutcome Finish() { return std::move(out_); }

 private:
  const Scenario& sc_;
  Tracer* tracer_;
  Stack stack_;
  net::AsyncJoinClient client_;
  std::vector<service::QueryBatch> batches_;
  uint64_t next_ = 0;
  bool ready_ = false;
  BulkOutcome out_;
};

// --- fleet -----------------------------------------------------------------

struct TickRecord {
  uint64_t index = 0;
  int step = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  uint64_t rid = 0;
  int64_t span = -1;
  std::vector<Move> moves;
  std::future<net::AsyncJoinClient::RawReply> reply;
};

struct EventArrival {
  int64_t ns = 0;
  service::EventBatch batch;
};

struct StepStats {
  Samples tick_ms;
  Samples event_ms;
};

/// Verifies ticks in order on its own thread: the JOIN_RESULT counts and
/// the EVENT batch of every tick against the from-scratch oracle.
class TickCollector {
 public:
  TickCollector(const Scenario& sc, Channel<TickRecord>* ticks,
                Channel<EventArrival>* events, Tracer* tracer)
      : sc_(sc),
        ticks_(ticks),
        events_(events),
        tracer_(tracer),
        oracle_(&sc.neighborhoods.polygons, sc.sizes.fleet_devices) {}

  void Run() {
    std::vector<service::GeoEvent> expected;
    while (std::optional<TickRecord> rec = ticks_->Pop()) {
      net::AsyncJoinClient::RawReply reply = rec->reply.get();
      const int64_t done = NowNs();
      service::JoinResult res;
      bool decoded = false;
      if (reply.ok) {
        ScopedSpan s(tracer_, "net.decode_join_result", rec->span, rec->rid);
        decoded = net::DecodeJoinResult(reply.payload, &res);
      }
      tracer_->End(rec->span);
      oracle_.Apply(rec->moves, &expected);
      const Verdict v = Check(*rec, reply, decoded, res, expected);
      RecordServerStages(tracer_, res.trace, rec->span, rec->send_ns,
                         rec->rid);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!v.failure.empty()) {
          tally_.Fail(v.failure, v.wrong);
        } else {
          tally_.Ok();
          StepStats& st = steps_[rec->step];
          st.tick_ms.Add(NsToMs(done - rec->due_ns), rec->due_ns);
          if (v.event_ns != 0) {
            st.event_ms.Add(NsToMs(v.event_ns - rec->due_ns), rec->due_ns);
          }
          AddSplit(&split_, res, NsToMs(done - rec->send_ns));
        }
        ++completed_;
      }
      cv_.notify_all();
    }
  }

  uint64_t completed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
  }
  /// Blocks until `n` ticks have been verified.
  void WaitCompleted(uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return completed_ >= n; });
  }
  StepStats TakeStep(int step) {
    std::lock_guard<std::mutex> lock(mu_);
    StepStats s = std::move(steps_[step]);
    steps_.erase(step);
    return s;
  }
  ServerSplit TakeSplit() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(split_);
  }
  Tally TakeTally() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(tally_);
  }

 private:
  struct Verdict {
    std::string failure;  // empty: the tick verified
    bool wrong = false;
    int64_t event_ns = 0;  // arrival of the tick's EVENT batch, 0 if none
  };

  /// Runs on the collector thread only; touches no shared state.
  Verdict Check(const TickRecord& rec,
                const net::AsyncJoinClient::RawReply& reply, bool decoded,
                const service::JoinResult& res,
                const std::vector<service::GeoEvent>& expected) {
    Verdict v;
    const std::string tick = "tick " + std::to_string(rec.index);
    if (!expected.empty()) {
      std::optional<EventArrival> ev =
          events_->PopFor(std::chrono::milliseconds(2000));
      if (!ev) {
        v.failure = tick + ": expected EVENT never arrived";
        return v;
      }
      const bool same = ev->batch.first_seq == next_seq_ &&
                        ev->batch.events == expected;
      next_seq_ = ev->batch.first_seq + ev->batch.events.size();
      if (!same) {
        v.failure = tick + ": ENTER/LEAVE events differ from the oracle";
        v.wrong = true;
        return v;
      }
      v.event_ns = ev->ns;
    }
    if (!reply.ok || !decoded) {
      v.failure = tick + " JOIN_BATCH: " +
                  (reply.ok ? std::string("undecodable") : reply.message);
      return v;
    }
    std::vector<uint64_t> want = oracle_.counts();
    if (sc_.corrupt == Corrupt::kFleet && rec.index == 3) ++want[0];
    if (res.stats.counts != want ||
        res.stats.num_points != sc_.sizes.fleet_devices) {
      v.failure = tick + ": counts differ from the membership oracle";
      v.wrong = true;
    }
    return v;
  }

  const Scenario& sc_;
  Channel<TickRecord>* ticks_;
  Channel<EventArrival>* events_;
  Tracer* tracer_;
  FleetOracle oracle_;
  uint64_t next_seq_ = 1;
  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  uint64_t completed_ = 0;
  std::map<int, StepStats> steps_;
  ServerSplit split_;
  Tally tally_;
};

class FleetLoad {
 public:
  FleetLoad(const Scenario& sc, const Snapshots& snaps, Tracer* tracer)
      : sc_(sc),
        tracer_(tracer),
        stack_(snaps, kFleetStack),
        model_(sc.neighborhoods.mbr, sc.sizes, sc.fleet_seed),
        collector_(sc, &ticks_, &events_, tracer) {
    std::string error;
    if (!stack_.Start(&error)) {
      out_.tally.Fail("server start: " + error, false);
      return;
    }
    if (!ConnectClient(stack_, &client_, &out_.tally)) return;
    service::SubscriptionSpec spec;
    spec.selector = service::SubscriptionSpec::Selector::kAll;
    spec.mode = service::SubscriptionMode::kBoth;
    net::AsyncJoinClient::SubscribeReply sub =
        client_
            .Subscribe(
                stack_.neighborhoods_id(), spec,
                [this](const service::EventBatch& b) {
                  events_.Push({NowNs(), b});
                },
                [this](const net::EventGap&) { gaps_.fetch_add(1); })
            .get();
    if (!sub.ok) {
      out_.tally.Fail("SUBSCRIBE: " + sub.message, false);
      return;
    }
    batch_.mode = ac::act::JoinMode::kExact;
    batch_.dataset_id = stack_.neighborhoods_id();
    batch_.trace = tracer->enabled();
    collector_thread_ = std::thread([this] { collector_.Run(); });
    ready_ = true;
  }

  ~FleetLoad() {
    ticks_.Close();
    if (collector_thread_.joinable()) collector_thread_.join();
  }

  FleetLoad(const FleetLoad&) = delete;
  FleetLoad& operator=(const FleetLoad&) = delete;

  /// One round: `seconds` of ticks at the design rate (step 0), then a
  /// wait until every tick is verified.
  void Slice(double seconds) {
    if (!ready_) return;
    KeepCpusAwake awake;
    const double design = sc_.sizes.design_tick_rps;
    Segment(0, design, std::max<int64_t>(10, std::llround(design * seconds)),
            0, &out_.lag_ms);
    collector_.WaitCompleted(tick_index_);
  }

  /// Runs the rate ladder and collects the outcome.
  FleetOutcome Finish(double step_seconds) {
    if (!ready_) return std::move(out_);
    StepStats design = collector_.TakeStep(0);
    {
      KeepCpusAwake awake;
      Ladder(design, step_seconds);
    }
    ticks_.Close();
    collector_thread_.join();
    // Nothing may remain unclaimed: an extra EVENT batch or a gap means
    // the pushed stream and the oracle disagree.
    if (events_.PopFor(std::chrono::milliseconds(20))) {
      out_.tally.Fail("EVENT batch with no matching tick", true);
    }
    if (gaps_.load() != 0) {
      out_.tally.Fail("EVENT_GAP: pushed events dropped", false);
    }
    out_.tick_ms = std::move(design.tick_ms);
    out_.event_ms = std::move(design.event_ms);
    out_.schedule_kept = out_.lag_ms.empty() ||
                         out_.lag_ms.Quantile(0.99) <=
                             1e3 / sc_.sizes.design_tick_rps;
    out_.split = collector_.TakeSplit();
    out_.tally.Merge(collector_.TakeTally());
    return std::move(out_);
  }

 private:
  /// Sends `n` ticks at `rate`; stops early (returns false) once the
  /// unanswered backlog exceeds `max_backlog` (0: never stop).
  bool Segment(int step, double rate, int64_t n, uint64_t max_backlog,
               Samples* lag) {
    const int64_t t0 = NowNs() + 1'000'000;
    const double interval_ns = 1e9 / rate;
    for (int64_t k = 0; k < n; ++k) {
      const int64_t due = t0 + static_cast<int64_t>(k * interval_ns);
      WaitUntil(due);
      if (max_backlog > 0 &&
          tick_index_ - collector_.completed() > max_backlog) {
        return false;
      }
      TickRecord rec;
      rec.index = tick_index_++;
      rec.step = step;
      rec.due_ns = due;
      rec.rid = client_.NextRequestId();
      rec.span = tracer_->Begin("fleet.tick", -1, rec.rid);
      model_.Step(&rec.moves);
      std::vector<uint8_t> frame;
      {
        ScopedSpan s(tracer_, "geo.encode", rec.span, rec.rid);
        batch_.points = model_.positions();
        batch_.cell_ids.resize(batch_.points.size());
        for (size_t i = 0; i < batch_.points.size(); ++i) {
          const ac::geom::Point& p = batch_.points[i];
          batch_.cell_ids[i] = sc_.grid.CellAt({p.y, p.x}).id();
        }
      }
      {
        ScopedSpan s(tracer_, "net.encode_join_batch", rec.span, rec.rid);
        batch_.trace_id = rec.rid;
        frame = net::EncodeJoinBatchFrame(rec.rid, batch_);
      }
      rec.send_ns = NowNs();
      if (lag != nullptr) lag->Add(NsToMs(rec.send_ns - due));
      rec.reply = client_.Call(frame, rec.rid, net::MessageType::kJoinResult);
      ticks_.Push(std::move(rec));
    }
    return true;
  }

  /// Binary search over fixed rungs design * 1.05^i for the highest rate
  /// whose probe keeps p90 under the limit without a growing backlog.
  /// Rung 0 (the design rate) is judged on the design window.
  void Ladder(const StepStats& design_stats, double step_seconds) {
    const double design = sc_.sizes.design_tick_rps;
    const double limit = sc_.sizes.tick_limit_ms;
    auto passes = [&](const StepStats& st, bool finished) {
      if (!finished || st.tick_ms.size() < 100) return false;
      if (st.tick_ms.Quantile(0.9) > limit) return false;
      // Growing backlog: the last quarter's median latency exceeds the
      // first quarter's by more than the limit.
      const std::vector<double>& v = st.tick_ms.values();  // in tick order
      const size_t q = v.size() / 4;
      Samples first, last;
      for (size_t i = 0; i < q; ++i) {
        first.Add(v[i]);
        last.Add(v[v.size() - 1 - i]);
      }
      return last.Median() <= first.Median() + limit;
    };
    // A rung fails only when two probes in a row fail it: a single host
    // stall (the vCPU descheduled for tens of milliseconds) can sink one
    // probe. A probe stops early once a quarter second of ticks is
    // unanswered, which only real overload produces.
    int step = 1;
    auto rung_passes = [&](int rung) {
      const double rate = design * std::pow(1.05, rung);
      for (int attempt = 0; attempt < 2; ++attempt) {
        const int64_t n =
            std::max<int64_t>(100, std::llround(rate * step_seconds));
        const uint64_t backlog =
            std::max<uint64_t>(64, std::llround(rate * 0.25));
        const bool finished = Segment(step, rate, n, backlog, nullptr);
        collector_.WaitCompleted(tick_index_);
        const StepStats st = collector_.TakeStep(step++);
        if (passes(st, finished)) return true;
      }
      return false;
    };
    constexpr int kRungs = 77;  // design * 1.05^76 ~ 41x design
    int lo = passes(design_stats, true) ? 0 : -1;
    int hi = kRungs;
    while (lo >= 0 && hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (rung_passes(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    out_.ladder_probes = step - 1;
    out_.max_tick_rps = lo >= 0 ? design * std::pow(1.05, lo) : 0;
  }

  const Scenario& sc_;
  Tracer* tracer_;
  Stack stack_;
  FleetModel model_;
  Channel<EventArrival> events_;
  Channel<TickRecord> ticks_;
  std::atomic<uint64_t> gaps_{0};
  TickCollector collector_;
  net::AsyncJoinClient client_;  // after the channels its handlers feed
  service::QueryBatch batch_;
  uint64_t tick_index_ = 0;
  bool ready_ = false;
  FleetOutcome out_;
  std::thread collector_thread_;
};

// --- churn -----------------------------------------------------------------

class ChurnLoad {
 public:
  ChurnLoad(const Scenario& sc, const Snapshots& snaps,
            const std::string& store_dir, Tracer* tracer)
      : sc_(sc),
        tracer_(tracer),
        store_dir_(store_dir),
        stack_(snaps, kChurnStack) {
    namespace fs = std::filesystem;
    std::string error;
    if (!stack_.Start(&error)) {
      out_.tally.Fail("server start: " + error, false);
      return;
    }
    std::error_code ec;
    fs::remove_all(store_dir_, ec);
    fs::create_directories(store_dir_, ec);
    if (!store_.Open({.dir = store_dir_}, &error)) {
      out_.tally.Fail("store open: " + error, false);
      return;
    }
    ac::store::CheckpointerOptions copts;
    copts.interval_ms = 100;
    copts.gc = false;  // the directory only grows: its growth is bytes written
    copts.autostart = false;
    checkpointer_.emplace(&store_, &stack_.service(), copts);
    checkpointer_->CheckpointNow();  // the initial full snapshots, untimed
    bytes_before_ = DirectoryBytes(store_dir_);
    checkpointer_->Start();
    if (!ConnectClient(stack_, &reader_, &out_.tally) ||
        !ConnectClient(stack_, &writer_, &out_.tally)) {
      return;
    }
    census_epoch0_ =
        stack_.service().catalog().Find(stack_.census_id())->epoch();
    neighborhoods_epoch_ =
        stack_.service().catalog().Find(stack_.neighborhoods_id())->epoch();
    ready_ = true;
  }

  ~ChurnLoad() {
    if (checkpointer_) checkpointer_->Stop();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  ChurnLoad(const ChurnLoad&) = delete;
  ChurnLoad& operator=(const ChurnLoad&) = delete;

  /// One round: whole mutation cycles at the fixed rate on the writer
  /// connection, JOIN_DATASETS closed loop on the reader until they end.
  void Slice(double seconds) {
    if (!ready_) return;
    // Whole cycles only: one ADD_POLYGONS of k polygons, then k
    // REMOVE_POLYGONS of one id each, so every round weighs the two
    // costs alike (ADD about 1/(k+1) of the samples, p90 inside the ADD
    // costs, p50 inside the REMOVE costs).
    const uint64_t cycle = sc_.sizes.churn_polygons_per_mutation + 1;
    const uint64_t cycles_left =
        sc_.churn_adds.size() - next_mutation_ / cycle;
    if (cycles_left == 0) return;
    const uint64_t n =
        cycle * std::clamp<uint64_t>(
                    std::llround(sc_.sizes.mutation_rps * seconds / cycle), 1,
                    cycles_left);
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      const int64_t t0 = NowNs();
      const double interval_ns = 1e9 / sc_.sizes.mutation_rps;
      for (uint64_t i = 0; i < n; ++i) {
        WaitUntil(t0 + static_cast<int64_t>(i * interval_ns));
        Mutate(next_mutation_++);
      }
      writer_done.store(true);
    });
    net::JoinDatasetsRequest req;
    req.dataset_b = stack_.census_id();
    req.mode = 0;  // intersects
    req.page_size = sc_.sizes.pair_page_size;
    req.trace = tracer_->enabled();
    do {
      CrossMatch(req);
    } while (!writer_done.load());
    writer.join();
  }

  ChurnOutcome Finish() {
    if (checkpointer_) checkpointer_->Stop();
    const uint64_t bytes_after = DirectoryBytes(store_dir_);
    out_.store_bytes_written =
        bytes_after > bytes_before_ ? bytes_after - bytes_before_ : 0;
    out_.mutations = next_mutation_;
    out_.mutate_ms = std::move(mutate_ms_);
    out_.tally.Merge(writer_tally_);
    return std::move(out_);
  }

 private:
  /// Mutation j of the run (writer thread only).
  void Mutate(uint64_t j) {
    const uint64_t k = sc_.sizes.churn_polygons_per_mutation;
    const uint64_t cycle = k + 1;
    const uint64_t base_n = sc_.census.polygons.size();
    const uint64_t m = j / cycle;
    const bool add = j % cycle == 0;
    const uint64_t rid = writer_.NextRequestId();
    std::vector<uint8_t> frame;
    if (add) {
      frame = net::EncodeAddPolygonsFrame(rid, stack_.census_id(),
                                          sc_.churn_adds[m]);
    } else {
      const std::vector<uint32_t> ids = {
          static_cast<uint32_t>(base_n + m * k + j % cycle - 1)};
      frame = net::EncodeRemovePolygonsFrame(rid, stack_.census_id(), ids);
    }
    const int64_t span = tracer_->Begin(
        add ? "churn.add_polygons" : "churn.remove_polygons", -1, rid);
    const int64_t send = NowNs();
    net::AsyncJoinClient::RawReply reply =
        writer_.Call(frame, rid, net::MessageType::kMutateResult).get();
    net::MutationAck ack;
    const bool decoded =
        reply.ok && net::DecodeMutationAck(reply.payload, &ack);
    const int64_t done = NowNs();
    tracer_->End(span);
    if (!reply.ok || !decoded) {
      writer_tally_.Fail("mutation: " + (reply.ok ? std::string("undecodable")
                                                  : reply.message),
                         false);
      return;
    }
    const bool ids_ok =
        ack.op == (add ? net::MessageType::kAddPolygons
                       : net::MessageType::kRemovePolygons) &&
        ack.epoch == census_epoch0_ + j + 1 &&
        ack.num_polygons == base_n + (m + 1) * k &&
        (!add || ack.first_id == base_n + m * k);
    if (!ids_ok) {
      writer_tally_.Fail("mutation ack carries unexpected ids/epoch", true);
      return;
    }
    writer_tally_.Ok();
    mutate_ms_.Add(NsToMs(done - send));
  }

  /// One JOIN_DATASETS, checked against brute force for the polygon set at
  /// the epochs it reports (reader thread only).
  void CrossMatch(const net::JoinDatasetsRequest& req) {
    const uint64_t rid = reader_.NextRequestId();
    const int64_t span = tracer_->Begin("churn.join_datasets", -1, rid);
    const int64_t send = NowNs();
    net::CrossMatchReply reply =
        reader_
            .CallCrossMatch(net::EncodeJoinDatasetsFrame(
                                rid, stack_.neighborhoods_id(), req),
                            rid)
            .get();
    const int64_t done = NowNs();
    tracer_->End(span);
    if (!reply.ok) {
      out_.tally.Fail("JOIN_DATASETS: " + reply.message, false);
      return;
    }
    const uint64_t max_mutations =
        sc_.churn_adds.size() * (sc_.sizes.churn_polygons_per_mutation + 1);
    const uint64_t applied = reply.stats.epoch_b - census_epoch0_;
    if (reply.stats.epoch_a != neighborhoods_epoch_ ||
        reply.stats.epoch_b < census_epoch0_ || applied > max_mutations) {
      out_.tally.Fail("JOIN_DATASETS reports unexpected epochs", true);
      return;
    }
    if (reply.pairs != sc_.ExpectedPairs(applied)) {
      out_.tally.Fail("JOIN_DATASETS pairs differ from brute force at epoch " +
                          std::to_string(reply.stats.epoch_b),
                      true);
      return;
    }
    out_.tally.Ok();
    out_.crossmatch_ms.Add(NsToMs(done - send));
    if (tracer_->enabled() && reply.trace.enabled) {
      int64_t at = send;
      for (int s = 0; s < ac::join2::kNumCrossMatchStages; ++s) {
        const int64_t dur =
            static_cast<int64_t>(reply.trace.stage_us[s] * 1e3);
        tracer_->Record(std::string("server.") +
                            ac::join2::CrossMatchStageName(
                                static_cast<ac::join2::CrossMatchStage>(s)),
                        at, at + dur, span, rid, true);
        at += dur;
      }
    }
  }

  const Scenario& sc_;
  Tracer* tracer_;
  std::string store_dir_;
  Stack stack_;
  ac::store::SnapshotStore store_;
  std::optional<ac::store::Checkpointer> checkpointer_;
  net::AsyncJoinClient reader_;
  net::AsyncJoinClient writer_;
  uint64_t bytes_before_ = 0;
  uint64_t census_epoch0_ = 0;
  uint64_t neighborhoods_epoch_ = 0;
  uint64_t next_mutation_ = 0;  // writer thread while a round runs
  bool ready_ = false;
  Samples mutate_ms_;           // writer thread
  Tally writer_tally_;          // writer thread
  ChurnOutcome out_;            // reader (calling) thread
};

}  // namespace

Stack::Stack(const Snapshots& snaps, const StackConfig& cfg) {
  service::ServiceOptions so;
  so.worker_threads = cfg.workers;
  so.queue_capacity = cfg.queue_capacity;
  service_ = std::make_unique<service::JoinService>(so);
  census_id_ = service_->catalog().Add("census", snaps.census).value();
  neighborhoods_id_ =
      service_->catalog().Add("neighborhoods", snaps.neighborhoods).value();
  net::ServerOptions no;
  no.io_threads = cfg.io_threads;
  server_ = std::make_unique<net::JoinServer>(service_.get(), no);
}

Stack::~Stack() {
  server_->Stop();
  server_.reset();
  service_->Shutdown();
}

bool Stack::Start(std::string* error) { return server_->Start(error); }

PassResult RunPass(const Scenario& sc, const Snapshots& snaps,
                   const PhasePlan& plan, const std::string& store_dir,
                   Tracer* tracer, const Phase* only) {
  auto on = [&](Phase p) { return only == nullptr || *only == p; };
  std::optional<BulkLoad> bulk;
  std::optional<FleetLoad> fleet;
  std::optional<ChurnLoad> churn;
  if (on(Phase::kBulk)) bulk.emplace(sc, snaps, tracer);
  if (on(Phase::kFleet)) fleet.emplace(sc, snaps, tracer);
  if (on(Phase::kChurn)) churn.emplace(sc, snaps, store_dir, tracer);
  const int rounds = std::max(1, plan.rounds);
  for (int r = 0; r < rounds; ++r) {
    if (bulk) bulk->Slice(plan.bulk_s / rounds);
    if (fleet) fleet->Slice(plan.fleet_design_s / rounds);
    if (churn) churn->Slice(plan.churn_s / rounds);
  }
  PassResult out;
  if (bulk) {
    out.bulk = bulk->Finish();
    out.tally.Merge(out.bulk.tally);
  }
  if (fleet) {
    out.fleet = fleet->Finish(plan.fleet_step_s);
    out.tally.Merge(out.fleet.tally);
  }
  if (churn) {
    out.churn = churn->Finish();
    out.tally.Merge(out.churn.tally);
  }
  return out;
}

}  // namespace perfbench
