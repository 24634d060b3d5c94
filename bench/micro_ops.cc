// Micro-benchmarks (google-benchmark) for the primitive operations the
// paper's cost arguments rest on: space-filling-curve conversion, cell-id
// algebra, PIP tests as a function of polygon complexity, single probes of
// ACT vs B-tree vs lower_bound, covering computation, and edge-grid
// classification.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "act/act.h"
#include "bench/bench_common.h"
#include "util/timer.h"
#include "act/classifier.h"
#include "act/pipeline.h"
#include "baselines/cell_indexes.h"
#include "cover/coverer.h"
#include "geo/grid.h"
#include "geometry/pip.h"
#include "util/random.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin {
namespace {

void BM_HilbertIJToPos(benchmark::State& state) {
  util::Rng rng(1);
  uint32_t i = static_cast<uint32_t>(rng.Next()) & ((1u << 30) - 1);
  uint32_t j = static_cast<uint32_t>(rng.Next()) & ((1u << 30) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::IJToPos(geo::CurveType::kHilbert, 30, i, j));
    i = (i * 2654435761u + 1) & ((1u << 30) - 1);
  }
}
BENCHMARK(BM_HilbertIJToPos);

void BM_MortonIJToPos(benchmark::State& state) {
  util::Rng rng(1);
  uint32_t i = static_cast<uint32_t>(rng.Next()) & ((1u << 30) - 1);
  uint32_t j = static_cast<uint32_t>(rng.Next()) & ((1u << 30) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::IJToPos(geo::CurveType::kMorton, 30, i, j));
    i = (i * 2654435761u + 1) & ((1u << 30) - 1);
  }
}
BENCHMARK(BM_MortonIJToPos);

void BM_CellAtLeaf(benchmark::State& state) {
  geo::Grid grid;
  util::Rng rng(2);
  for (auto _ : state) {
    geo::LatLng p{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    benchmark::DoNotOptimize(grid.CellAt(p));
  }
}
BENCHMARK(BM_CellAtLeaf);

void BM_CellIdParentChild(benchmark::State& state) {
  geo::Grid grid;
  geo::CellId c = grid.CellAt({40.7, -74.0}, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.parent(10));
    benchmark::DoNotOptimize(c.child(2));
    benchmark::DoNotOptimize(c.range_min());
  }
}
BENCHMARK(BM_CellIdParentChild);

// PIP cost is linear in edges — the core argument for true-hit filtering.
void BM_PipByPolygonSize(benchmark::State& state) {
  int vertices = static_cast<int>(state.range(0));
  geom::Polygon poly =
      wl::RandomStarPolygon({0, 0}, 1.0, vertices, /*seed=*/3);
  util::Rng rng(4);
  for (auto _ : state) {
    geom::Point q{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    benchmark::DoNotOptimize(geom::ContainsPoint(poly, q));
  }
  state.SetLabel(std::to_string(vertices) + " vertices");
}
BENCHMARK(BM_PipByPolygonSize)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

struct ProbeFixtureData {
  geo::Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.1);
  act::SuperCovering sc;
  act::EncodedCovering enc;
  wl::PointSet pts;

  ProbeFixtureData() {
    act::PolygonClassifier classifier(ds.polygons, grid, 1);
    act::BuildOptions opts;
    opts.threads = 1;
    opts.precision_bound_m = 15.0;
    sc = act::BuildSuperCovering(ds.polygons, grid, classifier, opts,
                                 nullptr);
    enc = act::Encode(sc);
    pts = wl::TaxiPoints(ds.mbr, 200'000, grid, 5);
  }
};

ProbeFixtureData& Fixture() {
  static ProbeFixtureData data;
  return data;
}

void BM_ProbeAct(benchmark::State& state) {
  ProbeFixtureData& f = Fixture();
  act::AdaptiveCellTrie trie(f.enc,
                             {.bits_per_level = static_cast<int>(
                                  state.range(0))});
  size_t k = 0;
  const auto& ids = f.pts.cell_ids();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.Probe(ids[k]));
    k = (k + 1) % ids.size();
  }
  state.SetLabel("ACT" + std::to_string(state.range(0) / 2));
}
BENCHMARK(BM_ProbeAct)->Arg(2)->Arg(4)->Arg(8);

void BM_ProbeBTree(benchmark::State& state) {
  ProbeFixtureData& f = Fixture();
  baselines::BTreeCellIndex gbt(f.enc);
  size_t k = 0;
  const auto& ids = f.pts.cell_ids();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbt.Probe(ids[k]));
    k = (k + 1) % ids.size();
  }
}
BENCHMARK(BM_ProbeBTree);

void BM_ProbeLowerBound(benchmark::State& state) {
  ProbeFixtureData& f = Fixture();
  baselines::SortedVectorIndex lb(f.enc);
  size_t k = 0;
  const auto& ids = f.pts.cell_ids();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.Probe(ids[k]));
    k = (k + 1) % ids.size();
  }
}
BENCHMARK(BM_ProbeLowerBound);

void BM_Covering(benchmark::State& state) {
  geo::Grid grid;
  geom::Polygon poly = wl::RandomStarPolygon({-74.0, 40.7}, 0.05, 24, 6);
  for (auto _ : state) {
    cover::Coverer coverer(poly, grid);
    benchmark::DoNotOptimize(coverer.Covering({128, 30, 0}));
  }
}
BENCHMARK(BM_Covering);

void BM_EdgeGridClassify(benchmark::State& state) {
  geom::Polygon poly = wl::RandomStarPolygon({0, 0}, 1.0, 256, 7);
  geom::EdgeGrid grid(poly);
  util::Rng rng(8);
  for (auto _ : state) {
    double x = rng.Uniform(-1, 0.9);
    double y = rng.Uniform(-1, 0.9);
    benchmark::DoNotOptimize(
        grid.Classify(poly, geom::Rect::Of(x, y, x + 0.05, y + 0.05)));
  }
}
BENCHMARK(BM_EdgeGridClassify);

void BM_SuperCoveringInsert(benchmark::State& state) {
  geo::Grid grid;
  util::Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    act::SuperCoveringBuilder builder;
    state.ResumeTiming();
    for (int k = 0; k < 1000; ++k) {
      geo::LatLng p{rng.Uniform(40.4, 41.0), rng.Uniform(-74.3, -73.7)};
      act::RefList refs;
      refs.push_back({static_cast<uint32_t>(k % 16), k % 2 == 0});
      builder.Insert(grid.CellAt(p, 8 + static_cast<int>(rng.UniformInt(10))),
                     refs);
    }
    benchmark::DoNotOptimize(builder.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SuperCoveringInsert);

}  // namespace
}  // namespace actjoin

// BENCHMARK_MAIN() plus the repo-wide --smoke / --smoke_report protocol
// (see bench/CMakeLists.txt). --smoke caps each micro-benchmark at a few
// milliseconds of measurement; --smoke_report appends the standard JSON
// line with throughput 0 (micro-op items/s are not join points/s).
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string report_path;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    std::string_view arg = argv[i];
    constexpr std::string_view kReport = "--smoke_report=";
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.substr(0, kReport.size()) == kReport) {
      report_path = std::string(arg.substr(kReport.size()));
    } else {
      args.push_back(argv[i]);
    }
  }
  static char kMinTime[] = "--benchmark_min_time=0.005";
  if (smoke) args.push_back(kMinTime);
  args.push_back(nullptr);
  int n = static_cast<int>(args.size()) - 1;

  actjoin::util::WallTimer timer;
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!report_path.empty()) {
    actjoin::bench::AppendSmokeReport(report_path, "micro_ops", 0.0,
                                      timer.ElapsedMillis());
  }
  return 0;
}
