// irf_census: iRF-LOOP on a census-like dataset with the paper's county
// count, on a thread pool of nproc workers. Compute-bound; touches only irf
// and the util thread pool.

#include <optional>
#include <stdexcept>

#include "irf/dataset.hpp"
#include "irf/forest.hpp"
#include "irf/irf_loop.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kCounties = 3220;  // US counties, as in the paper
constexpr size_t kFeatures = 24;

ff::irf::CensusConfig census_config() {
  ff::irf::CensusConfig config;
  config.samples = kCounties;
  config.features = kFeatures;
  config.blocks = 4;
  config.planted_fraction = 0.25;
  return config;
}

// The fit the repository's census example runs (examples/irf_census_campaign).
ff::irf::IrfLoopParams loop_params() {
  ff::irf::IrfLoopParams params;
  params.irf.iterations = 3;
  params.irf.forest.n_trees = 30;
  return params;
}

uint64_t loop_seed(uint64_t seed) { return ff::splitmix64(seed + 17); }

/// FNV-1a over the adjacency matrix's bytes.
uint64_t adjacency_digest(const ff::irf::IrfLoopResult& result) {
  uint64_t hash = 1469598103934665603ull;
  const ff::irf::DenseMatrix& m = result.adjacency;
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < m.rows() * m.cols() * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The serial (pool = nullptr) fit every pooled loop must match, and its
/// wall time.
struct SerialReference {
  uint64_t digest = 0;
  double loop_s = 0;
};

/// Fitted on the first call only: every pass of one process has the same
/// seed, and a serial loop takes as long as several pooled ones.
const SerialReference& serial_reference(const Context& context,
                                        const ff::irf::CensusDataset& census) {
  static std::optional<SerialReference> reference;
  if (!reference) {
    const double t0 = now_s();
    ScopedSpan span("irf.serial_loop", 0);
    const ff::irf::IrfLoopResult serial =
        ff::irf::run_irf_loop(census.data, loop_params(), loop_seed(context.seed), nullptr);
    reference = SerialReference{adjacency_digest(serial), now_s() - t0};
  }
  return *reference;
}

}  // namespace

std::shared_ptr<void> setup_irf(const Context& context) {
  return std::make_shared<ff::irf::CensusDataset>(
      ff::irf::make_census_dataset(census_config(), context.seed));
}

void run_irf_census(const Context& context, double seconds, Outcome& out) {
  const ff::irf::CensusDataset census =
      ff::irf::make_census_dataset(census_config(), context.seed);
  const ff::irf::IrfLoopParams params = loop_params();
  ff::ThreadPool pool(context.nproc);

  std::vector<double> loop_s;
  uint64_t digest = 0;
  double recovery = 0;
  const double deadline = now_s() + seconds;
  for (uint64_t k = 0; loop_s.empty() || now_s() < deadline; ++k) {
    ++out.attempted;
    const double t0 = now_s();
    int64_t span = SpanLog::instance().open("irf.loop", k);
    const ff::irf::IrfLoopResult result =
        ff::irf::run_irf_loop(census.data, params, loop_seed(context.seed), &pool);
    SpanLog::instance().close(span);
    loop_s.push_back(now_s() - t0);
    const uint64_t this_digest = adjacency_digest(result);
    if (k == 0) {
      digest = this_digest;
      recovery = ff::irf::edge_recovery(result, census.true_edges);
    } else if (this_digest != digest) {
      out.problem("adjacency differs between loops " + std::to_string(k));
    }
  }

  const SerialReference& serial = serial_reference(context, census);
  out.set("irf.serial_loop_s", serial.loop_s, "s");
  if (serial.digest != digest) out.problem("adjacency differs from the serial fit");

  const double loop = ff::median(loop_s);
  out.set("irf_loop_s", loop, "s");
  out.set("irf_loop_max_s", ff::percentile(loop_s, 100), "s");
  out.set("irf_loop_mean_s", ff::mean(loop_s), "s");
  out.set("edge_recovery", recovery, "ratio");
  out.set("irf_loops", static_cast<double>(loop_s.size()), "count");
  out.set("irf_targets_per_s", static_cast<double>(kFeatures) / loop, "1/s");
  out.set("irf.parallel_efficiency",
          out.get("irf.serial_loop_s") / (static_cast<double>(context.nproc) * loop), "ratio");
  out.set("irf.trees_fitted",
          static_cast<double>(loop_s.size() * kFeatures * params.irf.iterations *
                              params.irf.forest.n_trees),
          "count");
}

void probe_irf_layers(const Context& context, Outcome& out) {
  const ff::irf::CensusDataset census =
      ff::irf::make_census_dataset(census_config(), context.seed);
  const ff::irf::IrfLoopParams params = loop_params();
  ff::ThreadPool pool(context.nproc);

  std::optional<ff::irf::FeatureOrderCache> orders;
  for (uint64_t rep = 0; rep < 3; ++rep) {
    ScopedSpan span("irf.order_cache", rep);
    orders.emplace(ff::irf::FeatureOrderCache::build(ff::irf::MatrixView(census.data.x)));
  }
  // One fit_irf per leave-one-out target, each with its trees on the pool.
  for (size_t target = 0; target < kFeatures; ++target) {
    const ff::irf::Dataset::LooView view = census.data.leave_one_out(target, &*orders);
    ScopedSpan span("irf.target_fit", target);
    const ff::irf::IrfResult fit = ff::irf::fit_irf(view.predictors, view.y, params.irf,
                                                    loop_seed(context.seed) + target, &pool);
    if (fit.importance().size() != kFeatures - 1) out.problem("target fit has no importances");
  }
  const ff::irf::Dataset::LooView view = census.data.leave_one_out(0, &*orders);
  for (uint64_t rep = 0; rep < 3; ++rep) {
    ff::irf::RandomForest forest;
    ScopedSpan span("irf.forest_fit", rep);
    forest.fit(view.predictors, view.y, params.irf.forest, loop_seed(context.seed) + rep,
               {}, &pool);
    if (!forest.fitted()) out.problem("forest fit produced no trees");
  }
}

}  // namespace perfbench
