#include "fleet/fleet.h"

#include <algorithm>
#include <thread>

#include "util/rng.h"
#include "util/strings.h"
#include "util/wall_clock.h"

namespace simba::fleet {

std::uint64_t shard_seed(std::uint64_t base_seed, std::size_t shard_id) {
  // Two splitmix64 steps over the concatenated (base, id) state; the
  // same construction rng.cc uses for seeding, so shard streams are as
  // independent as named child streams.
  std::uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ULL * (shard_id + 1));
  std::uint64_t mixed = splitmix64(state);
  mixed ^= splitmix64(state);
  // Seed 0 would collapse xoshiro's splitmix bootstrap entropy; nudge.
  return mixed == 0 ? 0x5eed5eed5eed5eedULL : mixed;
}

std::vector<double> delivery_latency_boundaries() {
  return {0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0, 7200.0, 86400.0};
}

void FleetReport::merge_shard(ShardResult shard) {
  counters.merge(shard.counters);
  delivery_latency.merge(shard.delivery_latency);
  ack_latency.merge(shard.ack_latency);
  critical_latency.merge(shard.critical_latency);
  delivery_histogram.merge(shard.delivery_histogram);
  events_processed += shard.events_processed;
  shard_wall_seconds.add(shard.wall_seconds);
  trace.merge(std::move(shard.trace));
  per_shard.push_back(std::move(shard));
}

namespace {

// Deterministic double rendering: %.9g is enough to round-trip every
// value these statistics produce while staying locale-independent.
std::string json_double(double v) { return strformat("%.9g", v); }

std::string json_summary(const Summary& s) {
  std::string out = "{\"n\":" + std::to_string(s.count());
  if (!s.empty()) {
    out += ",\"mean\":" + json_double(s.mean());
    out += ",\"p50\":" + json_double(s.percentile(50));
    out += ",\"p90\":" + json_double(s.percentile(90));
    out += ",\"p99\":" + json_double(s.percentile(99));
    out += ",\"min\":" + json_double(s.min());
    out += ",\"max\":" + json_double(s.max());
  }
  out += "}";
  return out;
}

std::string json_counters(const Counters& counters) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters.all()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(value);
  }
  out += "}";
  return out;
}

std::string json_histogram(const Histogram& histogram) {
  std::string out = "[";
  for (std::size_t i = 0; i < histogram.buckets().size(); ++i) {
    if (i) out += ",";
    out += std::to_string(histogram.buckets()[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string FleetReport::correctness_json() const {
  std::string out = "{";
  out += "\"shards\":" + std::to_string(shards);
  out += ",\"base_seed\":" + std::to_string(base_seed);
  out += ",\"counters\":" + json_counters(counters);
  out += ",\"delivery_latency\":" + json_summary(delivery_latency);
  out += ",\"ack_latency\":" + json_summary(ack_latency);
  out += ",\"critical_latency\":" + json_summary(critical_latency);
  out += ",\"delivery_histogram\":" + json_histogram(delivery_histogram);
  out += ",\"events_processed\":" + std::to_string(events_processed);
  out += ",\"per_shard\":[";
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    if (i) out += ",";
    const ShardResult& s = per_shard[i];
    out += "{\"shard\":" + std::to_string(s.shard_id);
    out += ",\"seed\":" + std::to_string(s.seed);
    out += ",\"events\":" + std::to_string(s.events_processed);
    out += ",\"counters\":" + json_counters(s.counters);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string FleetReport::render() const {
  std::string out;
  out += strformat("fleet: %zu shards x 1 user, %d thread%s, base seed %llu\n",
                   shards, threads, threads == 1 ? "" : "s",
                   static_cast<unsigned long long>(base_seed));
  out += strformat("  events processed   %llu\n",
                   static_cast<unsigned long long>(events_processed));
  out += strformat("  fleet wall clock   %.3f s\n", wall_seconds);
  if (!shard_wall_seconds.empty()) {
    out += "  shard wall clock   " + shard_wall_seconds.report("%.4f") + "\n";
  }
  if (!delivery_latency.empty()) {
    out += "  delivery latency   " + delivery_latency.report("%.2f") + "\n";
  }
  if (!ack_latency.empty()) {
    out += "  ack latency        " + ack_latency.report("%.2f") + "\n";
  }
  if (!critical_latency.empty()) {
    out += "  critical latency   " + critical_latency.report("%.2f") + "\n";
  }
  out += "  counters:\n" + counters.report();
  if (delivery_histogram.count() > 0) {
    out += "  delivery latency histogram:\n" + delivery_histogram.render();
  }
  return out;
}

std::size_t ShardScheduler::claim() {
  util::MutexLock lock(mu_);
  if (first_failure_) return shards_;
  return next_ < shards_ ? next_++ : shards_;
}

void ShardScheduler::finish(std::size_t shard,
                            const std::function<void(std::size_t)>& fold) {
  util::MutexLock lock(mu_);
  finished_[shard] = true;
  while (next_fold_ < shards_ && finished_[next_fold_]) fold(next_fold_++);
}

void ShardScheduler::record_failure(std::exception_ptr error) {
  util::MutexLock lock(mu_);
  if (!first_failure_) first_failure_ = std::move(error);
}

void ShardScheduler::rethrow_if_failed() {
  util::MutexLock lock(mu_);
  if (first_failure_) std::rethrow_exception(first_failure_);
}

FleetReport run_fleet(const FleetOptions& options, const ShardBody& body) {
  const util::WallTimer fleet_timer;
  const std::size_t n = options.shards;
  FleetReport report;
  report.shards = n;
  report.threads = std::max(1, options.threads);
  report.base_seed = options.base_seed;
  report.per_shard.reserve(n);
  std::vector<ShardResult> results(n);
  const auto fold = [&report, &results](std::size_t shard_id) {
    report.merge_shard(std::move(results[shard_id]));
  };

  // Work queue: the scheduler hands shards out in claim order; each
  // worker writes only its own results slot and then lets the scheduler
  // fold every shard that is next in shard order. A shard body that
  // throws stops the fleet: the scheduler drains the queue, workers
  // wind down, and the first exception is rethrown here (after join)
  // instead of std::terminate()ing a worker thread.
  ShardScheduler scheduler(n);
  const auto worker = [&] {
    while (true) {
      const std::size_t i = scheduler.claim();
      if (i >= n) return;
      try {
        const ShardTask task{i, shard_seed(options.base_seed, i)};
        const util::WallTimer shard_timer;
        ShardResult result = body(task);
        result.shard_id = task.shard_id;
        result.seed = task.seed;
        result.wall_seconds = shard_timer.seconds();
        results[i] = std::move(result);
        scheduler.finish(i, fold);
      } catch (...) {
        scheduler.record_failure(std::current_exception());
        return;
      }
    }
  };

  const int threads =
      static_cast<int>(std::min<std::size_t>(
          n, static_cast<std::size_t>(std::max(1, options.threads))));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  scheduler.rethrow_if_failed();

  report.wall_seconds = fleet_timer.seconds();
  return report;
}

}  // namespace simba::fleet
