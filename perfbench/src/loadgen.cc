#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

namespace perfbench {

using d2stgnn::infer::Forecast;

std::vector<Arrival> PoissonSchedule(const std::vector<PhaseSpec>& phases,
                                     int64_t items_per_lane, uint64_t seed) {
  // mt19937_64's output sequence is fixed by the standard; the exponential
  // and uniform draws are done by hand so the schedule is the same with any
  // standard library.
  std::mt19937_64 engine(seed);
  const auto uniform = [&engine] {
    return (static_cast<double>(engine() >> 11) + 0.5) * 0x1.0p-53;
  };
  std::vector<Arrival> out;
  double phase_start = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseSpec& phase = phases[p];
    for (size_t lane = 0; lane < phase.lane_rps.size(); ++lane) {
      const double rate = phase.lane_rps[lane];
      if (rate <= 0.0) continue;
      double t = -std::log(uniform()) / rate;
      while (t < phase.seconds) {
        Arrival a;
        a.at_s = phase_start + t;
        a.lane = static_cast<int>(lane);
        a.phase = static_cast<int>(p);
        a.item = static_cast<int64_t>(engine() %
                                      static_cast<uint64_t>(items_per_lane));
        out.push_back(a);
        t += -std::log(uniform()) / rate;
      }
    }
    phase_start += phase.seconds;
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.at_s < b.at_s;
  });
  for (size_t i = 0; i < out.size(); ++i) out[i].id = static_cast<int64_t>(i);
  return out;
}

namespace {

struct Pending {
  int64_t id = 0;
  Clock::time_point scheduled;
  Clock::time_point sent;
  bool keep = false;
  std::future<Forecast> future;
};

// One FIFO per lane: a lane's server queue dispatches in arrival order, so
// its futures resolve (almost) in order and the harvester can wait on the
// oldest one. Across lanes order is arbitrary, so with several lanes the
// harvester polls every lane's oldest future instead of blocking on one.
struct Lanes {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<Pending>> queues;
  bool done = false;
};

}  // namespace

LoadResult RunOpenLoop(const std::vector<Arrival>& schedule, int num_lanes,
                       const SubmitFn& submit,
                       const std::function<bool(const Arrival&)>& keep_values,
                       Tracer* tracer) {
  LoadResult result;
  result.outcomes.resize(schedule.size());
  Lanes lanes;
  lanes.queues.resize(static_cast<size_t>(num_lanes));

  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  // Give up on futures this long after the last scheduled send: a future
  // that is still pending by then never resolved.
  const double last_s = schedule.empty() ? 0.0 : schedule.back().at_s;
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(last_s + 60.0));

  std::thread harvester([&] {
    const bool single = num_lanes == 1;
    std::vector<Pending*> fronts(lanes.queues.size(), nullptr);
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(lanes.mu);
        lanes.cv.wait(lock, [&] {
          if (lanes.done) return true;
          for (const auto& q : lanes.queues) {
            if (!q.empty()) return true;
          }
          return false;
        });
        bool any = false;
        for (size_t l = 0; l < lanes.queues.size(); ++l) {
          // deque::push_back keeps references valid; only this thread pops.
          fronts[l] = lanes.queues[l].empty() ? nullptr
                                              : &lanes.queues[l].front();
          any = any || fronts[l] != nullptr;
        }
        if (!any) return;  // done and drained
      }
      bool progressed = false;
      Pending* oldest = nullptr;
      for (size_t l = 0; l < fronts.size(); ++l) {
        Pending* p = fronts[l];
        if (p == nullptr) continue;
        if (p->future.wait_until(single ? give_up : Clock::now()) !=
            std::future_status::ready) {
          if (single || Clock::now() >= give_up) {
            // Abandon the lane: everything left in it never resolved.
            std::lock_guard<std::mutex> lock(lanes.mu);
            result.unresolved += static_cast<int64_t>(lanes.queues[l].size());
            lanes.queues[l].clear();
            progressed = true;
          } else if (oldest == nullptr || p->scheduled < oldest->scheduled) {
            oldest = p;
          }
          continue;
        }
        const Forecast f = p->future.get();
        const Clock::time_point now = Clock::now();
        Outcome& o = result.outcomes[static_cast<size_t>(p->id)];
        o.harvested = true;
        o.ok = f.ok;
        o.reason = f.reason;
        o.latency_ms = MsBetween(p->scheduled, now);
        o.sojourn_ms = MsBetween(p->sent, now);
        if (p->keep && f.ok) o.values = f.values;
        if (tracer != nullptr) {
          tracer->Record("loadgen.sojourn", p->scheduled, now, p->id);
        }
        ++result.resolved;
        std::lock_guard<std::mutex> lock(lanes.mu);
        lanes.queues[l].pop_front();
        progressed = true;
      }
      if (!progressed && oldest != nullptr) {
        oldest->future.wait_for(std::chrono::microseconds(100));
      }
    }
  });

  int64_t sent = 0;
  Clock::time_point next_thread_count = start;
  for (const Arrival& a : schedule) {
    const Clock::time_point scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.at_s));
    std::this_thread::sleep_until(scheduled);
    Pending p;
    p.id = a.id;
    p.scheduled = scheduled;
    p.keep = keep_values && keep_values(a);
    p.sent = Clock::now();
    {
      Tracer::Scope span(tracer, "server.submit", a.id);
      p.future = submit(a);
    }
    const Clock::time_point after = Clock::now();
    Outcome& o = result.outcomes[static_cast<size_t>(a.id)];
    o.id = a.id;
    o.lane = a.lane;
    o.phase = a.phase;
    o.lag_ms = MsBetween(scheduled, p.sent);
    o.submit_us = MsBetween(p.sent, after) * 1000.0;
    {
      std::lock_guard<std::mutex> lock(lanes.mu);
      lanes.queues[static_cast<size_t>(a.lane)].push_back(std::move(p));
    }
    lanes.cv.notify_one();
    ++sent;
    if (after >= next_thread_count) {
      result.max_threads = std::max(result.max_threads, LiveThreads());
      next_thread_count = after + std::chrono::milliseconds(200);
    }
  }
  result.max_threads = std::max(result.max_threads, LiveThreads());
  {
    std::lock_guard<std::mutex> lock(lanes.mu);
    lanes.done = true;
  }
  lanes.cv.notify_one();
  harvester.join();
  result.sent = sent;
  return result;
}

}  // namespace perfbench
