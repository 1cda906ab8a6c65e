#include "adversary/lower_bound_game.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/expects.hpp"
#include "sched/validator.hpp"

namespace slacksched {

std::string to_string(GameStop stop) {
  switch (stop) {
    case GameStop::kRejectedFirstJob:
      return "rejected-first-job";
    case GameStop::kPhase2Early:
      return "phase2-early";
    case GameStop::kPhase3:
      return "phase3";
  }
  return "unknown";
}

LowerBoundGame::LowerBoundGame(const AdversaryConfig& config)
    : config_(config), solution_(RatioFunction::solve(config.eps, config.m)) {
  SLACKSCHED_EXPECTS(config.eps > 0.0 && config.eps <= 1.0);
  SLACKSCHED_EXPECTS(config.m >= 1);
  // The overlap interval halves once per phase-2 subphase; it must stay
  // comfortably above the time tolerance after m halvings.
  SLACKSCHED_EXPECTS(config.beta >= std::ldexp(100.0 * kTimeEps, config.m));
  SLACKSCHED_EXPECTS(config.beta < 0.25);
}

GameResult LowerBoundGame::play(OnlineScheduler& algorithm) const {
  SLACKSCHED_EXPECTS(algorithm.machines() == config_.m);
  algorithm.reset();

  const int m = config_.m;
  const int k = solution_.k;

  GameResult result{{},
                    Instance{},
                    Schedule(m),
                    Schedule(m),
                    0.0,
                    0.0,
                    0.0,
                    GameStop::kPhase3,
                    0,
                    solution_};
  std::vector<Job> submitted;
  JobId next_id = 1;

  auto submit = [&](TimePoint release, Duration proc, TimePoint deadline,
                    int phase, int subphase) -> Decision {
    Job job;
    job.id = next_id++;
    job.release = release;
    job.proc = proc;
    job.deadline = deadline;
    const Decision decision = algorithm.on_arrival(job);
    const std::string violation =
        validate_commitment(result.online_schedule, job, decision);
    if (!violation.empty()) throw PostconditionError("adversary: " + violation);
    if (decision.accepted) {
      result.online_schedule.commit(job, decision.machine, decision.start);
    }
    result.trace.push_back({job, decision, phase, subphase});
    submitted.push_back(job);
    return decision;
  };

  auto finish = [&](GameStop stop, int stop_subphase) {
    result.stop = stop;
    result.stop_subphase = stop_subphase;
    result.instance = Instance(submitted);
    result.alg_volume = result.online_schedule.total_volume();
    result.opt_volume = result.optimal_schedule.total_volume();
    result.ratio = result.alg_volume <= 0.0
                       ? std::numeric_limits<double>::infinity()
                       : result.opt_volume / result.alg_volume;
    return result;
  };

  // ---- Phase 1: the unit set-up job. ----
  const Decision first = submit(0.0, 1.0, config_.d1, 1, 0);
  if (!first.accepted) {
    // Optimal certificate: just run J_1.
    result.optimal_schedule.commit(submitted.front(), 0, 0.0);
    return finish(GameStop::kRejectedFirstJob, 0);
  }
  const TimePoint t = first.start;
  // The certificate appends J_1 after the largest later deadline; make sure
  // d_1 is really "large" relative to the algorithm's chosen start.
  SLACKSCHED_EXPECTS(t + (1.0 + config_.eps) / config_.eps + 2.0 <= config_.d1);

  // ---- Phase 2: overlap-interval halving (Lemma 1). ----
  TimePoint lo = t + 1.0 - config_.beta;
  TimePoint hi = t + 1.0;
  int u = 0;           // first fully rejected subphase
  Duration p2u = 0.0;  // its processing time
  for (int h = 1; h <= m && u == 0; ++h) {
    const Duration p2 = 0.5 * (lo + hi) - t;
    const TimePoint d2 = t + 2.0 * p2;
    bool accepted_one = false;
    for (int trial = 0; trial < 2 * m; ++trial) {
      const Decision decision = submit(t, p2, d2, 2, h);
      if (decision.accepted) {
        // Shrink the overlap interval to the part of it the newly
        // committed execution covers; Lemma 1 keeps it non-degenerate.
        lo = std::max(lo, decision.start);
        hi = std::min(hi, decision.start + p2);
        SLACKSCHED_ENSURES(lo < hi);
        accepted_one = true;
        break;
      }
    }
    if (!accepted_one) {
      u = h;
      p2u = p2;
    }
  }
  // Lemma 1: after J_1 and at most m-1 phase-2 acceptances every machine is
  // busy throughout the overlap interval, so subphase m cannot be accepted.
  SLACKSCHED_ENSURES(u >= 1);

  // Collect the 2m rejected jobs of the final subphase for the certificate.
  std::vector<Job> final_p2_jobs;
  for (const GameEvent& e : result.trace) {
    if (e.phase == 2 && e.subphase == u && !e.decision.accepted) {
      final_p2_jobs.push_back(e.job);
    }
  }

  if (u < k) {
    // ---- Lemma 2 stop: certificate packs two J_{2,u} per machine. ----
    SLACKSCHED_ENSURES(final_p2_jobs.size() == static_cast<std::size_t>(2 * m));
    for (int i = 0; i < m; ++i) {
      const Job& a = final_p2_jobs[static_cast<std::size_t>(2 * i)];
      const Job& b = final_p2_jobs[static_cast<std::size_t>(2 * i + 1)];
      result.optimal_schedule.commit(a, i, t);
      result.optimal_schedule.commit(b, i, t + a.proc);
    }
    result.optimal_schedule.commit(submitted.front(), 0, t + 2.0 * p2u);
    return finish(GameStop::kPhase2Early, u);
  }

  // ---- Phase 3 (Lemma 3/4). ----
  int final_h = 0;
  std::vector<Job> final_p3_jobs;
  for (int h = u; h <= m && final_h == 0; ++h) {
    const double f_h = solution_.f_at(h);
    const Duration p3 = (f_h - 1.0) * p2u;
    const TimePoint d3 = t + p2u + p3;
    bool accepted_one = false;
    for (int trial = 0; trial < m; ++trial) {
      const Decision decision = submit(t, p3, d3, 3, h);
      if (decision.accepted) {
        accepted_one = true;
        break;
      }
    }
    if (!accepted_one) {
      final_h = h;
      for (const GameEvent& e : result.trace) {
        if (e.phase == 3 && e.subphase == h && !e.decision.accepted) {
          final_p3_jobs.push_back(e.job);
        }
      }
    }
  }
  // Lemma 3: phase-3 acceptances occupy fresh machines, so some subphase at
  // or before m is fully rejected.
  SLACKSCHED_ENSURES(final_h >= u);
  SLACKSCHED_ENSURES(final_p3_jobs.size() == static_cast<std::size_t>(m));

  // Certificate (Lemma 4): per machine one J_{2,u} then one J_{3,final_h}
  // back to back, J_1 appended after the common deadline.
  SLACKSCHED_ENSURES(final_p2_jobs.size() >= static_cast<std::size_t>(m));
  TimePoint latest = t;
  for (int i = 0; i < m; ++i) {
    const Job& a = final_p2_jobs[static_cast<std::size_t>(i)];
    const Job& b = final_p3_jobs[static_cast<std::size_t>(i)];
    result.optimal_schedule.commit(a, i, t);
    result.optimal_schedule.commit(b, i, t + a.proc);
    latest = std::max(latest, t + a.proc + b.proc);
  }
  result.optimal_schedule.commit(submitted.front(), 0, latest);
  return finish(GameStop::kPhase3, final_h);
}

std::string decision_tree_description(double eps, int m) {
  const RatioSolution sol = RatioFunction::solve(eps, m);
  std::ostringstream os;
  os << "Adversary decision tree for eps=" << eps << ", m=" << m
     << " (phase index k=" << sol.k << ", c(eps,m)=" << sol.c << ")\n";
  os << "f parameters:";
  for (int q = sol.k; q <= m; ++q) os << " f_" << q << "=" << sol.f_at(q);
  os << "\n";
  os << "phase 1: submit J1(0, 1, huge)\n";
  os << "|- reject J1 -> STOP, ratio unbounded\n";
  os << "'- accept J1 (starts at t); all later jobs arrive at t\n";

  auto phase3 = [&](int u, const std::string& indent) {
    double denom = static_cast<double>(u);
    for (int h = u; h <= m; ++h) {
      const double f_h = sol.f_at(h);
      const double p3 = f_h - 1.0;
      os << indent << "phase 3 subphase " << h << ": up to " << m
         << " jobs J3(t, " << p3 << ", t+" << (1.0 + p3) << ")\n";
      const double ratio = (1.0 + static_cast<double>(m) * f_h) / denom;
      os << indent << "|- all rejected -> STOP, ratio (1 + m*f_" << h
         << ")/" << denom << " = " << ratio << "\n";
      if (h < m) {
        os << indent << "'- one accepted -> next subphase\n";
      } else {
        os << indent << "'- (acceptance impossible: all machines busy)\n";
      }
      denom += f_h - 1.0;
    }
  };

  for (int u = 1; u <= m; ++u) {
    const std::string indent(static_cast<std::size_t>(2 * u), ' ');
    os << indent << "phase 2 subphase " << u << ": up to " << 2 * m
       << " unit jobs J2(t, ~1, t+~2)\n";
    if (u < sol.k) {
      os << indent << "|- all rejected -> STOP, ratio (2m+1)/" << u << " = "
         << (2.0 * m + 1.0) / u << "\n";
    } else {
      os << indent << "|- all rejected -> enter phase 3 with u=" << u << "\n";
      phase3(u, indent + "|    ");
    }
    if (u < m) {
      os << indent << "'- one accepted -> next subphase\n";
    } else {
      os << indent << "'- (acceptance impossible: all machines busy)\n";
    }
  }
  return os.str();
}

}  // namespace slacksched
