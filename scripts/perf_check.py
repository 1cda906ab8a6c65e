#!/usr/bin/env python3
"""Perf-regression gate over the committed/freshly-generated bench JSONs.

Validates the five machine-readable bench artifacts:

  BENCH_threshold.json  (bench/micro_throughput --threshold_jobs=N)
      - every row's decision stream matched the seed implementation
      - the new hot path performed zero steady-state heap allocations
      - speedup at every m >= --large-m reaches --min-speedup
  BENCH_service.json    (bench/service_throughput [jobs])
      - every shard configuration finished clean (both sweeps)
      - shard scaling: when the recording machine had >= 4 hardware
        threads, the best multi-shard closed-loop throughput must beat
        the 1-shard configuration (speedup > 1.0). On smaller machines
        the assertion is SKIPPED with a visible warning naming the core
        count — a 1-core container cannot demonstrate scaling, and a
        silent pass there would be indistinguishable from a real one.
      - every open-loop row reports ordered, positive admit-latency
        percentiles (p50 <= p99 <= p999) and one per-shard rate per shard

  BENCH_recovery.json   (bench/recovery_replay [records])
      - every replay pass was clean (all records recovered + re-validated)
      - the torn-tail log truncated on the first pass, replayed clean on
        the second
      - fsync ordering holds: never >= batch >= every-commit append rate
  BENCH_net.json        (bench/net_throughput [jobs])
      - every loops x connections x batch configuration finished clean:
        every submitted job answered by exactly one rendered decision (no
        silent drops) and the DRAINED counters matched the replies the
        clients observed on the wire
      - loop scaling: when the recording machine had >= 4 hardware
        threads, the best multi-loop throughput must beat the 1-loop
        configuration (speedup > 1.0) — same warn-skip rule on smaller
        machines as the shard-scaling gate (a 1-core container cannot
        demonstrate scaling)
      - the open-loop "wake" row (nominal rate, 1 loop, 2 connections) is
        present and clean, with every submission answered; its decide
        p50/p99 and wake-ups per decision are reported
  BENCH_matrix.json     (bench/model_matrix [jobs-per-row])
      - every (commit model x eps x m x speed profile x workload) row
        finished clean (every decision legal under that model's
        irrevocability contract) and valid (offline schedule validator)
      - the grid covers >= 3 commit models, >= 2 speed profiles,
        >= 3 workloads, >= 2 eps values and >= 2 machine counts
      - the uniform commit-on-arrival Threshold rows stay within noise
        of the committed BENCH_threshold.json trajectory at matching m
        (ratio floor --matrix-min-ratio of the micro-bench rate)
  BENCH_repl.json       (bench/repl_failover [jobs])
      - all four replication modes present (baseline + async +
        ack-on-batch + ack-on-commit) and clean: the drain validated and
        the follower's logs held exactly the leader's accepted records
      - durability ordering holds: ack-on-commit (one follower round trip
        per accepted job) must not outrun async — a faster "synchronous"
        mode means the ack path is not actually waiting
      - the failover drill ran >= 5 iterations with positive, ordered
        detect/serve percentiles (p50 <= p99, detect <= serve at p50)
  BENCH_elastic.json    (bench/elastic_pressure [overhead-jobs])
      - class-aware shedding under overload is strictly ordered: each
        criticality class sheds a strictly smaller fraction than the
        class below it, and the top (critical) class is never
        policy-shed
      - the elastic pool's shrink drains complete: every retire-begin
        control record in the WAL is matched by a retire-done, the pool
        returns to min_machines, and replaying the log against a fresh
        scheduler reproduces the exact final machine count
      - steady-state overhead of the capacity controller is at most
        --max-elastic-overhead percent of the fixed-pool rate, with zero
        resizes during the measurement (the load sits inside the
        hysteresis band by construction)
  BENCH_obs.json        (bench/obs_overhead [jobs])
      - every mode finished clean
      - decision tracing costs at most --max-overhead of the baseline
        throughput, and so does tracing + the background publisher
        (i.e. the publisher never blocks ingest)
      - the published textfile reported exactly the final gateway
        counters, and the drained trace accounted for every decision and
        survived a CSV round trip

Every artifact must carry the uniform provenance fields emitted by
bench/bench_env.hpp — producers, hardware_concurrency, pinned, loop_mode
— so the checks above (and future ones) can tell which numbers the
recording machine was physically able to produce.

Only the Python standard library is used. Exit status 0 iff every check
passes; each failure is printed on its own line, and a file's "ok:"
summary line is printed only when that file had no failure.

Usage:
  scripts/perf_check.py [--threshold-json PATH] [--service-json PATH]
                        [--recovery-json PATH] [--obs-json PATH]
                        [--net-json PATH] [--matrix-json PATH]
                        [--repl-json PATH] [--elastic-json PATH]
                        [--min-speedup X] [--large-m M] [--max-overhead F]
                        [--matrix-min-ratio F] [--max-elastic-overhead P]

A missing file is an error (reported as "<path>: not found — run
bench/<name> to generate it") unless its path is passed as the empty
string (e.g. --service-json= to gate only the other benches).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def fail(errors: list[str], message: str) -> None:
    errors.append(message)
    print(f"FAIL: {message}")


PROVENANCE_FIELDS = ("producers", "hardware_concurrency", "pinned",
                     "loop_mode")


def check_provenance(path: Path, data: dict, errors: list[str]) -> None:
    """Every artifact records the environment that produced it."""
    for key in PROVENANCE_FIELDS:
        if key not in data:
            fail(errors, f"{path}: missing provenance field {key!r} "
                         "(emit it via bench/bench_env.hpp)")
    producers = data.get("producers", 0)
    if isinstance(producers, int) and producers < 1:
        fail(errors, f"{path}: producers={producers} (must be >= 1)")
    cores = data.get("hardware_concurrency", 0)
    if isinstance(cores, int) and cores < 1:
        fail(errors, f"{path}: hardware_concurrency={cores} (must be >= 1)")


def load(path: Path, bench_id: str, errors: list[str]) -> dict | None:
    """The artifact's JSON, or None (after a FAIL) when it is another
    bench's; its provenance is checked here, once for every artifact."""
    data = json.loads(path.read_text())
    if data.get("bench") != bench_id:
        fail(errors, f"{path}: unexpected bench id {data.get('bench')!r}")
        return None
    check_provenance(path, data, errors)
    return data


def require_clean(errors: list[str], row: dict, label: str,
                  message: str = "did not finish clean") -> None:
    """The per-row clean flag every bench records."""
    if not row.get("clean", False):
        fail(errors, f"{label} {message}")


def scaling_gate(path: Path, data: dict, rates: dict, unit: str,
                 subject: str, errors: list[str]) -> None:
    """The best multi-`unit` rate must beat the 1-`unit` rate.

    A multi-core recording machine on which no multi-unit configuration
    beats one unit means the fan-out costs more than it buys: a hard
    failure. With fewer than 4 hardware threads the units share a core
    and physically cannot demonstrate scaling, so the assertion is
    skipped *loudly* rather than passed silently."""
    cores = data.get("hardware_concurrency", 0)
    base = rates.get(1, 0.0)
    multi = {n: r for n, r in rates.items() if isinstance(n, int) and n > 1}
    if base <= 0.0 or not multi:
        return
    best, best_rate = max(multi.items(), key=lambda kv: kv[1])
    speedup = best_rate / base
    if isinstance(cores, int) and cores >= 4:
        if speedup <= 1.0:
            fail(errors, f"{path}: best multi-{unit} throughput "
                         f"({best} {unit}s) is {speedup:.2f}x the "
                         f"1-{unit} rate on {cores} hardware threads — "
                         f"{subject} must not lose to a single {unit} on "
                         "a multi-core host")
    else:
        print(f"WARN: {path}: {unit}-scaling assertion SKIPPED — "
              f"recorded on {cores} hardware thread(s), fewer than the "
              f"4 needed to demonstrate scaling across "
              f"{max(multi)} {unit}s (best observed: {speedup:.2f}x at "
              f"{best} {unit}s)")


def check_threshold(path: Path, data: dict, min_speedup: float,
                    large_m: int, errors: list[str]) -> str | None:
    runs = data.get("runs", [])
    if not runs:
        fail(errors, f"{path}: no runs recorded")
        return None
    machines = sorted(run.get("machines", 0) for run in runs)
    if machines[-1] < large_m:
        fail(errors, f"{path}: largest m is {machines[-1]}, "
                     f"need a run at m >= {large_m}")
    for run in runs:
        m = run.get("machines")
        prefix = f"{path}: m={m}"
        for key in ("old_jobs_per_sec", "new_jobs_per_sec", "speedup",
                    "decisions_identical", "new_heap_allocs_steady_state",
                    "new_allocs_per_arrival"):
            if key not in run:
                fail(errors, f"{prefix}: missing field {key!r}")
        if not run.get("decisions_identical", False):
            fail(errors, f"{prefix}: optimized path diverged from the seed "
                         "decision stream")
        if run.get("new_heap_allocs_steady_state", 1) != 0:
            fail(errors, f"{prefix}: "
                         f"{run.get('new_heap_allocs_steady_state')} heap "
                         "allocations on the steady-state arrival path "
                         "(must be 0)")
        if run.get("new_allocs_per_arrival", 1.0) != 0:
            fail(errors, f"{prefix}: new_allocs_per_arrival is "
                         f"{run.get('new_allocs_per_arrival')} (must be 0)")
        if m is not None and m >= large_m:
            speedup = run.get("speedup", 0.0)
            if speedup < min_speedup:
                fail(errors, f"{prefix}: speedup {speedup:.2f}x below the "
                             f"{min_speedup:.2f}x floor")
    ok_rows = sum(1 for run in runs if run.get("decisions_identical"))
    return (f"{len(runs)} configurations, {ok_rows} with identical "
            "decision streams")


def check_service(path: Path, data: dict, errors: list[str]) -> str | None:
    runs = data.get("runs", [])
    if not runs:
        fail(errors, f"{path}: no runs recorded")
        return None
    for run in runs:
        shards = run.get("shards")
        require_clean(errors, run, f"{path}: shards={shards}")
        if run.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: shards={shards} reports non-positive "
                         "throughput")
        # A queue can never hold more than its capacity: a larger peak is
        # an impossible value, not a busy run.
        peak = run.get("peak_queue_depth")
        capacity = run.get("queue_capacity")
        if peak is None or capacity is None:
            fail(errors, f"{path}: shards={shards} lacks peak_queue_depth "
                         "or queue_capacity")
        elif peak > capacity:
            fail(errors, f"{path}: shards={shards} peak_queue_depth {peak} "
                         f"exceeds queue_capacity {capacity}")
    scaling_gate(path, data,
                 {run.get("shards"): run.get("jobs_per_sec", 0.0)
                  for run in runs},
                 "shard", "sharding", errors)

    # Open-loop sweep: latency percentiles must be present, positive and
    # ordered, with one per-shard rate per shard.
    open_runs = data.get("open_loop", [])
    if not open_runs:
        fail(errors, f"{path}: no open-loop runs recorded")
    for run in open_runs:
        shards = run.get("shards")
        prefix = f"{path}: open-loop shards={shards}"
        require_clean(errors, run, prefix)
        for key in ("admit_latency_p50", "admit_latency_p99",
                    "admit_latency_p999"):
            if key not in run:
                fail(errors, f"{prefix}: missing field {key!r}")
        p50 = run.get("admit_latency_p50", 0.0)
        p99 = run.get("admit_latency_p99", 0.0)
        p999 = run.get("admit_latency_p999", 0.0)
        if not (0.0 < p50 <= p99 <= p999):
            fail(errors, f"{prefix}: admit-latency percentiles not "
                         f"positive and ordered (p50={p50} p99={p99} "
                         f"p999={p999})")
        per_shard = run.get("per_shard_decided_per_sec", [])
        if not isinstance(shards, int) or len(per_shard) != shards:
            fail(errors, f"{prefix}: expected {shards} per-shard rates, "
                         f"got {len(per_shard)}")
        if run.get("decided_per_sec", 0.0) <= 0.0:
            fail(errors, f"{prefix}: non-positive decision throughput")
    return (f"{len(runs)} closed-loop + {len(open_runs)} open-loop shard "
            "configurations, all clean")


def check_recovery(path: Path, data: dict, errors: list[str]) -> str | None:
    appends = data.get("append", [])
    replays = data.get("replay", [])
    if not appends or not replays:
        fail(errors, f"{path}: missing append/replay runs")
        return None
    require_clean(errors, data, f"{path}:",
                  "the bench itself reported an unclean pass")

    rate_by_policy: dict[str, float] = {}
    for run in appends:
        policy = run.get("policy")
        rate = run.get("records_per_sec", 0.0)
        if rate <= 0.0:
            fail(errors, f"{path}: append policy={policy} reports "
                         "non-positive throughput")
        rate_by_policy[str(policy)] = rate
    for stronger, weaker in (("batch", "never"), ("every-commit", "batch")):
        if stronger in rate_by_policy and weaker in rate_by_policy:
            # Durability is never free: a stronger policy being *faster*
            # means the fsync path is not actually syncing.
            if rate_by_policy[stronger] > rate_by_policy[weaker] * 1.5:
                fail(errors, f"{path}: fsync={stronger} outran "
                             f"fsync={weaker} — the sync path looks inert")

    for run in replays:
        records = run.get("records")
        require_clean(errors, run, f"{path}: replay of {records} records",
                      "was not clean (lost or invalid records)")
        if run.get("records_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: replay of {records} records reports "
                         "non-positive rate")

    torn = data.get("torn_tail", {})
    if not torn.get("truncated_on_first_pass", False):
        fail(errors, f"{path}: torn tail was not truncated on first "
                     "recovery")
    if not torn.get("clean_on_second_pass", False):
        fail(errors, f"{path}: log not clean after torn-tail truncation")
    return (f"{len(appends)} fsync policies, {len(replays)} replay sizes, "
            "torn tail handled")


def check_net(path: Path, data: dict, errors: list[str]) -> str | None:
    runs = data.get("runs", [])
    if not runs:
        fail(errors, f"{path}: no runs recorded")
        return None
    for run in runs:
        config = (f"loops={run.get('loops', 1)} "
                  f"connections={run.get('connections')} "
                  f"batch={run.get('batch')}")
        require_clean(errors, run, f"{path}: {config}")
        if run.get("answered") != run.get("jobs"):
            fail(errors, f"{path}: {config} answered "
                         f"{run.get('answered')} of {run.get('jobs')} "
                         "submissions — the wire dropped replies")
        if run.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: {config} reports non-positive "
                         "throughput")

    # Artifacts from before the multi-loop front end have no "loops"
    # field; those rows are the single-loop server.
    rate_by_loops: dict[int, float] = {}
    for run in runs:
        loops = run.get("loops", 1)
        if isinstance(loops, int):
            rate_by_loops[loops] = max(rate_by_loops.get(loops, 0.0),
                                       run.get("jobs_per_sec", 0.0))
    scaling_gate(path, data, rate_by_loops, "loop",
                 "the multi-loop front end", errors)

    wake = data.get("wake")
    if not isinstance(wake, dict):
        fail(errors, f"{path}: no open-loop wake row recorded")
        return None
    require_clean(errors, wake, f"{path}: wake row")
    if wake.get("answered") != wake.get("jobs"):
        fail(errors, f"{path}: wake row answered {wake.get('answered')} of "
                     f"{wake.get('jobs')} submissions")
    return (f"{len(runs)} loop/connection/batch configurations, all clean, "
            "every submission answered; wake row at "
            f"{wake.get('rate', 0):.0f} jobs/s: decide p50 "
            f"{wake.get('decide_p50_us', 0):.1f} us, p99 "
            f"{wake.get('decide_p99_us', 0):.1f} us, "
            f"{wake.get('wakeups_per_decision', 0):.3f} wake-ups per "
            "decision")


def check_matrix(path: Path, data: dict, threshold_json: str,
                 min_ratio: float, errors: list[str]) -> str | None:
    rows = data.get("rows", [])
    if not rows:
        fail(errors, f"{path}: no rows recorded")
        return None

    for row in rows:
        label = (f"{row.get('model')} eps={row.get('eps')} "
                 f"m={row.get('machines')} "
                 f"speeds={row.get('speed_profile')} "
                 f"workload={row.get('workload')}")
        require_clean(errors, row, f"{path}: {label}:",
                      "a decision violated the model's commitment contract "
                      "(or a job went undecided)")
        if not row.get("valid", False):
            fail(errors, f"{path}: {label}: committed schedule failed the "
                         "offline validator")
        if row.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: {label}: non-positive throughput")

    coverage = (("commit_model", 3), ("speed_profile", 2), ("workload", 3),
                ("eps", 2), ("machines", 2))
    for key, minimum in coverage:
        distinct = {row.get(key) for row in rows}
        if len(distinct) < minimum:
            fail(errors, f"{path}: only {len(distinct)} distinct {key} "
                         f"values {sorted(map(str, distinct))}, "
                         f"need >= {minimum}")

    # The uniform commit-on-arrival Threshold rows replay the same
    # algorithm the micro bench measures; their per-arrival rate must stay
    # within noise of the committed trajectory at the same machine count.
    # The matrix rate runs through the full engine (validation + schedule
    # commit), so only a generous floor is meaningful.
    if threshold_json:
        tpath = Path(threshold_json)
        if tpath.is_file():
            tdata = json.loads(tpath.read_text())
            micro = {run.get("machines"): run.get("new_jobs_per_sec", 0.0)
                     for run in tdata.get("runs", [])}
            checked = 0
            for row in rows:
                if (row.get("model") != "on-arrival/threshold"
                        or row.get("speed_profile") != "uniform"
                        or row.get("eps") != tdata.get("eps")):
                    continue
                reference = micro.get(row.get("machines"), 0.0)
                if reference <= 0.0:
                    continue
                checked += 1
                ratio = row.get("jobs_per_sec", 0.0) / reference
                if ratio < min_ratio:
                    fail(errors,
                         f"{path}: uniform Threshold m={row.get('machines')} "
                         f"workload={row.get('workload')} runs at "
                         f"{ratio:.2f}x the committed micro-bench rate "
                         f"(floor {min_ratio:.2f}x)")
            if checked == 0:
                fail(errors, f"{path}: no uniform Threshold row matched a "
                             f"machine count in {tpath} — the regression "
                             "anchor is gone")

    models = len({row.get("commit_model") for row in rows})
    profiles = len({row.get("speed_profile") for row in rows})
    workloads = len({row.get("workload") for row in rows})
    return (f"{len(rows)} rows over {models} commit models x {profiles} "
            f"speed profiles x {workloads} workloads, all clean and valid")


def check_modes(path: Path, runs: dict, modes: tuple[str, ...],
                errors: list[str], each=None) -> None:
    """Every listed mode is present, clean and moving; `each(mode, run)`
    adds a bench's own per-mode checks."""
    for mode in modes:
        run = runs.get(mode)
        if run is None:
            fail(errors, f"{path}: missing mode {mode!r}")
            continue
        require_clean(errors, run, f"{path}: mode={mode}")
        if run.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: mode={mode} reports non-positive "
                         "throughput")
        if each is not None:
            each(mode, run)


def check_repl(path: Path, data: dict, errors: list[str]) -> str | None:
    def drained(mode: str, run: dict) -> None:
        if mode == "baseline":
            return
        leader = run.get("leader_records", 0)
        follower = run.get("follower_records", -1)
        if leader != follower:
            fail(errors, f"{path}: mode={mode} follower holds "
                         f"{follower} of {leader} leader records — an "
                         "orderly close must drain in every mode")

    runs = {run.get("mode"): run for run in data.get("runs", [])}
    check_modes(path, runs,
                ("baseline", "async", "ack-on-batch", "ack-on-commit"),
                errors, drained)

    # Durability is never free: the per-commit round-trip mode being
    # faster than fire-and-forget means the ack wait is inert. (1.5x
    # headroom absorbs run-to-run noise.)
    sync = runs.get("ack-on-commit", {}).get("jobs_per_sec", 0.0)
    fire = runs.get("async", {}).get("jobs_per_sec", 0.0)
    if sync > 0.0 and fire > 0.0 and sync > fire * 1.5:
        fail(errors, f"{path}: ack-on-commit outran async "
                     f"({sync:.0f} vs {fire:.0f} jobs/sec) — the "
                     "per-commit ack path looks inert")

    failover = data.get("failover", {})
    iterations = failover.get("iterations", 0)
    if iterations < 5:
        fail(errors, f"{path}: failover drill ran {iterations} iterations, "
                     "need >= 5 for stable percentiles")
    d50 = failover.get("detect_ms_p50", 0.0)
    d99 = failover.get("detect_ms_p99", 0.0)
    s50 = failover.get("serve_ms_p50", 0.0)
    s99 = failover.get("serve_ms_p99", 0.0)
    if not (0.0 < d50 <= d99):
        fail(errors, f"{path}: detect percentiles not positive and ordered "
                     f"(p50={d50} p99={d99})")
    if not (0.0 < s50 <= s99):
        fail(errors, f"{path}: serve percentiles not positive and ordered "
                     f"(p50={s50} p99={s99})")
    if 0.0 < s50 < d50:
        fail(errors, f"{path}: serve p50 ({s50}ms) beat detect p50 "
                     f"({d50}ms) — serving cannot precede detection")
    return (f"4 replication modes clean, failover over {iterations} drills "
            f"detect p50={d50:.1f}ms serve p50={s50:.1f}ms")


def check_obs(path: Path, data: dict, max_overhead: float,
              errors: list[str]) -> str | None:
    runs = {run.get("mode"): run for run in data.get("runs", [])}
    check_modes(path, runs, ("off", "tracing", "tracing+publisher"), errors)
    for key, label in (("tracing_overhead", "decision tracing"),
                       ("publisher_overhead", "tracing + publisher")):
        overhead = data.get(key)
        if overhead is None:
            fail(errors, f"{path}: missing field {key!r}")
        elif overhead > max_overhead:
            fail(errors, f"{path}: {label} costs {overhead:.1%} of baseline "
                         f"throughput (ceiling {max_overhead:.1%})")
    for key, message in (
            ("trace_accounted",
             "drained + dropped trace events != rendered decisions"),
            ("trace_csv_round_trip",
             "the drained trace did not survive a CSV round trip"),
            ("textfile_consistent",
             "the published textfile disagrees with the final gateway "
             "counters")):
        if not data.get(key, False):
            fail(errors, f"{path}: {message}")
    return (f"tracing {data.get('tracing_overhead', 0.0):+.1%}, with "
            f"publisher {data.get('publisher_overhead', 0.0):+.1%} "
            f"(ceiling {max_overhead:.1%}), textfile consistent")


def check_elastic(path: Path, data: dict, max_overhead_pct: float,
                  errors: list[str]) -> str | None:
    require_clean(errors, data, f"{path}:",
                  "the bench itself reported an unclean pass")

    shed = data.get("shed", {})
    fracs = shed.get("shed_frac", [])
    classes = shed.get("classes", [])
    if len(fracs) < 2 or len(classes) != len(fracs):
        fail(errors, f"{path}: shed section lacks per-class fractions")
    else:
        # Strict low-before-high: every class sheds a strictly smaller
        # fraction than the class below it, and the top class none at all.
        for low, high in zip(range(len(fracs) - 1), range(1, len(fracs))):
            if not fracs[low] > fracs[high]:
                fail(errors, f"{path}: class {classes[high]!r} shed "
                             f"{fracs[high]:.4f} of its offered jobs, not "
                             f"strictly below {classes[low]!r} at "
                             f"{fracs[low]:.4f} — shedding must be ordered "
                             "low-before-high")
        if fracs[-1] != 0.0:
            fail(errors, f"{path}: the top class {classes[-1]!r} was "
                         f"policy-shed ({fracs[-1]:.4f} of offered) — the "
                         "highest criticality must never shed")
        if not shed.get("ordering_ok", False):
            fail(errors, f"{path}: the bench's own ordering check failed "
                         "(per-class counters disagreed with outcomes)")

    drain = data.get("drain", {})
    begins = drain.get("retire_begins", 0)
    dones = drain.get("retire_dones", 0)
    if drain.get("grows", 0) < 1 or begins < 1:
        fail(errors, f"{path}: the two-phase load exercised "
                     f"{drain.get('grows', 0)} grows and {begins} "
                     "retire-begins — both directions must occur")
    if begins != dones:
        fail(errors, f"{path}: {begins} retire-begins but {dones} "
                     "retire-dones — a shrink drain did not complete")
    if not drain.get("drain_completed", False):
        fail(errors, f"{path}: the pool did not return to min_machines "
                     "after the idle phase")
    if not drain.get("replay_matches", False):
        fail(errors, f"{path}: WAL replay landed on "
                     f"{drain.get('replay_active')} active machines, the "
                     f"live run on {drain.get('final_active')} — the resize "
                     "sequence must replay deterministically")

    overhead = data.get("overhead", {})
    pct = overhead.get("overhead_pct")
    if pct is None:
        fail(errors, f"{path}: missing overhead_pct")
    elif pct > max_overhead_pct:
        fail(errors, f"{path}: elastic steady-state overhead {pct:.2f}% "
                     f"exceeds the {max_overhead_pct:.1f}% ceiling")
    if overhead.get("resizes", 1) != 0:
        fail(errors, f"{path}: {overhead.get('resizes')} resize(s) during "
                     "the overhead measurement — the mid-band load must "
                     "hold the pool still for the comparison to be fair")
    if pct is None:
        return None  # already failed above
    return (f"shed strictly ordered ({', '.join(f'{f:.3f}' for f in fracs)}"
            f"), {begins} drains completed, steady-state overhead "
            f"{pct:+.2f}% (ceiling {max_overhead_pct:.1f}%)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold-json", default="BENCH_threshold.json")
    parser.add_argument("--service-json", default="BENCH_service.json")
    parser.add_argument("--recovery-json", default="BENCH_recovery.json")
    parser.add_argument("--obs-json", default="BENCH_obs.json")
    parser.add_argument("--net-json", default="BENCH_net.json")
    parser.add_argument("--matrix-json", default="BENCH_matrix.json")
    parser.add_argument("--repl-json", default="BENCH_repl.json")
    parser.add_argument("--elastic-json", default="BENCH_elastic.json")
    parser.add_argument("--max-elastic-overhead", type=float, default=3.0,
                        help="percent of the fixed-pool rate the elastic "
                             "controller may cost at steady state "
                             "(default 3.0)")
    parser.add_argument("--matrix-min-ratio", type=float, default=0.15,
                        help="floor for uniform-Threshold matrix rate over "
                             "the committed micro-bench rate (default 0.15; "
                             "the matrix pays full-engine validation per "
                             "arrival)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="jobs/sec floor for new/old at large m "
                             "(default 3.0; use 1.0 on noisy smoke runners)")
    parser.add_argument("--large-m", type=int, default=256,
                        help="machine count from which the speedup floor "
                             "applies (default 256)")
    parser.add_argument("--max-overhead", type=float, default=0.03,
                        help="throughput fraction the observability layer "
                             "may cost (default 0.03; loosen on noisy "
                             "smoke runners)")
    args = parser.parse_args()

    errors: list[str] = []
    # (path, generator, bench id, check) per artifact.
    artifacts = (
        (args.threshold_json, "bench/micro_throughput", "threshold_scaling",
         lambda p, d: check_threshold(p, d, args.min_speedup, args.large_m,
                                      errors)),
        (args.service_json, "bench/service_throughput", "service_throughput",
         lambda p, d: check_service(p, d, errors)),
        (args.recovery_json, "bench/recovery_replay", "recovery_replay",
         lambda p, d: check_recovery(p, d, errors)),
        (args.obs_json, "bench/obs_overhead", "obs_overhead",
         lambda p, d: check_obs(p, d, args.max_overhead, errors)),
        (args.net_json, "bench/net_throughput", "net_throughput",
         lambda p, d: check_net(p, d, errors)),
        (args.matrix_json, "bench/model_matrix", "model_matrix",
         lambda p, d: check_matrix(p, d, args.threshold_json,
                                   args.matrix_min_ratio, errors)),
        (args.repl_json, "bench/repl_failover", "replication",
         lambda p, d: check_repl(p, d, errors)),
        (args.elastic_json, "bench/elastic_pressure", "elastic_pressure",
         lambda p, d: check_elastic(p, d, args.max_elastic_overhead,
                                    errors)),
    )
    for raw, generator, bench_id, checker in artifacts:
        if not raw:
            continue
        path = Path(raw)
        if not path.is_file():
            fail(errors, f"{path}: not found — run {generator} "
                         "to generate it")
            continue
        failed_before = len(errors)
        try:
            data = load(path, bench_id, errors)
            summary = None if data is None else checker(path, data)
        except (json.JSONDecodeError, OSError) as exc:
            fail(errors, f"{path}: {exc}")
            continue
        # The summary line speaks for the whole file: a file with any FAIL
        # line gets none.
        if summary is not None and len(errors) == failed_before:
            print(f"ok: {path}: {summary}")

    if errors:
        print(f"perf_check: {len(errors)} failure(s)")
        return 1
    print("perf_check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
