"""chaintop benchmark: certified batch workloads, end to end and per layer.

    python3 perfbench/run.py --workload cobar-elim --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; chaintop is imported from src/.
Every process that computes runs as a child of this one, one at a time,
with an address-space cap and a timeout, so a blow-up is recorded as a
failed job instead of ending the benchmark.

--trace 0 measures the end-to-end metrics over --seconds, split into
SEGMENTS segments, so that slow spells of a shared host fall on a few
samples of each metric rather than on all of them. Each segment spawns
SETUP_PER_SEGMENT set-up processes and then one process that runs passes
over the job list, cycling through the seed's labelings of the models.
Times are taken relative to worker.reference_work(), timed in the same
process around each job and right after each set-up, and given in seconds
of a host on which the reference takes REF_NOMINAL_S; the host's drifting
speed cancels out, the program's own cost does not.
  setup_s      the median, over every set-up process and pass process, of
               the time from spawning the interpreter to the end of imports
               and of generating and loading the models;
  wall_s       the time of one pass: for each job, its median repeat on
               each labeling, averaged over the labelings, summed over jobs;
  peak_rss_mb  the largest peak resident memory of the pass processes.
The raw times, not relative to the reference, are printed as diagnostics.
--trace 1 runs one untraced pass and one traced pass in two processes and
reports the per-layer metrics of tracer.py plus trace.overhead_s.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it are diagnostics, including machine.calib_s (a fixed
pure-Python loop, never used to rescale a metric) and the failed ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import derive_metrics  # noqa: E402

ROOT = HERE.parent
WORK = HERE / "_work"
SEGMENTS = 10
SETUP_PER_SEGMENT = 3
MEM_CAP_MB = 2048
JOB_TIMEOUT_S = 60
RUN_BUDGET_S = 170  # every child is killed by then, inside the 180 s limit
CALIB_LOOPS = 3_000_000
# reference_work()'s usual time on the 2-vCPU Xeon VM (2.1 GHz) the bounds
# were set on; it only converts relative times back into seconds
REF_NOMINAL_S = 0.012


def calibrate() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIB_LOOPS):
        x += i
    return time.perf_counter() - t0


class Child:
    """Outcome of one worker process."""

    def __init__(self, events, exit_code, timed_out, spawned_ns, ended_ns, log):
        self.events = events
        self.exit_code = exit_code
        self.timed_out = timed_out
        self.spawned_ns = spawned_ns
        self.ended_ns = ended_ns
        self.log = log

    def of(self, kind: str) -> list:
        return [e for e in self.events if e["event"] == kind]

    @property
    def setup_s(self):
        ready = self.of("ready")
        return (ready[0]["t_ns"] - self.spawned_ns) / 1e9 if ready else None

    @property
    def setup_rel(self):
        """setup_s relative to the reference timed right after it."""
        ref = self.of("ref")
        return self.setup_s / ref[0]["seconds"] if ref else None

    def death(self) -> str | None:
        """Why the process ended early, or None if it finished."""
        if self.of("done") or (self.exit_code == 0 and self.of("ready")):
            return None
        if self.timed_out:
            return "timeout: worker killed"
        tail = self.log.strip().splitlines()[-1:] or [""]
        return f"worker exit {self.exit_code}: {tail[0][:200]}"


def spawn(spec: dict, deadline: float) -> Child:
    run_dir = Path(spec["dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, events=str(run_dir / "events.jsonl"))
    log_path = run_dir / "worker.log"
    env = dict(os.environ, PYTHONHASHSEED=str(spec["hash_seed"] % 2**32))
    # the untimed warm-up writes bytecode that the timed set-ups then read
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(log_path, "w", encoding="utf-8") as log:
        spawned_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            # chaintop needs only the standard library; without the site
            # module, the host's .pth hooks do not enter the set-up time
            [sys.executable, "-S", str(HERE / "worker.py"), json.dumps(spec)],
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            env=env,
            cwd=str(ROOT),
        )
        timed_out = False
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out = True
            proc.kill()
            proc.wait()
        ended_ns = time.monotonic_ns()
    events = []
    if Path(spec["events"]).exists():
        with open(spec["events"], encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh if line.strip()]
    return Child(events, proc.returncode, timed_out, spawned_ns, ended_ns, log_path.read_text())


def job_costs(job_events) -> dict:
    """Each job's cost in reference units: its median repeat per labeling,
    averaged over labelings.

    Each repeat is divided by the reference timed around it, so a spell in
    which other tenants slow the host slows both and cancels; the median
    drops repeats that a spell covered only in part. The average keeps the
    cost of every pivot order the seed's labelings give, good or bad.
    """
    repeats = {}
    for event in job_events:
        key = (event["id"], event["labeling"])
        repeats.setdefault(key, []).append(event["seconds"] / event["ref_s"])
    per_job = {}
    for (job, _), rel in repeats.items():
        per_job.setdefault(job, []).append(statistics.median(rel))
    return {job: statistics.fmean(costs) for job, costs in per_job.items()}


class Tally:
    """Jobs attempted and failed over every process of a run."""

    def __init__(self, workload: str):
        self.jobs = len(workloads.WORKLOADS[workload])
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, child: Child, planned_passes: int | None) -> None:
        done = child.of("job")
        self.attempted += len(done)
        for event in done:
            if not event["ok"]:
                self.failed += 1
                self.reasons.append(f"{event['id']}: {event['reason']}")
        death = child.death()
        if death:
            # the job that was running, and the rest of a fixed pass plan, are lost
            lost = max(1, (planned_passes or 1) * self.jobs - len(done))
            self.attempted += lost
            self.failed += lost
            self.reasons.append(f"{lost} job(s) not finished: {death}")


def end_to_end(base: dict, work: Path, deadline: float, tally: Tally):
    def set_up(name: str) -> Child:
        child = spawn(dict(base, mode="setup", dir=str(work / name)), deadline)
        if child.setup_rel is None:
            raise RuntimeError(f"set-up failed: {child.death()}")
        return child

    set_up("warm")  # writes the bytecode; not timed
    finish = time.monotonic() + base["seconds"]
    samples, jobs, peaks, walls = [], [], [], []
    died = None
    for seg in range(SEGMENTS):
        t0 = time.monotonic()
        samples += [set_up(f"setup-{seg}-{k}") for k in range(SETUP_PER_SEGMENT)]
        # leave time for the set-ups of the segments still to come
        later = (SEGMENTS - seg - 1) * (time.monotonic() - t0)
        share = max(0.0, finish - time.monotonic() - later) / (SEGMENTS - seg)
        # the order of set and dict iteration, and with it the pivot order,
        # depends on the hash seed: on h0-localized one labeling's cost
        # ranged over 1.2x across hash seeds, so each segment takes another
        spec = dict(base, dir=str(work / f"run-{seg}"), seconds=share, first_pass=len(walls))
        child = spawn(dict(spec, hash_seed=base["seed"] * SEGMENTS + seg), deadline)
        tally.add(child, None)
        if child.setup_rel is not None:
            samples.append(child)
        jobs += child.of("job")
        walls += [e["wall_s"] for e in child.of("pass")]
        if child.death():
            died = child
            break
        peaks.append(child.of("done")[0]["maxrss_kb"])
    costs = job_costs(jobs)
    if died is None:
        wall = sum(costs.values()) * REF_NOMINAL_S
        peak_kb = max(peaks)
    else:  # the time until the worker died, and the largest child so far
        ready = died.of("ready")
        wall = (died.ended_ns - (ready[0]["t_ns"] if ready else died.spawned_ns)) / 1e9
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_rel = statistics.median(c.setup_rel for c in samples)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_rel * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    walls.sort()
    refs = [e["ref_s"] for e in jobs]
    raw_setup = [c.setup_s for c in samples]
    note = f"passes={len(walls)}"
    if walls:
        note += f" raw pass_s median={statistics.median(walls):.3f} max={walls[-1]:.3f}"
    if refs:
        note += f" ref_s median={statistics.median(refs):.5f} min={min(refs):.5f}"
    note += (
        f" setup_samples={len(samples)} raw median={statistics.median(raw_setup):.4f}"
        f" min={min(raw_setup):.4f}"
    )
    note += f" job_s={ {k: round(v * REF_NOMINAL_S, 3) for k, v in sorted(costs.items())} }"
    return metrics, note


def per_layer(base: dict, work: Path, deadline: float, tally: Tally):
    plain = spawn(dict(base, dir=str(work / "plain"), max_passes=1), deadline)
    tally.add(plain, 1)
    trace_out = work / "traced" / "spans.json"
    traced = spawn(
        dict(base, dir=str(work / "traced"), max_passes=1, trace=True, trace_out=str(trace_out)),
        deadline,
    )
    tally.add(traced, 1)
    if not (trace_out.exists() and plain.of("pass") and traced.of("pass")):
        raise RuntimeError(f"no pass to compare: {plain.death() or traced.death()}")
    with open(trace_out, encoding="utf-8") as fh:
        dumped = json.load(fh)
    metrics = derive_metrics(dumped)
    walls = [c.of("pass")[0]["wall_s"] for c in (plain, traced)]
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    note = f"untraced_s={walls[0]:.3f} traced_s={walls[1]:.3f} spans={len(dumped['start'])}"
    if dumped["absent"]:
        note += f" absent={dumped['absent']}"
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chaintop" / "__init__.py").is_file():
        print(f"error: no chaintop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    calib = calibrate()
    base = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": args.seed,
        "mem_cap_mb": MEM_CAP_MB,
        "job_timeout_s": JOB_TIMEOUT_S,
        "trace": False,
        "mode": "run",
        "seconds": args.seconds,
        "max_passes": 10**6,
    }
    tally = Tally(args.workload)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, note = measure(base, work, started + RUN_BUDGET_S, tally)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics["machine.calib_s"] = (calib, "s")
    print(f"perfbench: workload={args.workload} seed={args.seed} {note}")
    print(f"perfbench: machine.calib_s={calib:.4f} ({CALIB_LOOPS} loop iterations)")
    print(f"perfbench: failed_ratio={tally.failed}/{tally.attempted}")
    for reason in tally.reasons[:20]:
        print(f"perfbench: FAILED {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
