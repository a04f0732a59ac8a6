"""One benchmark process: set up a workload's inputs, then run its jobs.

Started by run.py with a JSON spec as its only argument. It caps its own
address space, imports chaintop from the checkout's src/, generates the
workload's models as seeded JSON files, loads them back, and reports
"ready". In run mode it then runs the jobs one at a time in passes until
the pass count or the time budget is used up, checking every answer against
the reference in workloads.py. Events go, one JSON object per line, to the
events file named in the spec, so a process that is killed still leaves the
jobs it finished on record.

Between jobs, and once after set-up, the worker times reference_work(), a
fixed pure-Python computation that does not use chaintop. run.py divides
each job's time by the reference times around it, so that the host's
speed, which drifts by up to 1.7x over tens of seconds on a shared VM,
cancels out of wall_s and setup_s.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Events:
    def __init__(self, path: str):
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, **event) -> None:
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


REF_PRIME = 32003
REF_ROWS = 48


def reference_work() -> float:
    """Seconds taken by a fixed computation shaped like chaintop's work.

    Row reduction of a pseudo-random REF_ROWS-square matrix over F_p, held
    as lists of ints, then counting sorted tuples in a dict: the list, int,
    tuple and dict operations that elimination and cube enumeration spend
    their time in. The inputs never change, so only the host's speed moves
    the result.
    """
    t0 = time.perf_counter()
    p, n, x = REF_PRIME, REF_ROWS, 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % p)
        rows.append(row)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        head = rows[c]
        inv = pow(head[c], p - 2, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], head)]
    seen = {}
    for a in range(60):
        for b in range(60):
            key = tuple(sorted((a % 7, b % 5, a * b % 11)))
            seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


def import_chaintop(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import chaintop.cli
    import chaintop.loopspace
    import chaintop.simplicial

    here = Path(chaintop.__file__).resolve()
    if src.resolve() not in here.parents:
        raise ImportError(f"chaintop imported from {here}, not from {src}")
    return chaintop


def build_model(chaintop, model: str):
    """The unlabeled model, built with chaintop's own constructors."""
    simplicial = chaintop.simplicial
    kind, *params = workloads.MODELS[model]["build"]
    if kind == "collapsed_simplex":
        n, k = params
        space = simplicial.standard_simplex(n)
        skeleton = [c for m in range(k + 1) for c in space.nondegenerate(m)]
        return simplicial.collapse_subcomplex(space, skeleton).target
    if kind == "sphere_wedge":
        spheres = [simplicial.sphere_model(d) for d in params]
        space = spheres[0]
        for other in spheres[1:]:
            space = simplicial.wedge_models(space, other)
        return space
    if kind == "rp2":
        return simplicial.simplicial_model("rp2")
    raise ValueError(f"unknown model recipe {kind!r}")


def set_up(chaintop, workload: str, seed: int, out_dir: Path) -> list:
    """Write every labeling of the workload's models as JSON and load it back.

    Returns one {model: path} map per labeling.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [{} for _ in range(workloads.LABELINGS)]
    for model in workloads.models_for(workload):
        plain = chaintop.simplicial.simplicial_to_json(build_model(chaintop, model))
        for labeling, found in enumerate(paths):
            doc = workloads.relabel(plain, model, seed, labeling)
            problem = workloads.check_model_doc(doc, model)
            if problem:
                raise ValueError(problem)
            path = out_dir / f"{model}-{labeling}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with open(path, encoding="utf-8") as fh:
                chaintop.simplicial.simplicial_from_json(json.load(fh))
            found[model] = str(path)
    return paths


def run_cli(chaintop, job: dict, paths: dict) -> str | None:
    argv = [a.replace("{model}", paths[job["model"]]) for a in job["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = chaintop.cli.main(argv + ["--format", "json"])
    try:
        payload = json.loads(out.getvalue())
    except json.JSONDecodeError:
        payload = None
    reason = workloads.check_cli(job, code, payload)
    if reason and err.getvalue().strip():
        reason += f" (stderr: {err.getvalue().strip()[:200]})"
    return reason


def run_certify(chaintop, job: dict, paths: dict) -> str | None:
    with open(paths[job["model"]], encoding="utf-8") as fh:
        space = chaintop.simplicial.simplicial_from_json(json.load(fh))
    try:
        result = chaintop.loopspace.phi_certificate(
            space, job["max_degree"], max_length=job["max_length"]
        )
    except AssertionError as exc:
        return f"uncertified: {str(exc)[:200]}"
    return workloads.check_certificate(job, result)


RUNNERS = {"cli": run_cli, "certify": run_certify}


def run_job(chaintop, job: dict, paths: dict, timeout_s: float) -> str | None:
    """Run one job; the reason it failed, or None."""
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return RUNNERS[job["kind"]](chaintop, job, paths)
    except JobTimeout:
        return f"timeout after {timeout_s} s"
    except MemoryError:
        return "MemoryError at the address-space cap"
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return f"raised {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(spec: dict) -> int:
    cap = spec["mem_cap_mb"] * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _on_alarm)
    events = Events(spec["events"])
    try:
        chaintop = import_chaintop(Path(spec["root"]))
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload, seed = spec["workload"], spec["seed"]
        paths = set_up(chaintop, workload, seed, Path(spec["dir"]))
        # CLOCK_MONOTONIC is shared by every process, so run.py can subtract
        events.emit(event="ready", t_ns=time.monotonic_ns())
        ref = statistics.median(reference_work() for _ in range(3))
        events.emit(event="ref", seconds=ref)
        if spec["mode"] == "setup":
            return 0
        began = time.perf_counter()
        # passes are numbered across the processes of a run, so each process
        # goes on with the labelings where the one before it stopped
        first = index = spec.get("first_pass", 0)
        last = 0.0
        # start a pass only if one more like the last still fits in the budget
        while index - first < spec["max_passes"] and (
            index == first or time.perf_counter() - began + last <= spec["seconds"]
        ):
            labeling = index % len(paths)
            pass_start = time.perf_counter()
            jobs_s = 0.0
            for job in workloads.job_order(workload, seed, index):
                t0 = time.perf_counter()
                args = (chaintop, job, paths[labeling], spec["job_timeout_s"])
                if tracer is None:
                    reason = run_job(*args)
                else:
                    reason = tracer.job(run_job, *args)
                seconds = time.perf_counter() - t0
                jobs_s += seconds
                ref_after = reference_work()
                events.emit(
                    event="job",
                    id=job["id"],
                    labeling=labeling,
                    ok=reason is None,
                    reason=reason,
                    seconds=seconds,
                    ref_s=(ref + ref_after) / 2,
                )
                ref = ref_after
            last = time.perf_counter() - pass_start
            events.emit(event="pass", wall_s=jobs_s)
            index += 1
        if tracer is not None:
            with open(spec["trace_out"], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        events.emit(event="done", maxrss_kb=usage.ru_maxrss)
        return 0
    finally:
        events.close()


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
