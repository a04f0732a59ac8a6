"""Self-tests of the benchmark: oracles, failure accounting and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


# --- oracles -------------------------------------------------------------------


def test_wedge_closed_forms():
    # Delta^5 / 2-skeleton ~ wedge of 10 S^3: H_2k = 10^k, odd degrees 0
    assert workloads.MODELS["d5c2"]["spheres"] == [3] * 10
    assert workloads.loop_homology_ranks("d5c2", 6) == [1, 0, 10, 0, 100, 0, 1000]
    # Delta^4 / 1-skeleton ~ wedge of 6 S^2: H_n = 6^n
    assert workloads.MODELS["d4c1"]["spheres"] == [2] * 6
    assert workloads.loop_homology_ranks("d4c1", 4) == [6**n for n in range(5)]
    # S^2 v S^2 v S^3: coefficients of 1 / (1 - 2t - t^2)
    assert workloads.loop_homology_ranks("s2s2s3", 8) == [1, 2, 5, 12, 29, 70, 169, 408, 985]


def test_tiny_spheres():
    # Omega S^2 has one class in each degree; Omega(S^2 v S^2) has 2^n
    assert workloads.tensor_algebra_ranks([1], 5) == [1] * 6
    assert workloads.tensor_algebra_ranks([1, 1], 5) == [2**n for n in range(6)]
    assert workloads.tensor_algebra_ranks([2], 5) == [1, 0, 1, 0, 1, 0]


def test_model_cell_counts():
    assert workloads.MODELS["d5c2"]["cells"] == {0: 1, 3: 15, 4: 6, 5: 1}
    assert workloads.MODELS["d4c1"]["cells"] == {0: 1, 2: 10, 3: 5, 4: 1}


def _brute_words(letter_degs, top, cap):
    out = {}
    longest = max(cap(d) for d in range(top + 1))
    for length in range(longest + 1):
        for word in itertools.product(letter_degs, repeat=length):
            d = sum(word)
            if d <= top and length <= cap(d):
                out[d] = out.get(d, 0) + 1
    return out


def test_word_counts_match_enumeration():
    degs = [0, 0, 1, 1]  # RP^2: two edges, two triangles
    cap = lambda d: 2 + 3 - d
    assert workloads.word_counts(degs, 3, cap) == _brute_words(degs, 3, cap)
    degs = [1, 1, 2]
    assert workloads.word_counts(degs, 5, None) == _brute_words(degs, 5, lambda d: d)


def test_certificate_counts_of_rp2():
    # the cell counts the library's own acceptance test knows for RP^2
    want = {0: 255, 1: 642, 2: 444, 3: 72}
    assert workloads.certificate_degrees("rp2", 5, 2) == want
    assert workloads.expected(workloads._certify("rp2", 5, 2))["cells"] == 1413


# --- inputs --------------------------------------------------------------------


def _plain_rp2():
    return {
        "name": "rp2",
        "cells": {"0": ["p"], "1": ["a", "b"], "2": ["U", "L"]},
        "faces": {
            "a": [["p", []], ["p", []]],
            "b": [["p", []], ["p", []]],
            "U": [["a", []], ["p", [0]], ["b", []]],
            "L": [["p", [0]], ["a", []], ["b", []]],
        },
    }


def _isomorphic(a, b) -> bool:
    """Is some dimension-wise bijection of cell ids carrying a's faces to b's?"""
    dims = sorted(a["cells"])
    if sorted(b["cells"]) != dims:
        return False
    choices = [itertools.permutations(b["cells"][n]) for n in dims]
    for images in itertools.product(*choices):
        phi = {}
        for n, image in zip(dims, images):
            phi.update(zip(a["cells"][n], image))
        if all(
            [[phi[base], word] for base, word in refs] == b["faces"][phi[cid]]
            for cid, refs in a["faces"].items()
        ):
            return True
    return False


def test_relabel_is_seeded_and_structure_preserving():
    plain = _plain_rp2()
    one = workloads.relabel(plain, "rp2", 7, 0)
    assert one == workloads.relabel(plain, "rp2", 7, 0)
    assert one != workloads.relabel(plain, "rp2", 8, 0)
    assert one != workloads.relabel(plain, "rp2", 7, 1)
    assert workloads.check_model_doc(one, "rp2") is None
    assert _isomorphic(plain, one)
    broken = json.loads(json.dumps(one))
    edge = broken["cells"]["1"][0]
    broken["faces"][broken["cells"]["2"][0]][0][0] = edge
    broken["faces"][broken["cells"]["2"][0]][2][0] = edge
    assert not _isomorphic(plain, broken)


def test_job_order_depends_on_seed_only():
    a = [j["id"] for j in workloads.job_order("certify", 3, 0)]
    assert a == [j["id"] for j in workloads.job_order("certify", 3, 0)]
    assert sorted(a) == sorted(j["id"] for j in workloads.WORKLOADS["certify"])


# --- checking answers ----------------------------------------------------------


def _cobar_payload(ranks):
    return {
        "homology": {str(n): {"rank": r, "torsion": []} for n, r in enumerate(ranks)},
        "inconclusive": [],
    }


def test_check_cli_accepts_the_reference_and_rejects_wrong_answers():
    job = workloads._cobar("d4c1", "z", 2)
    assert workloads.check_cli(job, 0, _cobar_payload([1, 6, 36])) is None
    assert workloads.check_cli(job, 0, _cobar_payload([1, 6, 35])) is not None
    assert workloads.check_cli(job, 3, _cobar_payload([1, 6, 36])) is not None
    torsion = _cobar_payload([1, 6, 36])
    torsion["homology"]["1"]["torsion"] = [2]
    assert workloads.check_cli(job, 0, torsion) is not None
    unsure = _cobar_payload([1, 6, 36])
    unsure["inconclusive"] = [2]
    assert workloads.check_cli(job, 0, unsure) is not None
    assert workloads.check_cli(job, 0, None) is not None


def test_check_h0():
    job = workloads._cobar_ext("rp2", 3)
    good = {"h0": {"rank": 2, "inconclusive": False}}
    assert workloads.check_cli(job, 0, good) is None
    assert workloads.check_cli(job, 0, {"h0": {"rank": 3, "inconclusive": False}})
    assert workloads.check_cli(job, 3, {"h0": {"rank": 2, "inconclusive": True}})


def test_check_certificate():
    job = workloads._certify("rp2", 5, 2)
    good = {"degrees": {0: 255, 1: 642, 2: 444, 3: 72}, "cells": 1413, "pairs": 400}
    assert workloads.check_certificate(job, good) is None
    assert workloads.check_certificate(job, dict(good, cells=1412))
    assert workloads.check_certificate(job, dict(good, pairs=0))
    assert workloads.check_certificate(job, dict(good, degrees={0: 255}))


def _child(events, exit_code=0, timed_out=False):
    return run.Child(events, exit_code, timed_out, 0, 0, "")


def test_wrong_answer_counts_as_failed_job():
    tally = run.Tally("certify")
    events = [
        {"event": "ready", "t_ns": 1},
        {"event": "job", "id": "a", "labeling": 0, "ok": True, "reason": None, "seconds": 1.0},
        {"event": "job", "id": "b", "labeling": 0, "ok": False, "reason": "rank 3", "seconds": 1.0},
        {"event": "done", "maxrss_kb": 1},
    ]
    tally.add(_child(events), None)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_killed_worker_counts_lost_jobs():
    tally = run.Tally("certify")
    events = [
        {"event": "ready", "t_ns": 1},
        {"event": "job", "id": "a", "labeling": 0, "ok": True, "reason": None, "seconds": 1.0},
    ]
    tally.add(_child(events, exit_code=-9, timed_out=True), 1)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "timeout" in tally.reasons[0]


def test_job_costs_average_each_labelings_median_relative_repeat():
    ev = lambda job, lab, s, ref=1.0: {"id": job, "labeling": lab, "seconds": s, "ref_s": ref}
    events = [ev("a", 0, 2.0), ev("b", 0, 1.0), ev("a", 1, 1.5), ev("b", 1, 3.0)]
    events += [ev("a", 0, 1.0), ev("a", 0, 1.2), ev("b", 1, 2.0), ev("b", 1, 9.0)]
    assert run.job_costs(events) == pytest.approx({"a": 1.35, "b": 2.0})
    # a host twice as slow doubles job and reference alike: the cost stays
    slow = [dict(e, seconds=2 * e["seconds"], ref_s=2 * e["ref_s"]) for e in events]
    assert run.job_costs(slow) == run.job_costs(events)


def test_setup_time_is_relative_to_the_reference_after_it():
    events = [{"event": "ready", "t_ns": 3_000_000_000}, {"event": "ref", "seconds": 0.5}]
    child = run.Child(events, 0, False, 2_000_000_000, 4_000_000_000, "")
    assert (child.setup_s, child.setup_rel) == (1.0, 2.0)
    assert run.Child(events[:1], 0, False, 0, 1, "").setup_rel is None


def test_worker_flags_wrong_answers_and_timeouts(tmp_path):
    import signal

    import worker

    signal.signal(signal.SIGALRM, worker._on_alarm)
    chaintop = worker.import_chaintop(ROOT)
    paths = worker.set_up(chaintop, "certify", 1, tmp_path)[0]
    job = workloads._cobar("s2s2s3", "z", 2)
    assert worker.run_job(chaintop, job, paths, 60) is None
    # the d4c1 reference applied to the S^2 v S^2 v S^3 answer
    wrong = dict(job, model="d4c1")
    assert "homology" in worker.run_job(chaintop, wrong, {"d4c1": paths["s2s2s3"]}, 60)
    slow = workloads._cobar("s2s2s3", "z", 7)
    assert worker.run_job(chaintop, slow, paths, 0.001).startswith("timeout")


# --- tracing -------------------------------------------------------------------


def test_self_times_subtract_children_and_counting():
    trace = {
        "names": ["bench.job", "smith.field_rank"],
        "name": [0, 1, 1],
        "parent": [-1, 0, 0],
        "start": [0, 10, 50],
        "end": [100, 30, 60],
        "counts": {"1": {"rows": 2, "cols": 3, "pivots": 2}, "2": {"rows": 4, "cols": 1, "pivots": 0}},
        "hidden": {"0": 5},
        "absent": [],
    }
    assert tracer.self_times(trace) == [65, 20, 10]
    metrics = tracer.derive_metrics(trace)
    assert metrics["smith.elim_calls"] == (2, "count")
    assert metrics["smith.elim_entries"] == (10, "count")
    assert metrics["smith.pivot_ratio"] == (2 / 3, "ratio")
    assert metrics["smith.elim_s"] == (30e-9, "s")


def test_absent_target_marks_its_metrics_absent():
    trace = {
        "names": ["bench.job"],
        "name": [],
        "parent": [],
        "start": [],
        "end": [],
        "counts": {},
        "hidden": {},
        "absent": ["smith.field_rank", "smith.smith_normal_form"],
    }
    metrics = tracer.derive_metrics(trace)
    assert metrics["smith.elim_s"] == (None, "s")
    assert metrics["cli.self_s"] == (0.0, "s")
    assert set(metrics) == set(tracer.LAYER_METRICS)


def test_failing_counter_marks_its_counts_absent():
    t = tracer.Tracer()

    def renamed(tracer_, args, kwargs, result):
        return {"cells": args[0].complex}  # an attribute the class lost

    enumerate_ = t.wrap(lambda obj: None, "cobar.enumerate", renamed)
    t.job(enumerate_, object())
    dumped = t.dump()
    assert dumped["broken"] == ["cobar.enumerate"]
    metrics = tracer.derive_metrics(dumped)
    assert metrics["cobar.basis_cells"] == (None, "count")
    assert metrics["cobar.enum_s"][0] is not None
    assert metrics["smith.elim_calls"] == (0, "count")


TRACED_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import chaintop.cli, chaintop.loopspace, chaintop.simplicial
import tracer
tracer.TARGETS = tracer.TARGETS + (("chaintop.smith", "no_such_kernel", "smith.gone", None),)
t = tracer.Tracer()
t.install()
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    t.job(chaintop.cli.main, ["cobar", "sphere", "2", "--max-degree", "3"])
print(json.dumps(t.dump()))
"""


def _traced_counts():
    script = TRACED_SCRIPT.format(src=str(ROOT / "src"), here=str(HERE))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    dumped = json.loads(out.stdout)
    metrics = tracer.derive_metrics(dumped)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return dumped, counts


def test_traced_counts_repeat_and_missing_targets_are_absent():
    dumped, counts = _traced_counts()
    assert dumped["absent"] == ["smith.gone"]
    # H_0..H_3 of the cobar complex: two eliminations per degree
    assert counts["smith.elim_calls"] == 8
    assert counts["cobar.basis_cells"] == 5
    _, again = _traced_counts()
    assert again == counts


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
