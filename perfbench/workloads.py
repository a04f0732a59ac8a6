"""Workload definitions, seeded relabeling and independent reference answers.

Nothing in this module imports chaintop. Every expected answer is computed
here from the homotopy type of the input model (a wedge of spheres, or RP^2)
and from word counts over letter dimensions, so a wrong library answer
cannot make its own reference agree with it.
"""

from __future__ import annotations

import random
from math import comb

# --- input models -----------------------------------------------------------
#
# "cells" is the number of nondegenerate cells per dimension that the
# generated model must have. "spheres" lists the sphere dimensions of the
# wedge the model is homotopy equivalent to (simply connected models only).
# Delta^n with its k-skeleton collapsed is the suspension of that skeleton,
# a wedge of C(n, k+1) spheres of dimension k+1.


def collapsed_simplex(n: int, k: int) -> dict:
    cells = {0: 1}
    for m in range(k + 1, n + 1):
        cells[m] = comb(n + 1, m + 1)
    return {
        "build": ["collapsed_simplex", n, k],
        "cells": cells,
        "spheres": [k + 1] * comb(n, k + 1),
    }


MODELS = {
    "d5c2": collapsed_simplex(5, 2),
    "d4c1": collapsed_simplex(4, 1),
    "s2s2s3": {
        "build": ["sphere_wedge", 2, 2, 3],
        "cells": {0: 1, 2: 2, 3: 1},
        "spheres": [2, 2, 3],
    },
    "rp2": {
        "build": ["rp2"],
        "cells": {0: 1, 1: 2, 2: 2},
        "pi1_order": 2,
    },
}


def letter_degrees(model: str) -> list:
    """Degree (dimension - 1) of every positive-dimensional cell."""
    return [
        dim - 1
        for dim, count in sorted(MODELS[model]["cells"].items())
        if dim >= 1
        for _ in range(count)
    ]


# --- workloads ---------------------------------------------------------------


def _cobar(model: str, ring: str, max_degree: int) -> dict:
    return {
        "id": f"cobar {model} {ring} deg{max_degree}",
        "kind": "cli",
        "model": model,
        "argv": ["cobar", "{model}", "--max-degree", str(max_degree), "--ring", ring],
        "max_degree": max_degree,
    }


def _cobar_ext(model: str, cutoff: int) -> dict:
    return {
        "id": f"cobar-ext {model} cutoff{cutoff}",
        "kind": "cli",
        "model": model,
        "argv": ["cobar-ext", "{model}", "--word-cutoff", str(cutoff)],
    }


def _certify(model: str, max_degree: int, max_length) -> dict:
    return {
        "id": f"phi_certificate {model} deg{max_degree} len{max_length}",
        "kind": "certify",
        "model": model,
        "max_degree": max_degree,
        "max_length": max_length,
    }


# Four workloads that stress different layers. Each job's time is taken
# relative to a reference computation timed around it (see worker.py), so
# the host's drifting speed does not need long runs to average out.
WORKLOADS = {
    # full-rank +-1 differentials: dense elimination does the work
    "cobar-elim": [
        _cobar("d5c2", "fp:2", 4),
        _cobar("d5c2", "z", 4),
        _cobar("d4c1", "fp:2", 2),
        _cobar("d4c1", "z", 2),
    ],
    # zero differentials: enumeration, assembly, pivot-free elimination
    "cobar-wide": [
        _cobar("s2s2s3", "z", 7),
        _cobar("s2s2s3", "fp:2", 7),
    ],
    # relation rows eliminated over Q with Fraction entries
    "h0-localized": [
        _cobar_ext("rp2", 2),
        _cobar_ext("rp2", 3),
    ],
    # cube enumeration and chain-map checks, no elimination at all
    "certify": [
        _certify("rp2", 4, 2),
        _certify("rp2", 2, 3),
        _certify("s2s2s3", 6, None),
    ],
}

# Each run relabels every model this many ways, derived from its seed, and
# cycles through them pass by pass. The cost of dense elimination depends
# on the pivot order a labeling gives, so wall_s averages over them; with
# more labelings each would get fewer repeats in a run to take the median of.
LABELINGS = 4


def models_for(workload: str) -> list:
    return sorted({job["model"] for job in WORKLOADS[workload]})


def job_order(workload: str, seed: int, pass_index: int) -> list:
    """The workload's jobs in the order the seed gives them for one pass."""
    jobs = list(WORKLOADS[workload])
    random.Random(f"order/{workload}/{seed}/{pass_index}").shuffle(jobs)
    return jobs


# --- seeded relabeling -------------------------------------------------------


def relabel(doc: dict, model: str, seed: int, labeling: int) -> dict:
    """Rename every cell of a JSON model and shuffle each dimension's list.

    The answers of every job are invariant under this; the repr-sorted
    bases and the pivot orders of the elimination are not.
    """
    rng = random.Random(f"labels/{model}/{seed}/{labeling}")
    ids = [cid for n in sorted(doc["cells"], key=int) for cid in doc["cells"][n]]
    numbers = rng.sample(range(10 * len(ids) + 100), len(ids))
    new = {cid: f"c{num}" for cid, num in zip(ids, numbers)}
    cells = {}
    for n, lst in doc["cells"].items():
        renamed = [new[c] for c in lst]
        rng.shuffle(renamed)
        cells[n] = renamed
    faces = {
        new[cid]: [[new[base], list(word)] for base, word in refs]
        for cid, refs in doc["faces"].items()
    }
    return {"name": f"{model}-{seed}-{labeling}", "cells": cells, "faces": faces}


def check_model_doc(doc: dict, model: str) -> str | None:
    """Cell counts of a generated model against its specification."""
    got = {int(n): len(ids) for n, ids in doc["cells"].items() if ids}
    want = MODELS[model]["cells"]
    if got != want:
        return f"model {model} has cells {got}, expected {want}"
    return None


# --- reference answers -------------------------------------------------------


def tensor_algebra_ranks(generator_degrees, top: int) -> list:
    """Ranks h_0..h_top of the free graded algebra on the given generators.

    h_0 = 1 and h_n = sum over generators g of h_(n - |g|); this is the
    coefficient list of 1 / (1 - sum_g t^|g|).
    """
    h = [0] * (top + 1)
    h[0] = 1
    for n in range(1, top + 1):
        h[n] = sum(h[n - g] for g in generator_degrees if 0 < g <= n)
    return h


def loop_homology_ranks(model: str, top: int) -> list:
    """Betti numbers of the loop space of a wedge of spheres (Bott-Samelson).

    H_*(Omega of a wedge of S^(d_i)) is the tensor algebra on generators of
    degrees d_i - 1, torsion-free, so the ranks hold over every ring.
    """
    spheres = MODELS[model]["spheres"]
    return tensor_algebra_ranks([d - 1 for d in spheres], top)


def word_counts(letter_degs, top: int, cap) -> dict:
    """Words in the letters of degree <= top whose length fits cap(degree).

    Counts N(d, l) of words of degree d and length l by the recurrence
    N(d, l) = sum over letters x of N(d - |x|, l - 1); cap is None for no
    length bound, else a function of the degree. Degrees with no word are
    left out, as a chain complex leaves out empty degrees.
    """
    if cap is None:
        if 0 in letter_degs:
            raise ValueError("degree-0 letters need a length cap")
        cap = lambda d: d  # every letter has degree >= 1
    limits = [cap(d) for d in range(top + 1)]
    longest = max(0, *limits)
    counts = [[0] * (longest + 1) for _ in range(top + 1)]
    counts[0][0] = 1
    for length in range(1, longest + 1):
        for d in range(top + 1):
            counts[d][length] = sum(
                counts[d - g][length - 1] for g in letter_degs if g <= d
            )
    out = {}
    for d, limit in enumerate(limits):
        total = sum(counts[d][: limit + 1]) if limit >= 0 else 0
        if total:
            out[d] = total
    return out


def certificate_degrees(model: str, max_degree: int, max_length) -> dict:
    """Cells per degree of the cube window phi_certificate checks.

    Without a length cutoff the window holds every word of degree at most
    max_degree. With cutoff L the degree-d window keeps words of length at
    most L + (max_degree - d): a face lowers the degree by one and adds at
    most one letter, so this sliding budget is closed under faces.
    """
    degs = letter_degrees(model)
    if max_length is None:
        return word_counts(degs, max_degree, None)
    return word_counts(degs, max_degree, lambda d: max_length + max_degree - d)


def expected(job: dict) -> dict:
    """The reference answer of one job."""
    model = job["model"]
    if job["kind"] == "certify":
        degrees = certificate_degrees(model, job["max_degree"], job["max_length"])
        return {"degrees": degrees, "cells": sum(degrees.values())}
    if job["argv"][0] == "cobar":
        top = job["max_degree"]
        ranks = loop_homology_ranks(model, top)
        return {
            "exit": 0,
            "homology": {str(n): {"rank": ranks[n], "torsion": []} for n in range(top + 1)},
            "inconclusive": [],
        }
    # cobar-ext: H_0 of the localized model is the group ring of pi_1
    return {"exit": 0, "rank": MODELS[model]["pi1_order"], "inconclusive": False}


def check_cli(job: dict, code: int, payload) -> str | None:
    """Why a CLI job's exit code and JSON differ from the reference, or None."""
    want = expected(job)
    if code != want["exit"]:
        return f"exit code {code}, expected {want['exit']}"
    if not isinstance(payload, dict):
        return "no JSON payload on stdout"
    if job["argv"][0] == "cobar":
        if payload.get("inconclusive") != want["inconclusive"]:
            return f"inconclusive degrees {payload.get('inconclusive')}"
        if payload.get("homology") != want["homology"]:
            return f"homology {payload.get('homology')} != {want['homology']}"
        return None
    h0 = payload.get("h0")
    if not isinstance(h0, dict):
        return "no h0 report"
    if h0.get("inconclusive") is not want["inconclusive"]:
        return "h0 marked inconclusive"
    if h0.get("rank") != want["rank"]:
        return f"h0 rank {h0.get('rank')}, expected {want['rank']}"
    return None


def check_certificate(job: dict, result) -> str | None:
    """Why a phi_certificate summary differs from the reference, or None."""
    want = expected(job)
    if not isinstance(result, dict):
        return "certificate returned no summary"
    degrees = {int(n): c for n, c in result.get("degrees", {}).items()}
    if degrees != want["degrees"]:
        return f"cells per degree {degrees} != {want['degrees']}"
    if result.get("cells") != want["cells"]:
        return f"{result.get('cells')} cells checked, expected {want['cells']}"
    if not result.get("pairs"):
        return "no product pair was checked"
    return None
