"""Models that several test modules build: the benchmark's wedges of
spheres, and copies with renamed, reordered cells for tests whose
answers must not depend on cell names or stored order."""

import importlib.util
import random
from pathlib import Path

from chaintop.simplicial import collapse_subcomplex, simplicial_to_json, standard_simplex

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(name: str):
    """A module of the benchmark harness, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collapsed_simplex(n: int, k: int):
    """The n-simplex with its k-skeleton collapsed to a point: a wedge of
    C(n, k + 1) spheres of dimension k + 1."""
    simplex = standard_simplex(n)
    skeleton = [c for m in range(k + 1) for c in simplex.nondegenerate(m)]
    return collapse_subcomplex(simplex, skeleton).target


def relabeled_json(space, seed) -> dict:
    """The JSON form of space with every cell renamed and each dimension's
    cells shuffled; the name is kept."""
    rng = random.Random(seed)
    data = simplicial_to_json(space)
    ids = [cid for lst in data["cells"].values() for cid in lst]
    numbers = rng.sample(range(10 * len(ids)), len(ids))
    new = {cid: f"c{num}" for cid, num in zip(ids, numbers)}
    cells = {}
    for n, lst in data["cells"].items():
        renamed = [new[cid] for cid in lst]
        rng.shuffle(renamed)
        cells[n] = renamed
    faces = {
        new[cid]: [[new[base], word] for base, word in refs]
        for cid, refs in data["faces"].items()
    }
    return {"name": data["name"], "cells": cells, "faces": faces}
