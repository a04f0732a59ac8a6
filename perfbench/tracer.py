"""Spans around calls into chaintop, recorded from outside the library.

Tracer.install() replaces the entry points in TARGETS by wrappers, in every
loaded chaintop module that holds them, so calls made through imported names
are caught too. Each call records a span (name, start, end, parent) in
memory; counters attached to some targets record exact sizes (matrix shapes,
nonzeros, pivots, cells). A target the library no longer has is listed as
absent and the metrics built only from it are reported as absent. A counter
that fails, say because a counted attribute was renamed, lists its target as
broken, and the counts built from it are reported as absent rather than as 0.

derive_metrics() turns a dumped trace into per-layer metrics: a layer's time
is the self time of its spans, i.e. their duration minus the part covered by
child spans and by the tracer's own counting.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns


def _shape(mat):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    return rows, cols


def _count_rank(tracer, args, kwargs, result):
    rows, cols = _shape(args[0])
    return {"rows": rows, "cols": cols, "pivots": int(result)}


def _count_snf(tracer, args, kwargs, result):
    rows, cols = _shape(args[0])
    return {"rows": rows, "cols": cols, "pivots": len(result)}


def _count_matrix(tracer, args, kwargs, result):
    rows, cols = _shape(result)
    nnz = sum(1 for row in result for x in row if x)
    return {"rows": rows, "cols": cols, "nnz": nnz}


def _count_diff(tracer, args, kwargs, result):
    complex_, key = args[0], args[1]
    # holding the complex keeps its id unique until the job ends
    seen = tracer.seen.setdefault(id(complex_), (complex_, set()))[1]
    if key in seen:
        return None
    seen.add(key)
    return {"new_key": 1}


def _count_cobar(tracer, args, kwargs, result):
    chains = args[0].complex
    return {"cells": sum(chains.rank(n) for n in chains.degrees())}


def _count_cubes(tracer, args, kwargs, result):
    cubes = args[0].cubes
    return {"cells": sum(len(cubes.nondegenerate(n)) for n in cubes.dimensions())}


def _count_certificate(tracer, args, kwargs, result):
    return {"cells": result["cells"], "pairs": result["pairs"]}


def _wrap_cubical_rule(tracer, args, kwargs, result):
    # the boundary of a cubical complex is evaluated lazily by its rule
    rule = getattr(result, "_diff_rule", None)
    if rule is not None:
        result._diff_rule = tracer.wrap(rule, "cubical.boundary", None)
    return None


# (module, attribute path, span name, counter)
TARGETS = (
    ("chaintop.smith", "field_rank", "smith.field_rank", _count_rank),
    ("chaintop.smith", "smith_normal_form", "smith.smith_normal_form", _count_snf),
    ("chaintop.smith", "smith_homology", "smith.smith_homology", None),
    ("chaintop.complexes", "ChainComplex.diff_matrix", "complexes.diff_matrix", _count_matrix),
    ("chaintop.complexes", "ChainComplex.diff", "complexes.diff", _count_diff),
    ("chaintop.cobar", "CobarComplex.__init__", "cobar.enumerate", _count_cobar),
    ("chaintop.cobar", "CobarComplex._word_boundary", "cobar.boundary", None),
    ("chaintop.cobar", "h0_group_ring", "cobar.h0_group_ring", None),
    ("chaintop.cobar", "_h0_within", "cobar.h0_within", None),
    ("chaintop.loopspace", "CubicalCobar.__init__", "loopspace.cubes", _count_cubes),
    ("chaintop.loopspace", "phi_certificate", "loopspace.phi_certificate", _count_certificate),
    ("chaintop.cubical", "cubical_chains", "cubical.cubical_chains", _wrap_cubical_rule),
    ("chaintop.simplicial", "simplicial_from_json", "simplicial.from_json", None),
    ("chaintop.simplicial", "simplicial_to_json", "simplicial.to_json", None),
    ("chaintop.simplicial", "collapse_subcomplex", "simplicial.collapse_subcomplex", None),
    ("chaintop.simplicial", "wedge_models", "simplicial.wedge_models", None),
    ("chaintop.cli", "main", "cli.main", None),
)

JOB_SPAN = "bench.job"


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names = [JOB_SPAN]
        self._name_ids = {JOB_SPAN: 0}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.counts = {}
        self.hidden = {}
        self.stack = [-1]
        self.absent = []
        self.broken = set()
        self.seen = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span_name: str, counter):
        nid = self._name_id(span_name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, hidden = self.stack, self.counts, self.hidden

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                c0 = perf_counter_ns()
                try:
                    found = counter(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken.add(span_name)
                    found = None
                if found:
                    counts[idx] = found
                up = stack[-1]
                if up >= 0:
                    hidden[up] = hidden.get(up, 0) + perf_counter_ns() - c0
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "chaintop" or key.startswith("chaintop."))
        ]
        for module_name, path, span_name, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span_name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(span_name)
                continue
            wrapper = self.wrap(original, span_name, counter)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            # rebind the name wherever a module imported the function
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def job(self, fn, *args):
        """Run fn(*args) under a root span; per-job counter state is dropped after."""
        try:
            return self.wrap(fn, JOB_SPAN, None)(*args)
        finally:
            self.seen.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": {str(k): v for k, v in self.counts.items()},
            "hidden": {str(k): v for k, v in self.hidden.items()},
            "absent": self.absent,
            "broken": sorted(self.broken),
        }


# --- metrics from a dumped trace ------------------------------------------------


def self_times(trace: dict) -> list:
    """Self time of every span in nanoseconds."""
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    own = [e - s for s, e in zip(start, end)]
    for idx, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[idx] - start[idx]
    for key, ns in trace["hidden"].items():
        own[int(key)] -= ns
    return own


ELIM = ("smith.field_rank", "smith.smith_normal_form")
H0 = ("cobar.h0_group_ring", "cobar.h0_within")
SIMPLICIAL = (
    "simplicial.from_json",
    "simplicial.to_json",
    "simplicial.collapse_subcomplex",
    "simplicial.wedge_models",
)

# metric -> (unit, span names it is built from)
LAYER_METRICS = {
    "smith.elim_s": ("s", ELIM),
    "smith.elim_calls": ("count", ELIM),
    "smith.elim_entries": ("count", ELIM),
    "smith.pivots": ("count", ELIM),
    "smith.pivot_ratio": ("ratio", ELIM),
    "smith.homology_s": ("s", ("smith.smith_homology",)),
    "complexes.assemble_s": ("s", ("complexes.diff_matrix",)),
    "complexes.matrix_entries": ("count", ("complexes.diff_matrix",)),
    "complexes.matrix_nnz": ("count", ("complexes.diff_matrix",)),
    "complexes.density": ("ratio", ("complexes.diff_matrix",)),
    "complexes.diff_s": ("s", ("complexes.diff",)),
    "complexes.diff_calls": ("count", ("complexes.diff",)),
    "complexes.diff_hit_ratio": ("ratio", ("complexes.diff",)),
    "cobar.enum_s": ("s", ("cobar.enumerate",)),
    "cobar.basis_cells": ("count", ("cobar.enumerate",)),
    "cobar.boundary_s": ("s", ("cobar.boundary",)),
    "cobar.h0_s": ("s", H0),
    "cobar.h0_rows": ("count", H0),
    "loopspace.cubes_s": ("s", ("loopspace.cubes",)),
    "loopspace.cube_cells": ("count", ("loopspace.cubes",)),
    "loopspace.cert_s": ("s", ("loopspace.phi_certificate",)),
    "loopspace.cert_cells": ("count", ("loopspace.phi_certificate",)),
    "loopspace.cert_pairs": ("count", ("loopspace.phi_certificate",)),
    "cubical.chains_s": ("s", ("cubical.cubical_chains", "cubical.boundary")),
    "simplicial.load_s": ("s", SIMPLICIAL),
    "cli.self_s": ("s", ("cli.main",)),
}


def _ratio(part, whole) -> float:
    # a ratio over an empty base is reported as 0; the base is its own metric
    return part / whole if whole else 0.0


def derive_metrics(trace: dict) -> dict:
    """Per-layer (value, unit).

    The value is None when its spans are all absent, and a count or ratio is
    None when a counter of one of its spans failed.
    """
    names = trace["names"]
    span_name = [names[i] for i in trace["name"]]
    parent = trace["parent"]
    own = self_times(trace)
    counts = {int(k): v for k, v in trace["counts"].items()}
    by_name = {}
    for idx, name in enumerate(span_name):
        by_name.setdefault(name, []).append(idx)

    def spans(group):
        return [i for name in group for i in by_name.get(name, ())]

    def secs(*group):
        return sum(own[i] for i in spans(group)) / 1e9

    def total(field, *group):
        return sum(counts.get(i, {}).get(field, 0) for i in spans(group))

    def shapes(*group):
        return [(counts.get(i, {}).get("rows", 0), counts.get(i, {}).get("cols", 0)) for i in spans(group)]

    def under_h0(idx):
        idx = parent[idx]
        while idx >= 0:
            if span_name[idx] in H0:
                return True
            idx = parent[idx]
        return False

    elim = shapes(*ELIM)
    pivots = total("pivots", *ELIM)
    m_entries = sum(r * c for r, c in shapes("complexes.diff_matrix"))
    m_nnz = total("nnz", "complexes.diff_matrix")
    diff_calls = len(spans(("complexes.diff",)))
    distinct = total("new_key", "complexes.diff")
    values = {
        "smith.elim_s": secs(*ELIM),
        "smith.elim_calls": len(elim),
        "smith.elim_entries": sum(r * c for r, c in elim),
        "smith.pivots": pivots,
        "smith.pivot_ratio": _ratio(pivots, sum(min(r, c) for r, c in elim)),
        "smith.homology_s": secs("smith.smith_homology"),
        "complexes.assemble_s": secs("complexes.diff_matrix"),
        "complexes.matrix_entries": m_entries,
        "complexes.matrix_nnz": m_nnz,
        "complexes.density": _ratio(m_nnz, m_entries),
        "complexes.diff_s": secs("complexes.diff"),
        "complexes.diff_calls": diff_calls,
        "complexes.diff_hit_ratio": _ratio(diff_calls - distinct, diff_calls),
        "cobar.enum_s": secs("cobar.enumerate"),
        "cobar.basis_cells": total("cells", "cobar.enumerate"),
        "cobar.boundary_s": secs("cobar.boundary"),
        "cobar.h0_s": secs(*H0),
        "cobar.h0_rows": sum(
            counts.get(i, {}).get("rows", 0) for i in spans(ELIM) if under_h0(i)
        ),
        "loopspace.cubes_s": secs("loopspace.cubes"),
        "loopspace.cube_cells": total("cells", "loopspace.cubes"),
        "loopspace.cert_s": secs("loopspace.phi_certificate"),
        "loopspace.cert_cells": total("cells", "loopspace.phi_certificate"),
        "loopspace.cert_pairs": total("pairs", "loopspace.phi_certificate"),
        "cubical.chains_s": secs("cubical.cubical_chains", "cubical.boundary"),
        "simplicial.load_s": secs(*SIMPLICIAL),
        "cli.self_s": secs("cli.main"),
    }
    absent = set(trace["absent"])
    broken = set(trace.get("broken", ()))

    def known(unit, sources):
        if absent.issuperset(sources):
            return False
        return unit == "s" or broken.isdisjoint(sources)

    return {
        metric: (values[metric] if known(unit, sources) else None, unit)
        for metric, (unit, sources) in LAYER_METRICS.items()
    }
