"""Batch command line driver.

Subcommands compute homology tables, cobar and localized cobar
invariants, the loop-space cube model with its relabeling cross-check,
Steenrod images, and named verification suites. Output is byte-stable
for fixed inputs: text mode prints one "key: value" line per fact in a
fixed order, json mode sorts keys.

Exit codes: 0 success, 2 a checked invariant failed, 3 the window was
too small to certify the answer, 4 bad input, 141 stdout was closed
before the report was written (a reader such as `head` stopped early).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections import namedtuple

from .cobar import cobar, h0_group_ring
from .complexes import InsufficientTruncationError
from .cubical import CubeBialgebra, serre_coproduct, serre_counit
from .freemod import FreeElement
from .loopspace import cubical_cobar, phi_certificate
from .rings import ZZ, parse_ring
from .simplicial import (
    SimplicialSet,
    collapse_free_pairs,
    normalized_chains,
    simplicial_from_json,
    simplicial_model,
)
from .smith import homology_table

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INPUT = 4
# what a shell reports for a writer stopped by SIGPIPE: 128 + 13
EXIT_PIPE = 141

BUILTIN_MODELS = ("point", "circle", "sphere", "simplex", "rp2")
VERIFY_SUITES = ("serre-coalgebra", "join-signs")


class CliInputError(Exception):
    pass


class JobSpec(
    namedtuple(
        "JobSpec",
        "command model dim ring max_degree word_cutoff fmt check square degree suite",
        defaults=(None, None, "z", None, None, "text", False, 1, None, None),
    )
):
    """One batch job: what to compute, on what, over which ring.

    An immutable record, equal and hashed by value. Being a tuple, it
    also equals the plain tuple of its fields in order.
    """

    __slots__ = ()


def load_space(job: JobSpec) -> SimplicialSet:
    name = job.model
    if name is None:
        raise CliInputError("no model given")
    if name.endswith(".json"):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliInputError(f"cannot read {name}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliInputError(f"{name} is not JSON: {exc}") from None
        try:
            return simplicial_from_json(data)
        except ValueError as exc:
            raise CliInputError(str(exc)) from None
    try:
        return simplicial_model(name, job.dim)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def _ring(job: JobSpec):
    try:
        return parse_ring(job.ring)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def format_group(rank: int, torsion, ring: str = "Z") -> str:
    parts = []
    if rank == 1:
        parts.append(ring)
    elif rank > 1:
        parts.append(f"{ring}^{rank}")
    # torsion only appears over Z, so the Z/f spelling is safe
    parts.extend(f"Z/{f}" for f in torsion)
    return " + ".join(parts) if parts else "0"


def _homology_table(chains, degrees):
    table = {}
    inconclusive = []
    for n, h in homology_table(chains, degrees).items():
        if h is None:
            table[n] = None
            inconclusive.append(n)
        else:
            table[n] = {"rank": h.free_rank, "torsion": list(h.invariant_factors)}
    return table, inconclusive


# --- subcommands; each returns (payload, exit code) ---

def cmd_homology(job: JobSpec):
    space = load_space(job)
    ring = _ring(job)
    top = space.dimension if job.max_degree is None else job.max_degree
    # store one degree past the report so every row is certified
    chains = normalized_chains(space, top + 1, ring)
    table, inconclusive = _homology_table(chains, range(top + 1))
    code = EXIT_INCONCLUSIVE if inconclusive else EXIT_OK
    if job.check and chains.d_squared_witness() is not None:
        code = EXIT_INVARIANT
    payload = {
        "command": "homology",
        "model": space.name,
        "ring": ring.name,
        "window": {"max_degree": top},
        "homology": table,
        "inconclusive": inconclusive,
    }
    return payload, code


def _needs_cutoff(space: SimplicialSet) -> bool:
    return bool(space.nondegenerate(1))


def _load_loop_model(job: JobSpec) -> SimplicialSet:
    """The model `cobar` and `loop` compute on.

    Without 1-cells that is what collapsing free face pairs leaves of the
    input (`collapse_free_pairs`): a deformation retract, so a simply
    connected model keeps its loop homology (the cobar preserves
    quasi-isomorphisms of simply connected chain coalgebras), and it
    keeps its name, so the report reads the same. A model with 1-cells
    is used as it is.
    """
    space = load_space(job)
    if _needs_cutoff(space):
        return space
    return collapse_free_pairs(space).source


def cmd_cobar(job: JobSpec):
    space = _load_loop_model(job)
    ring = _ring(job)
    top = 5 if job.max_degree is None else job.max_degree
    length = job.word_cutoff if _needs_cutoff(space) else None
    try:
        algebra = cobar(space, top + 1, ring, length)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    table, inconclusive = _homology_table(algebra.complex, range(top + 1))
    code = EXIT_INCONCLUSIVE if inconclusive else EXIT_OK
    if job.check and algebra.complex.d_squared_witness() is not None:
        code = EXIT_INVARIANT
    payload = {
        "command": "cobar",
        "model": space.name,
        "ring": ring.name,
        "window": {"max_degree": top + 1, "max_length": length},
        "homology": table,
        "inconclusive": inconclusive,
    }
    return payload, code


def cmd_cobar_ext(job: JobSpec):
    space = load_space(job)
    ring = _ring(job if job.ring != "z" else JobSpec("cobar-ext", ring="q"))
    cutoff = 3 if job.word_cutoff is None else job.word_cutoff
    try:
        report = h0_group_ring(space, cutoff, ring)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    payload = {
        "command": "cobar-ext",
        "model": space.name,
        "ring": ring.name,
        "window": {"word_cutoff": cutoff},
        "h0": report.as_dict(),
    }
    return payload, EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK


def cmd_loop(job: JobSpec):
    space = _load_loop_model(job)
    ring = _ring(job)
    top = 5 if job.max_degree is None else job.max_degree
    length = None
    if _needs_cutoff(space):
        length = 3 if job.word_cutoff is None else job.word_cutoff
    try:
        omega = cubical_cobar(space, top + 1, max_length=length, ring=ring)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    chains = omega.chains()
    table, inconclusive = _homology_table(chains, range(top + 1))
    code = EXIT_INCONCLUSIVE if inconclusive else EXIT_OK
    cross = "skipped"
    if job.check:
        try:
            phi_certificate(space, top + 1, max_length=length, ring=ring, omega=omega)
            cross = "passed"
        except AssertionError as exc:
            cross = f"failed: {exc}"
            code = EXIT_INVARIANT
        if length is None and cross == "passed":
            # the cobar of the cube model's own window
            other, _ = _homology_table(omega.words.complex, range(top + 1))
            if other != table:
                cross = "failed: homology tables disagree"
                code = EXIT_INVARIANT
    payload = {
        "command": "loop",
        "model": space.name,
        "ring": ring.name,
        "window": {"max_degree": top + 1, "max_length": length},
        "homology": table,
        "inconclusive": inconclusive,
        "cross_check": cross,
    }
    return payload, code


def cmd_steenrod(job: JobSpec):
    # only this command needs the E-infinity layer (and propm under it),
    # so the others do not pay for importing it
    from .einfty import FieldHomology, simplicial_um, steenrod_sq

    space = load_space(job)
    ring = _ring(job if job.ring != "z" else JobSpec("steenrod", ring="fp:2"))
    if getattr(ring, "characteristic", 0) != 2:
        raise CliInputError("squares act over fp:2")
    degree = space.dimension if job.degree is None else job.degree
    if job.square > degree:
        raise CliInputError(f"--square {job.square} exceeds the degree {degree}")
    coalg = simplicial_um(space, ring)
    try:
        source = FieldHomology(coalg.complex, degree)
        target = FieldHomology(coalg.complex, degree - job.square)
    except (ValueError, InsufficientTruncationError) as exc:
        raise CliInputError(str(exc)) from None
    images = []
    nonzero = False
    for cls in source.classes():
        out = steenrod_sq(coalg, job.square, cls)
        coords = [str(c) for c in target.coordinates(out.representative)]
        images.append(coords)
        nonzero = nonzero or not out.is_zero_class
    payload = {
        "command": "steenrod",
        "model": space.name,
        "ring": ring.name,
        "square": job.square,
        "degree": degree,
        "source_dim": source.dim,
        "target_dim": target.dim,
        "images": images,
        "nonzero": nonzero,
    }
    return payload, EXIT_OK


def _verify_serre_coalgebra():
    ring = ZZ
    for n in range(4):
        words = list(itertools.product(("0", "1", "I"), repeat=n))
        for w in words:
            delta = serre_coproduct(w, ring).items()
            unit = FreeElement.single(ring, w)
            # counit axiom on both sides: the counit of one factor leaves the other
            for side, name in ((0, "left"), (1, "right")):
                through = [(ab[1 - side], c * serre_counit(ab[side], ring)) for ab, c in delta]
                if FreeElement(ring, through) != unit:
                    return f"{name} counit fails on {w!r}"
            left = [
                ((a1, a2, b), c * c2)
                for (a, b), c in delta
                for (a1, a2), c2 in serre_coproduct(a, ring).items()
            ]
            right = [
                ((a, b1, b2), c * c2)
                for (a, b), c in delta
                for (b1, b2), c2 in serre_coproduct(b, ring).items()
            ]
            if FreeElement(ring, left) != FreeElement(ring, right):
                return f"coassociativity fails on {w!r}"
    return None


def _verify_join_signs():
    ring = ZZ

    def join_el(bial, x, y):
        out = FreeElement.zero(ring)
        for ka, ca in x.items():
            for kb, cb in y.items():
                out = out + bial.join(ka, kb).scale(ring.mul(ca, cb))
        return out

    survivors = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        ok = True
        for n in (1, 2):
            bial = CubeBialgebra(n, ring)
            chains = bial.complex
            keys = [k for m in chains.degrees() for k in chains.basis_in(m)]
            for ka, kb in itertools.product(keys, keys):
                a = FreeElement.single(ring, ka, ring.one)
                b = FreeElement.single(ring, kb, ring.one)
                lhs = FreeElement.zero(ring)
                for key, c in bial.join(ka, kb).items():
                    lhs = lhs + chains.diff(key).scale(c)
                lhs = lhs + join_el(bial, chains.diff_element(a), b)
                sign = ring.from_int(-1 if bial.degree(ka) % 2 else 1)
                lhs = lhs + join_el(bial, a, chains.diff_element(b)).scale(sign)
                rhs = b.scale(ring.mul(ring.from_int(s1), bial.counit(ka)))
                rhs = rhs + a.scale(ring.mul(ring.from_int(s2), bial.counit(kb)))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            survivors.append((s1, s2))
    return survivors


def cmd_verify(job: JobSpec):
    if job.suite == "serre-coalgebra":
        witness = _verify_serre_coalgebra()
        payload = {
            "command": "verify",
            "suite": job.suite,
            "result": "pass" if witness is None else "fail",
            "witness": witness,
        }
        return payload, EXIT_OK if witness is None else EXIT_INVARIANT
    if job.suite == "join-signs":
        survivors = _verify_join_signs()
        unique = survivors == [(1, -1)]
        payload = {
            "command": "verify",
            "suite": job.suite,
            "surviving_conventions": [list(s) for s in survivors],
            "result": "pass" if unique else "fail",
        }
        return payload, EXIT_OK if unique else EXIT_INVARIANT
    raise CliInputError(
        f"unknown suite {job.suite!r}; choose from {', '.join(VERIFY_SUITES)}"
    )


COMMANDS = {
    "homology": cmd_homology,
    "cobar": cmd_cobar,
    "cobar-ext": cmd_cobar_ext,
    "loop": cmd_loop,
    "steenrod": cmd_steenrod,
    "verify": cmd_verify,
}


# --- rendering ---

def _text_lines(payload) -> list[str]:
    lines = [f"command: {payload['command']}"]
    for key in ("model", "suite", "ring"):
        if payload.get(key) is not None:
            lines.append(f"{key}: {payload[key]}")
    window = payload.get("window")
    if window:
        inner = " ".join(f"{k}={v}" for k, v in sorted(window.items()))
        lines.append(f"window: {inner}")
    if "homology" in payload:
        for n in sorted(payload["homology"]):
            h = payload["homology"][n]
            if h is None:
                lines.append(f"H_{n}: inconclusive")
            else:
                label = payload.get("ring", "Z")
                lines.append(
                    f"H_{n}: {format_group(h['rank'], h['torsion'], label)}"
                )
    if "h0" in payload:
        h0 = payload["h0"]
        lines.append(f"H_0 rank: {h0['rank']}")
        lines.append(f"generators: {' '.join(h0['generators']) or '-'}")
        lines.append(f"relators: {len(h0['relators'])}")
        lines.append(f"inconclusive: {h0['inconclusive']}")
    if "images" in payload:
        lines.append(f"square: {payload['square']}")
        lines.append(f"degree: {payload['degree']}")
        for t, coords in enumerate(payload["images"]):
            lines.append(f"class {t}: [{' '.join(coords)}]")
        lines.append(f"nonzero: {payload['nonzero']}")
    if "cross_check" in payload:
        lines.append(f"cross-check: {payload['cross_check']}")
    if "result" in payload:
        lines.append(f"result: {payload['result']}")
        if payload.get("witness"):
            lines.append(f"witness: {payload['witness']}")
        if "surviving_conventions" in payload:
            text = " ".join(
                f"({a},{b})" for a, b in payload["surviving_conventions"]
            )
            lines.append(f"conventions: {text or '-'}")
    return lines


def render(payload, fmt: str) -> str:
    if fmt == "json":
        def keyed(obj):
            if isinstance(obj, dict):
                return {str(k): keyed(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [keyed(v) for v in obj]
            return obj

        return json.dumps(keyed(payload), sort_keys=True, indent=2)
    return "\n".join(_text_lines(payload))


# --- argument handling ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


# a parse keeps no state in the parser, so one serves every call in a
# process; building it costs more than most parses
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chaintop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each command registers only the flags it reads, so a flag that would
    # change nothing is bad input
    flags = {
        "--max-degree": {"type": int, "default": None, "dest": "max_degree"},
        "--word-cutoff": {"type": int, "default": None, "dest": "word_cutoff"},
        "--check": {"action": "store_true"},
    }

    def model_command(name, summary, *reads):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="builtin name or .json path")
        p.add_argument("dim", nargs="?", type=int, default=None)
        p.add_argument("--ring", default="z", help="z, q, or fp:<p>")
        for flag in reads:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    model_command("homology", "homology of normalized chains", "--max-degree", "--check")
    model_command("cobar", "loop homology from the word algebra", *flags)
    model_command("cobar-ext", "degree zero of the localized algebra", "--word-cutoff")
    model_command("loop", "loop homology from the cube model", *flags)
    steenrod = model_command("steenrod", "Steenrod square images")
    steenrod.add_argument("--square", type=int, default=1)
    steenrod.add_argument("--degree", type=int, default=None)
    verify = sub.add_parser("verify", help="named invariant suites")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def job_from_args(args) -> JobSpec:
    return JobSpec(
        command=args.command,
        model=getattr(args, "model", None),
        dim=getattr(args, "dim", None),
        ring=getattr(args, "ring", "z"),
        max_degree=getattr(args, "max_degree", None),
        word_cutoff=getattr(args, "word_cutoff", None),
        fmt=getattr(args, "format", "text"),
        check=getattr(args, "check", False),
        square=getattr(args, "square", 1),
        degree=getattr(args, "degree", None),
        suite=getattr(args, "suite", None),
    )


def run_job(job: JobSpec):
    try:
        return COMMANDS[job.command](job)
    except InsufficientTruncationError as exc:
        return {"command": job.command, "error": str(exc)}, EXIT_INCONCLUSIVE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        job = job_from_args(args)
        if job.word_cutoff is not None and job.word_cutoff < 1:
            raise CliInputError("--word-cutoff must be positive")
        if job.max_degree is not None and job.max_degree < 0:
            raise CliInputError("--max-degree must be nonnegative")
        if job.square < 0:
            raise CliInputError("--square must be nonnegative")
        if job.degree is not None and job.degree < 0:
            raise CliInputError("--degree must be nonnegative")
        payload, code = run_job(job)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if "error" in payload:
        print(f"error: {payload['error']}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    try:
        print(render(payload, job.fmt))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`); send what is still buffered
        # nowhere, so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
