"""Command line driver: outputs, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import chaintop

from chaintop.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PIPE,
    CliInputError,
    JobSpec,
    format_group,
    main,
    run_job,
)
from chaintop.loopspace import cubical_cobar, phi_certificate
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    random_reduced_model,
    simplicial_model,
    simplicial_to_json,
    sphere_model,
    wedge_models,
)

from shared_models import collapsed_simplex, relabeled_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_sphere_table(capsys):
    code, out, _ = run(capsys, "homology", "sphere", "2")
    assert code == EXIT_OK
    assert "H_0: Z" in out
    assert "H_1: 0" in out
    assert "H_2: Z" in out
    assert "ring: Z" in out


def test_homology_projective_plane_torsion(capsys):
    code, out, _ = run(capsys, "homology", "rp2", "--max-degree", "1")
    assert code == EXIT_OK
    assert "H_1: Z/2" in out


def test_homology_point(capsys):
    code, out, _ = run(capsys, "homology", "point")
    assert code == EXIT_OK
    assert out.strip().endswith("H_0: Z")


def test_cobar_sphere_all_degrees_infinite_cyclic(capsys):
    code, out, _ = run(capsys, "cobar", "sphere", "2")
    assert code == EXIT_OK
    for n in range(6):
        assert f"H_{n}: Z" in out


def test_cobar_ext_group_ring_rank(capsys):
    code, out, _ = run(capsys, "cobar-ext", "rp2", "--ring", "q")
    assert code == EXIT_OK
    assert "H_0 rank: 2" in out
    assert "inconclusive: False" in out


def test_cobar_ext_tight_window_is_inconclusive(capsys):
    code, out, _ = run(
        capsys, "cobar-ext", "rp2", "--ring", "q", "--word-cutoff", "1"
    )
    assert code == EXIT_INCONCLUSIVE
    assert "inconclusive: True" in out


def test_loop_matches_cobar_with_cross_check(capsys):
    code, loop_out, _ = run(capsys, "loop", "sphere", "2", "--check")
    assert code == EXIT_OK
    line = "cross-check: passed (1 letter, 1 letter pair; longer cells by construction)"
    assert loop_out.splitlines()[-1] == line
    _, cobar_out, _ = run(capsys, "cobar", "sphere", "2")
    loop_rows = [l for l in loop_out.splitlines() if l.startswith("H_")]
    cobar_rows = [l for l in cobar_out.splitlines() if l.startswith("H_")]
    assert loop_rows == cobar_rows


def test_loop_with_edges_uses_word_cutoff(capsys):
    code, out, _ = run(
        capsys, "loop", "rp2", "--max-degree", "1", "--word-cutoff", "2", "--check"
    )
    assert code == EXIT_OK
    assert "max_length=2" in out
    assert "cross-check: passed" in out


def test_steenrod_detects_projective_plane(capsys):
    code, out, _ = run(capsys, "steenrod", "rp2")
    assert code == EXIT_OK
    assert "nonzero: True" in out
    assert "class 0: [1]" in out


def test_verify_serre_coalgebra(capsys):
    code, out, _ = run(capsys, "verify", "serre-coalgebra")
    assert code == EXIT_OK
    assert "result: pass" in out


@pytest.mark.parametrize(
    "extra, witness",
    [
        # eps(0) = 1 leaves an extra I on the left, eps(I) = 0 hides it on the right
        ((("0",), ("I",)), "left counit fails on ('I',)"),
        ((("I",), ("0",)), "right counit fails on ('I',)"),
    ],
)
def test_verify_serre_coalgebra_names_the_failing_counit(capsys, monkeypatch, extra, witness):
    import chaintop.cli as cli

    real = cli.serre_coproduct

    def broken(word, ring):
        delta = real(word, ring)
        if word == ("I",):
            delta = delta + cli.FreeElement.single(ring, extra)
        return delta

    monkeypatch.setattr(cli, "serre_coproduct", broken)
    code, out, _ = run(capsys, "verify", "serre-coalgebra", "--format", "json")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["witness"] == witness


def test_verify_join_signs_unique_convention(capsys):
    code, out, _ = run(capsys, "verify", "join-signs")
    assert code == EXIT_OK
    assert "conventions: (1,-1)" in out


def test_unknown_model_is_an_input_error(capsys):
    code, _, err = run(capsys, "homology", "nosuch")
    assert code == EXIT_INPUT
    assert "nosuch" in err


def test_bad_ring_is_an_input_error(capsys):
    code, _, _ = run(capsys, "homology", "sphere", "2", "--ring", "fp:6")
    assert code == EXIT_INPUT


# the default ring of cobar-ext (q) and steenrod (fp:2) stands in only
# when no ring is given; an explicit z is refused like any other ring
# those commands cannot use
@pytest.mark.parametrize(
    "argv, message",
    [
        (["cobar-ext", "rp2"], "rank certification needs field coefficients"),
        (["steenrod", "rp2"], "squares act over fp:2"),
    ],
)
def test_an_explicit_integer_ring_is_not_replaced(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--ring", "z")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: {message}\n"
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert run_job(JobSpec(argv[0], argv[1]))[1] == EXIT_OK


def test_nonpositive_cutoff_is_an_input_error(capsys):
    code, _, _ = run(capsys, "cobar", "rp2", "--word-cutoff", "0")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("model", [["sphere", "2"], ["rp2"]])
def test_square_above_the_degree_is_an_input_error(capsys, model):
    code, out, err = run(capsys, "steenrod", *model, "--square", "3")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and "--square 3" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cobar", "rp2", "--max-degree", "-1"], "--max-degree must be nonnegative"),
        (["steenrod", "rp2", "--square", "-3", "--degree", "-1"], "--square must be nonnegative"),
        (["steenrod", "rp2", "--square", "-1"], "--square must be nonnegative"),
        (["steenrod", "rp2", "--degree", "-1"], "--degree must be nonnegative"),
    ],
)
def test_negative_degree_or_square_is_an_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: {message}\n"


# each command takes only the flags it reads; these six used to parse and
# change nothing
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["homology", "sphere", "2"], ["--word-cutoff", "2"]),
        (["cobar-ext", "rp2"], ["--max-degree", "2"]),
        (["cobar-ext", "rp2"], ["--check"]),
        (["steenrod", "rp2"], ["--max-degree", "2"]),
        (["steenrod", "rp2"], ["--word-cutoff", "2"]),
        (["steenrod", "rp2"], ["--check"]),
    ],
)
def test_flag_the_command_does_not_read_is_an_input_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv, *flag)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK


# each printed the table of the model without the number and exited 0
@pytest.mark.parametrize("model", ["circle", "rp2", "point", "json"])
def test_dimension_the_model_does_not_take_is_an_input_error(tmp_path, capsys, model):
    message = f"{model} model takes no dimension"
    if model == "json":
        model = str(tmp_path / "s2.json")
        Path(model).write_text(json.dumps(simplicial_to_json(sphere_model(2))))
        message = f"{model} is a JSON model and takes no dimension"
    code, out, err = run(capsys, "homology", model, "4")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: {message}\n"
    code, _, _ = run(capsys, "homology", model)
    assert code == EXIT_OK


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "homology", "no/such/file.json")
    assert code == EXIT_INPUT
    assert "file.json" in err


def test_bad_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{не json")
    code, _, _ = run(capsys, "homology", str(path))
    assert code == EXIT_INPUT
    path.write_text('{"cells": 3}')
    code, _, _ = run(capsys, "homology", str(path))
    assert code == EXIT_INPUT


# a list or null used to end in a TypeError traceback, and 1.5 and true
# were read as the index 1
@pytest.mark.parametrize("letter", [[0], None, 1.5, True, "1"])
def test_degeneracy_word_of_non_integers_is_an_input_error(tmp_path, capsys, letter):
    data = simplicial_to_json(sphere_model(3))
    data["faces"]["s"][0][1][0] = letter
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "cobar", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: bad face of 's': degeneracy word must hold integers")


# each was read as the dimension 2, so the model loaded and printed a table
@pytest.mark.parametrize("key", ["0_2", "02", "+2", " 2", "\uff12"])
def test_dimension_key_that_is_not_canonical_is_an_input_error(tmp_path, capsys, key):
    data = simplicial_to_json(sphere_model(2))
    data["cells"][key] = data["cells"].pop("2")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "cobar", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: bad dimension key {key!r}")


def test_json_file_input_round_trips(tmp_path, capsys):
    path = tmp_path / "sphere2.json"
    path.write_text(json.dumps(simplicial_to_json(sphere_model(2))))
    code, out, _ = run(capsys, "homology", str(path))
    assert code == EXIT_OK
    assert "H_2: Z" in out


def test_json_format_embeds_ring_and_window(capsys):
    code, out, _ = run(
        capsys, "cobar", "sphere", "2", "--format", "json", "--max-degree", "3"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ring"] == "Z"
    assert data["window"] == {"max_degree": 4, "max_length": None}
    assert data["homology"]["3"] == {"rank": 1, "torsion": []}


def test_a_reader_that_closes_the_pipe_early_gets_a_quiet_exit():
    # the read end is closed before the child has started, so its first
    # write to stdout meets a closed pipe
    package_root = str(Path(chaintop.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    child = subprocess.Popen(
        [sys.executable, "-m", "chaintop.cli", "homology", "sphere", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
    )
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == EXIT_PIPE == 141
    assert stderr == b""


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "homology", "rp2", "--format", "json")
        outputs.add(out)
        _, out, _ = run(capsys, "steenrod", "rp2", "--format", "json")
        outputs.add(out)
    assert len(outputs) == 2


HASH_SEED_CHILD = """\
import sys
from chaintop.cli import main
from chaintop.cobar import ExtendedCobarComplex, cobar
from chaintop.loopspace import CubicalCobar
from chaintop.simplicial import projective_plane_model

codes = [
    main(argv.split())
    for argv in (
        "cobar rp2 --max-degree 2 --word-cutoff 2 --format json",
        "cobar-ext rp2 --word-cutoff 3 --format json",
        "loop sphere 2 --max-degree 3 --check --format json",
        f"cobar {sys.argv[1]} --max-degree 3 --format json",
        f"loop {sys.argv[1]} --max-degree 2 --check --format json",
    )
]
print(codes)
rp2 = projective_plane_model()
for bases in (
    cobar(rp2, 2, max_length=2).complex.basis_in,
    ExtendedCobarComplex(rp2, 2, 3).complex.basis_in,
    CubicalCobar(rp2, 2, max_length=2).cubes.nondegenerate,
    CubicalCobar(rp2, 2, cutoff=3).cubes.nondegenerate,
):
    print([bases(n) for n in range(3)])
"""


def shuffled_collapsible_model(tmp_path) -> Path:
    """Delta^4 over its 1-skeleton, renamed and reordered, as a JSON file:
    free face pairs collapse it from 10 + 5 + 1 cells to 6 two-cells."""
    model = tmp_path / "d4c1.json"
    model.write_text(json.dumps(relabeled_json(collapsed_simplex(4, 1), 7)))
    return model


def test_output_and_bases_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashes change with PYTHONHASHSEED, so any basis order or
    # output built from set or dict-of-set iteration would differ here,
    # and so would the pairs collapsed if they were picked that way
    model = shuffled_collapsible_model(tmp_path)
    package_root = str(Path(chaintop.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    runs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_CHILD, str(model)],
            capture_output=True,
            text=True,
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, paths)),
                PYTHONHASHSEED=seed,
            ),
            timeout=120,
        )
        for seed in ("0", "1")
    ]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert "\n[3, 0, 0, 0, 0]\n" in runs[0].stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_collapsed_model_prints_the_unreduced_table(tmp_path, capsys, fmt):
    # cobar and loop compute on the collapsed model; the report must be
    # the one the library gives on the model as it was read
    from chaintop.cli import render
    from chaintop.cobar import cobar
    from chaintop.simplicial import simplicial_from_json
    from chaintop.smith import homology_table

    model = shuffled_collapsible_model(tmp_path)
    space = simplicial_from_json(json.loads(model.read_text()))
    top = 2
    for flag, ring in (("z", ZZ), ("fp:2", GF(2)), ("q", QQ)):
        table = homology_table(cobar(space, top + 1, ring).complex, range(top + 1))
        payload = {
            "model": space.name,
            "ring": ring.name,
            "window": {"max_degree": top + 1, "max_length": None},
            "homology": {
                n: {"rank": h.free_rank, "torsion": list(h.invariant_factors)}
                for n, h in table.items()
            },
            "inconclusive": [],
        }
        argv = [str(model), "--max-degree", str(top), "--ring", flag, "--format", fmt]
        for command, extra, check in (
            ("cobar", {}, []),
            (
                "loop",
                {"cross_check": "passed", "certified": {"letters": 6, "letter_pairs": 36}},
                ["--check"],
            ),
        ):
            expected = render(dict(payload, command=command, **extra), fmt) + "\n"
            code, out, _ = run(capsys, command, *argv, *check)
            assert (code, out) == (EXIT_OK, expected), (command, ring)


@pytest.mark.parametrize("k", [3, 5])
def test_sphere_loop_homology_is_certified_at_every_max_degree(capsys, k):
    # T(x_{k-1}) has no words in degrees that k - 1 does not divide, and
    # an uncapped window stores those degrees in full, empty as they are
    for top in range(1, 9):
        rows = [f"H_{n}: {'Z' if n % (k - 1) == 0 else '0'}" for n in range(top + 1)]
        for argv in (["cobar"], ["loop", "--check"]):
            code, out, _ = run(capsys, argv[0], "sphere", str(k), "--max-degree", str(top), *argv[1:])
            assert code == EXIT_OK, (argv, top, out)
            assert [line for line in out.splitlines() if line.startswith("H_")] == rows


# RP^2 windows that a word-length cap cuts: their rows depend on the
# cutoff, so counting an empty top degree as stored must certify none of
# them, and every row prints as it did.
RP2_CUT_WINDOWS = [
    (
        "cobar rp2 --max-degree 2 --word-cutoff 2",
        ["window: max_degree=3 max_length=2", "H_0: Z + Z/4", "H_1: Z/2", "H_2: inconclusive"],
        EXIT_INCONCLUSIVE,
    ),
    (
        "cobar rp2 --max-degree 2 --word-cutoff 4",
        ["window: max_degree=3 max_length=4", "H_0: Z + Z/16", "H_1: Z/4 + Z/8", "H_2: Z/2 + Z/2 + Z/2"],
        EXIT_OK,
    ),
    (
        "loop rp2 --max-degree 1 --word-cutoff 3 --check",
        [
            "window: max_degree=2 max_length=3",
            "H_0: Z^8",
            "H_1: Z^16",
            "cross-check: passed (4 letters, 16 letter pairs; longer cells by construction)",
        ],
        EXIT_OK,
    ),
    (
        "loop rp2 --word-cutoff 2 --check",
        [
            "window: max_degree=6 max_length=2",
            "H_0: Z^11",
            "H_1: Z^78",
            "H_2: Z^77",
            "H_3: Z^9",
            "H_4: inconclusive",
            "H_5: inconclusive",
            "cross-check: passed (4 letters, 16 letter pairs; longer cells by construction)",
        ],
        EXIT_INCONCLUSIVE,
    ),
    (
        "loop rp2 --word-cutoff 3 --check",
        [
            "window: max_degree=6 max_length=3",
            "H_0: Z^12",
            "H_1: Z^113",
            "H_2: Z^177",
            "H_3: Z^44",
            "H_4: inconclusive",
            "H_5: inconclusive",
            "cross-check: passed (4 letters, 16 letter pairs; longer cells by construction)",
        ],
        EXIT_INCONCLUSIVE,
    ),
]


@pytest.mark.parametrize("argv, rows, exit_code", RP2_CUT_WINDOWS, ids=[a for a, _, _ in RP2_CUT_WINDOWS])
def test_length_capped_windows_print_what_they_printed(capsys, argv, rows, exit_code):
    code, out, _ = run(capsys, *argv.split())
    command = argv.split()[0]
    assert out == "\n".join([f"command: {command}", "model: rp2", "ring: Z", *rows]) + "\n"
    assert code == exit_code


def test_unknown_suite_raises_at_job_level():
    with pytest.raises(CliInputError):
        run_job(JobSpec(command="verify", suite="nope"))


def test_format_group_rendering():
    assert format_group(0, []) == "0"
    assert format_group(1, []) == "Z"
    assert format_group(2, [2, 4]) == "Z^2 + Z/2 + Z/4"
    assert format_group(3, [], "F2") == "F2^3"


def test_homology_field_labels(capsys):
    code, out, _ = run(capsys, "homology", "rp2", "--ring", "fp:2")
    assert code == EXIT_OK
    assert "H_0: F2" in out
    assert "H_1: F2" in out
    assert "H_2: F2" in out


def test_wide_cobar_window_fits_in_one_gib(tmp_path):
    # every differential of the cobar on S2 v S2 v S3 is zero and C_11 has
    # 13860 words; a dense d_11 alone would need far more than the cap
    wedge = wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
    model = tmp_path / "s2s2s3.json"
    model.write_text(json.dumps(simplicial_to_json(wedge)))
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chaintop.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    package_root = str(Path(chaintop.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["cobar", str(model), "--max-degree", "10", "--ring", "z", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    table = json.loads(proc.stdout)["homology"]
    # ranks are the coefficients of 1 / (1 - 2t - t^2)
    expected = [1, 2]
    while len(expected) < 11:
        expected.append(2 * expected[-1] + expected[-2])
    assert [table[str(n)] for n in range(11)] == [{"rank": r, "torsion": []} for r in expected]


def test_loop_check_builds_the_cube_model_once(capsys, monkeypatch):
    from chaintop import loopspace

    calls = []
    real = loopspace.CubicalCobar.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(loopspace.CubicalCobar, "__init__", counted)
    code, out, _ = run(capsys, "loop", "rp2", "--word-cutoff", "2", "--check")
    assert "cross-check: passed" in out
    assert code == EXIT_INCONCLUSIVE
    assert len(calls) == 1


def test_loop_check_builds_each_cube_differential_once(capsys, monkeypatch):
    # the homology table and the chain-map check both read every d_n of
    # the cube chains; the cube boundary rule must run once per cell
    from chaintop import loopspace
    from chaintop.complexes import ChainComplex

    built = []
    calls = Counter()
    real = loopspace.cubical_chains

    def counted_chains(*args, **kwargs):
        chains = real(*args, **kwargs)
        rule = chains._diff_rule

        def counted_rule(key):
            calls[key] += 1
            return rule(key)

        chains._diff_rule = counted_rule
        built.append((chains, rule))
        return chains

    monkeypatch.setattr(loopspace, "cubical_chains", counted_chains)
    code, out, _ = run(capsys, "loop", "rp2", "--word-cutoff", "2", "--check")
    assert "cross-check: passed" in out
    assert code == EXIT_INCONCLUSIVE
    ((chains, rule),) = built
    cells = [key for n in chains.degrees() for key in chains.basis_in(n)]
    assert set(calls) == set(cells)
    assert set(calls.values()) == {1}
    # the kept columns are shared by both reads; neither changed them
    fresh = ChainComplex(chains.ring, chains.basis, rule)
    for n in chains.degrees():
        assert chains.diff_columns(n) == fresh.diff_columns(n)


def test_loop_check_evaluates_each_word_boundary_and_phi_image_once(capsys, monkeypatch):
    # the certificate reads d of the comparison cobar and phi of every
    # letter for its chain-map check, and phi of the sampled cells for
    # its product check; each must be evaluated at most once per key
    from chaintop import loopspace
    from chaintop.cobar import CobarComplex

    algebras = []
    boundary_calls = Counter()
    phi_calls = Counter()

    class CountedCobar(CobarComplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            algebras.append(self)

        def _word_boundary(self, word):
            boundary_calls[word] += 1
            return super()._word_boundary(word)

    real_phi = loopspace.phi_cell

    def counted_phi(space, cell, ring):
        phi_calls[cell] += 1
        return real_phi(space, cell, ring)

    omegas = []
    real_cubes = chaintop.cli.cubical_cobar

    def kept_cubes(*args, **kwargs):
        omegas.append(real_cubes(*args, **kwargs))
        return omegas[-1]

    monkeypatch.setattr(loopspace, "CobarComplex", CountedCobar)
    monkeypatch.setattr(loopspace, "phi_cell", counted_phi)
    monkeypatch.setattr(chaintop.cli, "cubical_cobar", kept_cubes)
    code, out, _ = run(capsys, "loop", "rp2", "--word-cutoff", "2", "--check")
    assert "cross-check: passed" in out
    assert code == EXIT_INCONCLUSIVE
    (algebra,) = algebras
    words = algebra.complex
    assert boundary_calls
    assert set(boundary_calls) <= {w for n in words.degrees() for w in words.basis_in(n)}
    assert max(boundary_calls.values()) == 1
    (omega,) = omegas
    cells = {c for n in omega.cubes.dimensions() for c in omega.cubes.nondegenerate(n)}
    assert set(phi_calls) <= cells
    assert {c for c in cells if len(c) == 1} <= set(phi_calls)
    assert max(phi_calls.values()) == 1


def test_homology_table_eliminates_each_differential_once(tmp_path, capsys, monkeypatch):
    # the simplex on 6 vertices with its 2-skeleton collapsed to a point
    from chaintop import smith
    from chaintop.simplicial import collapse_subcomplex, standard_simplex

    simplex = standard_simplex(5)
    skeleton = [c for m in range(3) for c in simplex.nondegenerate(m)]
    model = tmp_path / "d5c2.json"
    model.write_text(json.dumps(simplicial_to_json(collapse_subcomplex(simplex, skeleton).target)))
    calls = []
    real = smith.eliminate

    def counted(columns, ring):
        calls.append(len(columns))
        return real(columns, ring)

    monkeypatch.setattr(smith, "eliminate", counted)
    code, out, _ = run(capsys, "cobar", str(model), "--max-degree", "4", "--ring", "z")
    assert code == EXIT_OK
    # H_0..H_4 read d_0..d_5: six matrices, each eliminated once
    assert len(calls) == 6
    assert out.splitlines()[-5:] == ["H_0: Z", "H_1: 0", "H_2: Z^10", "H_3: 0", "H_4: Z^100"]


@pytest.mark.parametrize("model", ["sphere", "s2s2s3", "moving"])
def test_loop_check_eliminates_each_differential_once(tmp_path, capsys, monkeypatch, model):
    # the certificate proves phi a chain isomorphism of the cube chains
    # and the cobar of the same window, so `loop --check` computes one
    # homology table and not a second one on that cobar
    from chaintop import smith

    if model == "sphere":
        argv = ["sphere", "2"]
    else:
        if model == "s2s2s3":
            space = wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
        else:
            space = random_reduced_model(random.Random(5), max_dim=4)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(simplicial_to_json(space)))
        argv = [str(path)]
    calls = []
    real = smith.eliminate

    def counted(columns, ring):
        calls.append(len(columns))
        return real(columns, ring)

    monkeypatch.setattr(smith, "eliminate", counted)
    code, out, _ = run(capsys, "loop", *argv, "--check")
    assert code == EXIT_OK
    assert "cross-check: passed" in out
    # H_0..H_5 read d_0..d_6: seven matrices, each eliminated once
    assert len(calls) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["cobar", "d5c2", "--max-degree", "4", "--ring", "z", "--check"],
        ["homology", "d5c2", "--ring", "z", "--check"],
        ["cobar", "moving", "--max-degree", "4", "--ring", "z", "--check"],
    ],
)
def test_check_builds_each_differential_once(tmp_path, capsys, monkeypatch, argv):
    # the homology table and the d^2 check both read every d_n; the
    # boundary rule must run once per basis key. d5c2, the simplex on 6
    # vertices with its 2-skeleton collapsed, is a wedge of 3-spheres:
    # every letter of its cobar is a cycle, so the cobar is the zero
    # complex and has no rule to run. The seeded model keeps a letter
    # that is not a cycle.
    from chaintop.complexes import ChainComplex

    command, model = argv[:2]
    reads_rule = (command, model) != ("cobar", "d5c2")
    if model == "d5c2":
        space = collapsed_simplex(5, 2)
    else:
        space = random_reduced_model(random.Random(5), max_dim=4)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(simplicial_to_json(space)))
    built = []
    calls = Counter()
    real = ChainComplex.__init__

    def counted_init(self, ring, basis, diff, *args, **kwargs):
        def counted_rule(key):
            calls[key] += 1
            return diff(key)

        real(self, ring, basis, None if diff is None else counted_rule, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ChainComplex, "__init__", counted_init)
    code, _, _ = run(capsys, command, str(path), *argv[2:])
    assert code == EXIT_OK
    (complex_,) = built
    keys = [key for n in complex_.degrees() for key in complex_.basis_in(n)]
    assert (complex_._diff_rule is not None) == reads_rule
    assert set(calls) == (set(keys) if reads_rule else set())
    assert set(calls.values()) <= {1}


def count_window_indexes(monkeypatch) -> list:
    """Patch `Window.degree_of` to append each window that builds its
    {key: degree} dict to the list returned, then build it as before.

    A plain word window never gets here: `words.plain_words` gives it
    an index that answers by the cap rule and builds no dict."""
    from chaintop.complexes import Window

    real = Window.__dict__["degree_of"].func
    built = []

    def counted(window):
        built.append(window)
        return real(window)

    counted_property = cached_property(counted)
    counted_property.__set_name__(Window, "degree_of")
    monkeypatch.setattr(Window, "degree_of", counted_property)
    return built


def count_words_built(monkeypatch) -> list:
    """Patch the plain word builder to append each word it builds to the
    list returned."""
    from chaintop import words

    real = words._prepend
    built = []

    def counted(pairs, bucket):
        grown = real(pairs, bucket)
        built.extend(grown)
        return grown

    monkeypatch.setattr(words, "_prepend", counted)
    return built


def test_cobar_on_a_wedge_of_spheres_indexes_no_word(tmp_path, capsys, monkeypatch):
    # the cobar of a wedge of spheres is the zero complex: its homology
    # table and its d^2 check read ranks only, so no word is built, let
    # alone looked up by its degree
    s2s2s3 = wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
    paths = {}
    for name, space in (
        ("s2s2s3", s2s2s3),
        ("d5c2", collapsed_simplex(5, 2)),
        ("d4c1", collapsed_simplex(4, 1)),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(simplicial_to_json(space)))
    indexed = count_window_indexes(monkeypatch)
    words = count_words_built(monkeypatch)
    jobs = [
        ("cobar", "s2s2s3", "--max-degree", "7", "--ring", ring, *check)
        for ring in ("z", "fp:2")
        for check in ((), ("--check",))
    ]
    jobs += [("cobar", "d5c2", "--check"), ("cobar", "d5c2")]
    jobs += [("cobar", "d4c1", "--check"), ("cobar", "d4c1")]
    # nor does the cube model on the same window, whose chains are the
    # zero complex too, nor its certificate, whose lookups go by the cap
    # rule
    jobs += [
        ("loop", "s2s2s3", "--max-degree", top, "--ring", ring, *check)
        for top, ring, check in (("7", "z", ()), ("7", "fp:2", ()), ("3", "z", ("--check",)))
    ]
    for command, model, *argv in jobs:
        code, out, _ = run(capsys, command, str(paths[model]), *argv, "--format", "json")
        assert code == EXIT_OK, (command, model, argv)
        if model == "s2s2s3" and "7" in argv:
            assert json.loads(out)["homology"]["7"] == {"rank": 408, "torsion": []}
        assert (indexed, words) == ([], []), (command, model, argv)
    # the probe sees words where a command reads them: the columns of the
    # cube model of RP2 list its words, once, and still index none
    argv = ("loop", "rp2", "--word-cutoff", "2", "--max-degree", "2", "--check")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_INCONCLUSIVE and "cross-check: passed" in out
    omega = cubical_cobar(simplicial_model("rp2"), 3, max_length=2)
    sizes = omega.words.complex.window.sizes
    assert indexed == [] and len(words) == sum(sizes.values()) - 1


def test_loop_check_shares_one_window_and_indexes_no_word(capsys, monkeypatch):
    # the cobar, the cube set and the cube chains share one window, whose
    # lookups go by its cap rule, so the certificate indexes no word
    from chaintop import cli

    omegas = []

    def kept(*args, real=cli.cubical_cobar, **kwargs):
        omegas.append(real(*args, **kwargs))
        return omegas[-1]

    monkeypatch.setattr(cli, "cubical_cobar", kept)
    built = count_window_indexes(monkeypatch)
    code, out, _ = run(capsys, "loop", "sphere", "2", "--check")
    assert code == EXIT_OK
    assert "passed" in out
    (omega,) = omegas
    window = omega.words.complex.window
    assert built == []
    assert omega.chains().window is window
    assert omega.cubes.window is window


@pytest.mark.parametrize(
    "model, max_degree, max_length, degrees, letters, pairs",
    [
        ("rp2", 4, 2, {0: 127, 1: 258, 2: 124, 3: 8}, 4, 16),
        ("rp2", 2, 3, {0: 63, 1: 98, 2: 28}, 4, 16),
        ("s2s2s3", 6, None, {0: 1, 1: 2, 2: 5, 3: 12, 4: 29, 5: 70, 6: 169}, 3, 9),
    ],
)
def test_phi_certificate_builds_no_word(
    monkeypatch, model, max_degree, max_length, degrees, letters, pairs
):
    # the certificate of the benchmark windows reads its letters, its
    # letter pairs and sizes only, and its lookups go by the cap rule:
    # no word is built, let alone indexed
    if model == "rp2":
        space = simplicial_model("rp2")
    else:
        space = wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
    indexed = count_window_indexes(monkeypatch)
    words = count_words_built(monkeypatch)
    expected = {"cells": sum(degrees.values()), "degrees": degrees}
    expected.update(letters=letters, pairs=pairs)
    assert phi_certificate(space, max_degree, max_length) == expected
    assert (indexed, words) == ([], [])


def test_parser_is_built_once_and_survives_a_failed_parse(capsys):
    from chaintop import cli

    good = ["cobar-ext", "rp2", "--word-cutoff", "2", "--ring", "q"]
    package_root = str(Path(chaintop.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    fresh = subprocess.run(
        [sys.executable, "-m", "chaintop.cli", *good],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    cli.build_parser.cache_clear()
    code, _, err = run(capsys, "cobar-ext", "rp2", "--word-cutoff", "two")
    assert code == EXIT_INPUT and "invalid int value" in err
    code, out, _ = run(capsys, *good)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert code == EXIT_OK
    assert cli.build_parser.cache_info().misses == 1
