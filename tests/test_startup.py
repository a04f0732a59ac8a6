"""Start-up of the command line interface: what importing it loads, and the
job record that replaced a frozen dataclass."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaintop
from chaintop.cli import EXIT_OK, JobSpec, main

# dataclasses (with inspect, ast, dis and tokenize under it), copy (with
# weakref) and the E-infinity layer cost milliseconds at every start; only
# steenrod needs einfty and propm, and no command needs the rest
NOT_AT_START = (
    "dataclasses",
    "inspect",
    "ast",
    "copy",
    "chaintop.einfty",
    "chaintop.propm",
)


def test_importing_the_cli_loads_no_unneeded_module():
    package_root = str(Path(chaintop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    child = (
        "import sys\n"
        "import chaintop.cli\n"
        f"print(' '.join(m for m in {NOT_AT_START!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_steenrod_imports_its_layer_on_demand(capsys):
    assert main(["steenrod", "rp2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "command: steenrod\n"
        "model: rp2\n"
        "ring: F2\n"
        "square: 1\n"
        "degree: 2\n"
        "class 0: [1]\n"
        "nonzero: True\n"
    )


DEFAULTS = {
    "model": None,
    "dim": None,
    "ring": None,
    "max_degree": None,
    "word_cutoff": None,
    "fmt": "text",
    "check": False,
    "square": 1,
    "degree": None,
    "suite": None,
}


def test_job_spec_defaults_and_construction():
    job = JobSpec("cobar")
    assert job.command == "cobar"
    assert {name: getattr(job, name) for name in DEFAULTS} == DEFAULTS
    assert JobSpec("cobar", "rp2", None, "q") == JobSpec(
        command="cobar", model="rp2", ring="q"
    )
    full = JobSpec("steenrod", "sphere", 2, "fp:2", 4, 3, "json", True, 2, 2, "x")
    assert full == JobSpec(
        command="steenrod",
        model="sphere",
        dim=2,
        ring="fp:2",
        max_degree=4,
        word_cutoff=3,
        fmt="json",
        check=True,
        square=2,
        degree=2,
        suite="x",
    )
    assert repr(JobSpec("verify", suite="join-signs")) == (
        "JobSpec(command='verify', model=None, dim=None, ring=None, "
        "max_degree=None, word_cutoff=None, fmt='text', check=False, "
        "square=1, degree=None, suite='join-signs')"
    )
    with pytest.raises(TypeError):
        JobSpec()
    with pytest.raises(TypeError):
        JobSpec("cobar", format="json")


def test_job_spec_is_immutable_and_compared_by_value():
    job = JobSpec("loop", "rp2", word_cutoff=2, check=True)
    with pytest.raises(AttributeError):
        job.ring = "q"
    with pytest.raises(AttributeError):
        job.extra = 1
    same = JobSpec(command="loop", model="rp2", word_cutoff=2, check=True)
    assert job == same and hash(job) == hash(same)
    assert len({job, same, JobSpec("loop", "rp2")}) == 2
    assert job != JobSpec("loop", "rp2", word_cutoff=3, check=True)
