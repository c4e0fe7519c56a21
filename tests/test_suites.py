"""The suite shell: pass rule, name checks, the names the suites bind, and
the worker processes that run them.

A suite that runs in a forked worker cannot change the test process's
state, so the suite stand-ins below report only through results and errors.
"""

import dataclasses
import functools
import inspect
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import dunkl_lab.suites as suites_mod
from dunkl_lab.cli import main
from dunkl_lab.cm import SideBySide
from dunkl_lab.errors import ConfigError, HyperplaneError
from dunkl_lab.rootsys import (
    build_root_system, discriminant, make_system_from_vectors, reflect, sample_generic_point, weight,
)
from dunkl_lab.suites import SUITES, run_suites, suite_theorem1


def _one_nan_sample(monkeypatch):
    real = suites_mod.theorem1_sides
    calls = []

    def sides(*args):
        calls.append(None)
        side = real(*args)
        return SideBySide(lhs=math.nan, rhs=side.rhs) if len(calls) == 10 else side

    monkeypatch.setattr(suites_mod, "theorem1_sides", sides)


def test_nan_residual_fails_its_suite(monkeypatch, tmp_path, capsys):
    _one_nan_sample(monkeypatch)
    res = suite_theorem1(seed=0)
    assert res.passed is False
    assert math.isnan(res.max_residual)
    _one_nan_sample(monkeypatch)
    assert main(["verify", "theorem1"]) == 2
    assert "FAIL theorem1" in capsys.readouterr().out
    # with --out the JSON writer refuses the NaN before the verdict
    _one_nan_sample(monkeypatch)
    assert main(["verify", "theorem1", "--out", str(tmp_path / "r.json")]) == 1
    assert "non-finite" in capsys.readouterr().err


def _loop_alternation_gap(system, points):
    # the reference: a_R and w_k at each reflected point, in Fractions
    bad = Fraction(0)
    for pt in points:
        base = discriminant(system, pt)
        wbase = weight(system, pt)
        for idx in system.positive:
            spt = reflect(system.roots[idx], pt)
            bad = max(bad, abs(discriminant(system, spt) + base))
            bad = max(bad, abs(weight(system, spt) - wbase))
    return bad


# not closed, so a_R does not alternate and w_k is not invariant; the third
# root pair has c = 2, and its reflections leave the lattice of x
_BROKEN = make_system_from_vectors(
    [(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1),
     (Fraction(1, 2), 0, Fraction(-3, 2)), (Fraction(-1, 2), 0, Fraction(3, 2))],
    [1, 1, 2, 2, 1, 1],
)


def test_lemma1_lattice_gap_matches_the_fraction_loop(monkeypatch):
    for family, rank, mults in suites_mod._ALTERNATION_FAMILIES:
        system = build_root_system(family, rank, mults)
        points = [sample_generic_point(system, seed=j) for j in range(20)]
        assert suites_mod._alternation_gap(system, points) == 0 == _loop_alternation_gap(system, points)
    # the suite's own points at seed 0
    points = [sample_generic_point(_BROKEN, seed=j) for j in range(100)]
    gap = suites_mod._alternation_gap(_BROKEN, points)
    assert type(gap) is Fraction and gap != 0
    assert gap == _loop_alternation_gap(_BROKEN, points)
    monkeypatch.setattr(suites_mod, "_ALTERNATION_FAMILIES", (("custom", 3, (1, 2)),))
    monkeypatch.setattr(suites_mod, "build_root_system", lambda *args: _BROKEN)
    result = suites_mod.suite_lemma1(seed=0)
    assert not result.passed
    assert [r.max_abs_residual for r in result.reports] == [float(gap)]


def test_unknown_suite_stops_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "oscillator", lambda seed: ran.append(seed))
    with pytest.raises(ConfigError, match="nonesuch.*known: lemma1"):
        run_suites(["oscillator", "nonesuch"])
    assert ran == []


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_is_bound_under_its_own_name_with_only_a_seed(name):
    # the benchmark tracer patches each suite as dunkl_lab.suites.<fn.__name__>
    fn = SUITES[name]
    assert getattr(suites_mod, fn.__name__) is fn
    assert list(inspect.signature(fn).parameters) == ["seed"]


@pytest.mark.needs_fork
def test_results_and_output_bytes_do_not_depend_on_cpu_count(monkeypatch, set_cpus, tmp_path,
                                                             capsys):
    import dunkl_lab.cli as cli

    runs = []

    @functools.wraps(run_suites)
    def recorded(*args, **kwargs):
        runs.append(run_suites(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_suites", recorded)
    # four CPUs forks four workers on any machine; one CPU runs every suite here
    for cpus in (4, 1):
        set_cpus(cpus)
        out = tmp_path / f"verify-{cpus}.json"
        assert main(["verify", "--seed", "0", "--out", str(out)]) == 0
    assert (tmp_path / "verify-4.json").read_bytes() == (tmp_path / "verify-1.json").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(SUITES) and all(line.startswith("PASS ") for line in lines)
    pooled, serial = ([dataclasses.replace(r, elapsed=0.0) for r in run] for run in runs)
    assert [r.name for r in pooled] == list(SUITES)
    assert pooled == serial


@pytest.mark.needs_fork
def test_earliest_failing_suite_is_reraised_from_the_workers(monkeypatch, set_cpus, capsys):
    def slow_failure(seed=0):
        time.sleep(0.3)
        raise HyperplaneError("first in order")

    def fast_failure(seed=0):
        raise HyperplaneError("second in order")

    set_cpus(4)
    monkeypatch.setitem(SUITES, "oscillator", slow_failure)
    monkeypatch.setitem(SUITES, "unconfined", fast_failure)
    names = ["oscillator", "unconfined", "corollary1"]
    with pytest.raises(HyperplaneError, match="^first in order$"):
        run_suites(names)
    assert main(["verify", *names]) == 1
    assert capsys.readouterr().err == "error: first in order\n"


@pytest.mark.needs_fork
def test_worker_that_dies_raises_instead_of_waiting():
    # in a child interpreter, so that a pool that waited for the lost suite
    # forever would fail on the timeout instead of holding up the tests
    code = (
        "import os, sys\n"
        "from dunkl_lab.suites import SUITES, run_suites\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "SUITES['unconfined'] = lambda seed=0: os._exit(3)\n"
        "try:\n"
        "    run_suites(['oscillator', 'unconfined'])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    src = os.path.dirname(os.path.dirname(suites_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (out.returncode, out.stdout) == (0, "BrokenProcessPool\n"), out.stderr
