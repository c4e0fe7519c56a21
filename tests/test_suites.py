"""The suite shell: pass rule, name checks, and the names the suites bind."""

import inspect
import math

import pytest

import dunkl_lab.suites as suites_mod
from dunkl_lab.cli import main
from dunkl_lab.cm import SideBySide
from dunkl_lab.errors import ConfigError
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
