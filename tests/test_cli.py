"""Command line behavior: exit codes, config merging, deterministic output."""

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import jsonschema
import pytest

import dunkl_lab.cli as cli_mod
import dunkl_lab.sde as sde_mod
import dunkl_lab.suites as suites_mod
from dunkl_lab.cli import _write_or_print, main
from dunkl_lab.errors import ConfigError
from dunkl_lab.sde import SimConfig
from dunkl_lab.suites import SuiteResult

SIM_ARGS = [
    "simulate",
    "--family", "B", "--rank", "2", "--mults", "1,1/2",
    "--x0", "0.6,1.7", "--horizon", "0.25", "--ensemble", "8", "--seed", "1",
]


def test_verify_subset_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "oscillator", "--out", str(out)]) == 0
    assert "PASS oscillator" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["results"][0]["passed"] is True
    assert payload["results"][0]["name"] == "oscillator"


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ["verify", "lemma1", "--seed", "0"],
            "8926a0d1010aa31dc35c1ace2fd54a240a8dc45e77ad338f193f9fa645bd5619",
        ),
        (
            ["verify", "lemma2", "--seed", "0"],
            "9a9c3ffbbc8efb6e1ca559ffbccfa77447cc124a679d32a7903bc56f110311d4",
        ),
        (
            ["verify", "transformed-hamiltonian", "--seed", "0"],
            "8d384822d2591249b079ee5db92d43069aedf0042a1a6fa47f96eefb5ef7e7a5",
        ),
        (
            ["verify", "unconfined", "--seed", "0"],
            "06d0cb47a9807629e1bc8e5d8f8d3a89c953233cd787bf31b8aeb1dcc33b5ea7",
        ),
    ],
    ids=["lemma1", "lemma2", "transformed-hamiltonian", "unconfined"],
)
def test_verify_exact_suites_golden_digest(args, expected, tmp_path, capsys):
    # sha256 of the --out bytes of suites whose float work is + - * / and
    # integer powers, so the digest pins every exact value and float bit
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ["simulate", "--family", "B", "--rank", "2", "--mults", "1,1/2",
             "--x0", "0.6,1.7", "--horizon", "0.25", "--obs", "0.1",
             "--ensemble", "200", "--seed", "1", "--jumps"],
            "9835eb93eef84ad86c258c6f67dcbb45c9e3125d9cd5a0ee9c852b25007630ec",
        ),
        (
            ["freeze", "--n", "3", "--k", "100,10000", "--paths", "20",
             "--seed", "1", "--no-ode"],
            "3536cedf06ec87810abf09f5588f0820b8c6e9d04383ed4120f502ef267e992f",
        ),
        (
            # 2^64 + 5 is three 32-bit entropy words: pins the multi-word
            # padding and mixing that seeds below 2^32 never reach
            ["simulate", "--family", "A", "--rank", "2", "--mults", "1",
             "--x0=-1,0.1,1.2", "--horizon", "0.25", "--obs", "0.1",
             "--ensemble", "300", "--seed", "18446744073709551621", "--jumps"],
            "28e8bb2b85aa4cd597229b277f00ca24adef0d487e493ba0e842257a397d7c79",
        ),
        (
            # twelve live roots, past the eight summands from which numpy
            # sums pairwise; test_sde pins the per-path intensity order
            ["simulate", "--family", "D", "--rank", "4", "--mults", "1/2",
             "--x0=0.3,0.9,1.6,2.4", "--horizon", "0.1", "--obs", "0.03",
             "--ensemble", "300", "--seed", "5", "--jumps"],
            "a57b0de3d1e1b7c737c561c8c85c8be8e63e9dc41dcc2e52be32aae7b3b27c1c",
        ),
    ],
    ids=["simulate-b2-jumps", "freeze-a2", "simulate-a2-jumps-wide-seed", "simulate-d4-jumps"],
)
def test_stochastic_golden_digest(args, expected, tmp_path, capsys):
    # sha256 of the --out bytes of a jumping ensemble and a freezing run: a
    # change to the stepper's arithmetic that moves any sampled bit fails here
    out = tmp_path / "run.json"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize(
    "family, rank, mults, expected",
    [
        ("A", "3", "1", "196ac713066394497252ca8d31a111003bd59f06c40416e694fb884d167dc5a4"),
        ("B", "1", "1", "e11474f6c3a69009361ca58ff3b3ea08829a005c4e872b460718f8d17440d046"),
        ("B", "3", "1,1/2", "dd24b9d8026f39eced93fbf289455d97b84966e4fbc1875a525979339baed6bf"),
        ("D", "4", "3/2", "29f00615560cf6eeaff2486ddced1e45b5f2533055fc69d126a49e7235cef17a"),
        ("I2", "4", "1,2", "fef78b19ff13fc83f97e990086ae71a1cbc348667f6a400a671c0b3b0417860c"),
    ],
    ids=["A3", "B1", "B3", "D4", "I2(4)"],
)
def test_roots_system_golden_digest(family, rank, mults, expected, tmp_path, capsys):
    # sha256 of the --out bytes of exact systems: pins the root order, the
    # positive subsystem and the multiplicities the builder produces
    out = tmp_path / "system.json"
    args = ["roots", "--kind", "system", "--family", family, "--rank", rank, "--mults", mults]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_verify_failure_exit_two(monkeypatch, capsys):
    def broken(seed=0):
        return SuiteResult(
            name="broken",
            passed=False,
            tolerance=1e-9,
            max_residual=1.0,
            reports=(),
            elapsed=0.0,
        )

    monkeypatch.setitem(suites_mod.SUITES, "broken", broken)
    assert main(["verify", "broken"]) == 2
    assert "FAIL broken" in capsys.readouterr().out


def test_unknown_suite_exit_one(capsys):
    assert main(["verify", "nonesuch"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_missing_subcommand_exit_one(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_bad_flag_value_exit_one(capsys):
    # argparse errors are rerouted so the exit code stays ours
    assert main(["simulate", "--family", "Q"]) == 1
    capsys.readouterr()


def test_missing_required_option_exit_one(capsys):
    assert main(["simulate", "--family", "B", "--rank", "2"]) == 1
    assert "missing required option" in capsys.readouterr().err


def test_simulate_summary_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(SIM_ARGS + ["--out", str(out1)]) == 0
    assert main(SIM_ARGS + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"]["paths"] == 8
    assert payload["config"]["multiplicities"] == ["1", "1/2"]
    assert payload["moment"]["predicted"] == pytest.approx((2 + 2 * 3.0) * 0.25)
    capsys.readouterr()


def test_simulate_csv_replay(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    assert main(SIM_ARGS + ["--csv", str(csv_path), "--path-index", "3"]) == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "t,x1,x2"
    assert len(rows) > 10
    capsys.readouterr()


def test_step_underflow_exit_three(capsys):
    args = [
        "simulate",
        "--family", "B", "--rank", "2", "--mults", "20,0.01",
        "--x0", "0.5,1.0", "--horizon", "10", "--dt", "0.2",
        "--dt-floor-factor", "1.0", "--ensemble", "4", "--seed", "0",
    ]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "floor" in err
    # the stuck path is named, so --csv --path-index can replay it
    assert re.search(r"\(path [0-3], t = ", err)


def test_step_underflow_message_names_state_root_and_dt(capsys):
    args = [
        "simulate",
        "--family", "B", "--rank", "2", "--mults", "20,0.01",
        "--x0", "0.5,1.0", "--horizon", "10", "--dt", "0.2",
        "--dt-floor-factor", "1.0", "--ensemble", "4", "--seed", "0",
    ]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert re.search(r"x = \(\S+, \S+\), live root [0-3], dt = 0\.2\)", err)


def test_simulate_default_ensemble_of_one(tmp_path, capsys):
    # one path has no standard error: the z-score is null, not inf
    out = tmp_path / "one.json"
    args = ["simulate", "--family", "A", "--rank", "1", "--mults", "1",
            "--x0", "0,1", "--horizon", "0.01"]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["summary"]["paths"] == 1
    assert payload["moment"]["std_error"] == 0.0
    assert payload["moment"]["z_score"] is None
    assert main(args) == 0
    assert '"z_score": null' in capsys.readouterr().out


def test_config_file_merge_flags_win(tmp_path, capsys):
    cfg = {
        "seed": 9,
        "simulate": {
            "family": "B",
            "rank": 2,
            "multiplicities": [1, "1/2"],
            "x0": [0.6, 1.7],
            "horizon": 0.25,
            "ensemble": 4,
        },
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "merged.json"
    rc = main(["--config", str(cfg_path), "simulate",
               "--ensemble", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["ensemble"] == 2  # flag beats file
    assert payload["config"]["master_seed"] == 9  # global seed reaches the run
    assert payload["config"]["horizon"] == 0.25
    capsys.readouterr()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"simulate": {"family": "B", "dt": 0.1}}))
    assert main(["--config", str(cfg_path), "simulate"]) == 1
    assert "rejected" in capsys.readouterr().err
    cfg_path.write_text("{not json")
    assert main(["--config", str(cfg_path), "simulate"]) == 1
    capsys.readouterr()


def test_freeze_without_ode(tmp_path, capsys):
    out = tmp_path / "freeze.json"
    rc = main(["freeze", "--n", "2", "--k", "50", "--paths", "4",
               "--seed", "2", "--no-ode", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "ode" not in payload
    assert len(payload["samples"]) == 1
    assert payload["samples"][0]["k"] == 50.0
    capsys.readouterr()


def test_roots_outputs(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["roots", "--kind", "hermite", "--n", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["roots"]) == 4
    assert payload["electrostatic_residual"] < 1e-10

    assert main(["roots", "--kind", "laguerre", "--n", "3", "--alpha", "1.5"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert all(r > 0 for r in printed["roots"])

    assert main(["roots", "--kind", "system", "--family", "D", "--rank", "4",
                 "--mults", "1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["system"]["family"] == "D"
    assert len(printed["system"]["roots"]) == 24


def _a2_simulate(mults):
    return ["simulate", "--family", "A", "--rank", "2", "--mults", mults, "--x0", "0,1,2", "--horizon", "0.01"]


def _a2_roots(mults):
    return ["roots", "--kind", "system", "--family", "A", "--rank", "2", "--mults", mults]


@pytest.mark.parametrize(
    "args",
    [
        ["roots", "--kind", "hermite", "--n", "60"],
        ["roots", "--kind", "laguerre", "--n", "3", "--alpha", "-2"],
        ["verify", "oscillator", "--seed", "-1"],
        SIM_ARGS[:-1] + ["-1"],
        ["freeze", "--n", "2", "--k", "5", "--paths", "2", "--no-ode", "--seed", "-1"],
        ["freeze", "--n", "2", "--k", "0", "--paths", "2", "--no-ode"],
        SIM_ARGS + ["--scheme", "euler-adaptive"],
        # a multiplicity beyond the float range, or with more digits than
        # Python writes as text: each used to raise out of main
        _a2_simulate("1e400"),
        _a2_simulate("1e5000"),
        _a2_simulate("1e-5000"),
        _a2_roots("1e5000"),
        _a2_roots("1e-5000"),
    ],
)
def test_bad_inputs_exit_one_with_message(args, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "NaN" not in captured.out


@pytest.mark.parametrize(
    "args",
    [
        _a2_roots("1e400"),
        _a2_simulate("1e-400") + ["--ensemble", "2"],
    ],
    ids=["roots-1e400", "simulate-1e-400"],
)
def test_extreme_writable_multiplicities_still_run(args, capsys):
    # exact systems take any multiplicity that can be written back as text;
    # the engine takes any that is a finite float (1e-400 rounds to 0.0)
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_non_finite_payload_is_refused(tmp_path):
    out = tmp_path / "nan.json"
    with pytest.raises(ConfigError):
        _write_or_print({"value": float("nan")}, str(out))
    assert not out.exists()
    _write_or_print({"b": 1.5, "a": [0.1, 2]}, str(out))
    assert out.read_text() == '{\n  "a": [\n    0.1,\n    2\n  ],\n  "b": 1.5\n}\n'


FINITE_SIM = [
    "simulate", "--family", "A", "--rank", "2", "--mults", "1", "--x0", "0,1,2",
    "--horizon", "0.01", "--ensemble", "2", "--seed", "1",
]


def _stepper_started(*args, **kwargs):
    raise AssertionError("the stepper started on a non-finite configuration")


@pytest.mark.parametrize(
    "args",
    [
        FINITE_SIM + ["--k-scale", "nan"],
        [("inf" if a == "0.01" else a) for a in FINITE_SIM],
        [a for a in FINITE_SIM if a not in ("--x0", "0,1,2")] + ["--x0=0,1,nan"],
        ["freeze", "--n", "3", "--paths", "5", "--seed", "1", "--k", "inf"],
    ],
    ids=["k-scale-nan", "horizon-inf", "x0-nan", "freeze-k-inf"],
)
def test_non_finite_config_exit_one_before_stepping(args, monkeypatch, capsys):
    # each of these used to hang inside the stepper; the config must refuse them
    monkeypatch.setattr(cli_mod, "simulate", _stepper_started)
    monkeypatch.setattr(sde_mod, "simulate", _stepper_started)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "finite" in err


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--family", "A", "--rank", "1", "--mults", "1", "--x0=1,0",
         "--horizon", "1", "--dt", "1e-300", "--ensemble", "2"],
        ["freeze", "--n", "3", "--paths", "2", "--seed", "1", "--k", "10", "--t", "1e300", "--no-ode"],
    ],
    ids=["simulate-dt-1e-300", "freeze-t-1e300"],
)
def test_floor_step_below_horizon_ulp_exit_one_without_a_step(args, bounded_stepper, capsys):
    # a floor step of at most half an ulp of the horizon cannot advance the
    # clock there (t + h == t), so these runs used to hang
    assert main(args) == 1
    assert bounded_stepper == [0]
    err = capsys.readouterr().err
    assert err.startswith("error: dt ")
    assert "horizon" in err


def test_moment_without_a_finite_value_exit_one_without_a_warning(capsys):
    # at k = 1e300 every step runs, but |X_T|^2 overflows; numpy used to warn
    # twice before the JSON writer refused the infinity
    args = ["simulate", "--family", "A", "--rank", "2", "--mults", "1e300", "--x0", "0,1,2",
            "--horizon", "0.01", "--ensemble", "2", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the moment E|X_T|^2")
    assert "no finite value" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        # every coordinate is finite but |x0|^2 is not; the moment report
        # used to raise OverflowError computing it
        (["--rank", "1", "--x0=1e300,0", "--horizon", "1"], "x0 must have a finite squared norm"),
        (["--rank", "1", "--x0=1e200,-1e200", "--horizon", "1", "--jumps"], "x0 must have a finite squared norm"),
        # 10^12 and 10^9 steps per path: both ran until killed
        (["--rank", "1", "--x0=1,0", "--horizon", "1", "--dt", "1e-12", "--dt-floor-factor", "1"],
         f"needs more than MAX_BASE_STEPS = {sde_mod.MAX_BASE_STEPS} steps"),
        (["--rank", "2", "--x0=-1,0.1,1.2", "--horizon", "1e6"],
         f"needs more than MAX_BASE_STEPS = {sde_mod.MAX_BASE_STEPS} steps"),
    ],
    ids=["x0-1e300", "x0-1e200-jumps", "dt-1e-12", "horizon-1e6"],
)
def test_unrunnable_config_exit_one_without_a_step(args, message, bounded_stepper, capsys):
    assert main(["simulate", "--family", "A", "--mults", "1", "--ensemble", "2"] + args) == 1
    assert bounded_stepper == [0]
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_freeze_overflowing_drift_exit_one(bounded_stepper, capsys):
    # k = 1e308 is finite, but the drift overflows to NaN on the first step
    args = ["freeze", "--n", "3", "--paths", "5", "--seed", "1", "--k", "1e308"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not finite" in err


# Each bad value, once as flags and once as the same section in a --config
# file: both reach the one schema check, so both must fail alike.
PARITY = [
    ("freeze", "--n 1 --k 10 --paths 2 --no-ode", '{"n": 1, "k_values": [10], "paths": 2, "ode": false}'),
    ("freeze", "--n 51 --k 10 --paths 2 --no-ode", '{"n": 51, "k_values": [10], "paths": 2, "ode": false}'),
    ("freeze", "--n 60 --k 10 --paths 2 --no-ode", '{"n": 60, "k_values": [10], "paths": 2, "ode": false}'),
    ("freeze", "--n 3 --k 10,0 --paths 2 --no-ode", '{"n": 3, "k_values": [10, 0], "paths": 2, "ode": false}'),
    ("freeze", "--n 3 --k -1 --paths 2 --no-ode", '{"n": 3, "k_values": [-1], "paths": 2, "ode": false}'),
    ("freeze", "--n 3 --k 10,nan --paths 2 --no-ode", '{"n": 3, "k_values": [10, NaN], "paths": 2, "ode": false}'),
    ("freeze", "--n 3 --k 1e400 --paths 2 --no-ode", '{"n": 3, "k_values": [1e400], "paths": 2, "ode": false}'),
    ("freeze", "--n 3 --k 10 --t nan --paths 2 --no-ode", '{"n": 3, "k_values": [10], "t": NaN, "paths": 2, "ode": false}'),
    ("freeze", "--n 3 --k 10 --paths 2 --seed -1 --no-ode", '{"n": 3, "k_values": [10], "paths": 2, "seed": -1, "ode": false}'),
    (
        "simulate",
        "--family A --rank 2 --mults 1 --x0 0,1,2 --horizon 0.01 --drift-limit 2",
        '{"family": "A", "rank": 2, "multiplicities": [1], "x0": [0, 1, 2], "horizon": 0.01, "drift_limit": 2}',
    ),
    (
        "simulate",
        "--family A --rank 2 --mults 1 --x0 0,1,2 --horizon 0.01 --ensemble 0",
        '{"family": "A", "rank": 2, "multiplicities": [1], "x0": [0, 1, 2], "horizon": 0.01, "ensemble": 0}',
    ),
    (
        "simulate",
        "--family A --rank 2 --mults 1 --x0 0,1,2 --horizon 0.01 --k-scale nan",
        '{"family": "A", "rank": 2, "multiplicities": [1], "x0": [0, 1, 2], "horizon": 0.01, "k_scale": NaN}',
    ),
    ("roots", "--kind laguerre --n 3 --alpha nan", '{"kind": "laguerre", "n": 3, "alpha": NaN}'),
    ("roots", "--kind laguerre --n 51", '{"kind": "laguerre", "n": 51}'),
    ("roots", "--kind system --rank 3 --mults 1", '{"kind": "system", "rank": 3, "multiplicities": [1]}'),
]


@pytest.mark.parametrize(
    "command, flags, section",
    PARITY,
    ids=[
        "freeze-n-1", "freeze-n-51", "freeze-n-60", "k-zero", "k-negative", "k-nan",
        "k-1e400", "t-nan", "seed-negative", "drift-limit-2", "ensemble-0",
        "k-scale-nan", "alpha-nan", "laguerre-n-51", "system-without-family",
    ],
)
def test_bad_value_same_message_from_flag_or_file(command, flags, section, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "simulate", _stepper_started)
    monkeypatch.setattr(sde_mod, "simulate", _stepper_started)
    assert main([command, *flags.split()]) == 1
    by_flag = capsys.readouterr()
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(f'{{"{command}": {section}}}')
    assert main(["--config", str(cfg_path), command]) == 1
    by_file = capsys.readouterr()
    assert by_flag.err.startswith("error: ")
    assert by_flag.out == by_file.out == ""
    assert by_file.err == by_flag.err


def test_freeze_n_13_passes_by_flag_and_by_file(tmp_path, capsys):
    # the schema used to cap n at 12 while the flag took up to 50
    by_flag = tmp_path / "flag.json"
    by_file = tmp_path / "file.json"
    assert main(["freeze", "--n", "13", "--k", "10", "--paths", "2", "--no-ode",
                 "--out", str(by_flag)]) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"freeze": {"n": 13, "k_values": [10], "paths": 2, "ode": False, "out": str(by_file)}}
    ))
    assert main(["--config", str(cfg_path), "freeze"]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
    capsys.readouterr()


def test_path_index_outside_ensemble_exit_one_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "simulate", _stepper_started)
    out = tmp_path / "run.json"
    args = SIM_ARGS[:SIM_ARGS.index("--ensemble")] + [
        "--ensemble", "2", "--seed", "1", "--csv", str(tmp_path / "p.csv"),
        "--path-index", "5", "--out", str(out),
    ]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "path_index" in captured.err
    assert not out.exists()


def test_path_index_without_csv_is_not_checked(capsys):
    # path_index only picks the path that --csv replays
    args = SIM_ARGS[:SIM_ARGS.index("--ensemble")] + [
        "--ensemble", "2", "--seed", "1", "--path-index", "5",
    ]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["paths"] == 2


def test_partial_section_of_another_command_is_not_required(tmp_path, capsys):
    # a shared file may leave one command's required options to its flags
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"simulate": {"ensemble": 1000}}')
    assert main(["--config", str(cfg_path), "roots", "--kind", "hermite", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    # its keys are still checked
    cfg_path.write_text('{"simulate": {"ensemble": 0}}')
    assert main(["--config", str(cfg_path), "roots", "--kind", "hermite", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config rejected: simulate.ensemble")


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "oscillator"],
        ["freeze", "--n", "3", "--k", "10", "--paths", "2", "--no-ode"],
        SIM_ARGS[:SIM_ARGS.index("--seed")],
    ],
    ids=["verify", "freeze", "simulate"],
)
def test_top_level_seed_written_as_float_reads_as_int(args, tmp_path, capsys):
    # JSON 1.0 is an integer to the schema; the run must match --seed 1
    by_flag = tmp_path / "flag.json"
    by_file = tmp_path / "file.json"
    assert main(args + ["--seed", "1", "--out", str(by_flag)]) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"seed": 1.0}')
    assert main(["--config", str(cfg_path), *args, "--out", str(by_file)]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
    capsys.readouterr()


def test_simulate_i2_odd_order_uses_normalized_scale(tmp_path, capsys):
    # I2(5) has no integer representatives; the CLI picks the normalized scale
    out = tmp_path / "i2.json"
    args = ["simulate", "--family", "I2", "--rank", "5", "--mults", "1",
            "--x0", "0.3,1", "--horizon", "0.25", "--ensemble", "8", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["moment"]["predicted"] == (2 + 2 * 5) * 0.25
    capsys.readouterr()


def test_bundled_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(cli_mod._validator().schema)


def test_sim_config_schema_and_flags_in_step():
    # a SimConfig knob is settable by file and by flag, and the schema names
    # no simulate option that neither SimConfig nor the handler reads
    fields = {f.name for f in dataclasses.fields(SimConfig)} - {"system", "master_seed"}
    props = set(cli_mod._validator().schema["properties"]["simulate"]["properties"])
    sub = next(a for a in cli_mod.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["simulate"]._actions}
    assert fields <= props
    assert fields <= dests
    assert props - {"family", "rank", "multiplicities", "seed", "out", "csv", "path_index"} <= fields


def _schema_required(command: str, section: dict) -> set:
    spec = cli_mod._validator().schema["properties"][command]
    required = set(spec.get("required", ()))
    for branch in spec.get("allOf", ()):
        if jsonschema.Draft7Validator(branch["if"]).is_valid(section):
            required |= set(branch["then"]["required"])
    return required


# Per subcommand (and roots kind): the options its handler cannot do
# without, and options with library defaults that keep the run small.
REQUIRED = [
    ("verify", {}, {"suites": ["oscillator"]}),
    (
        "simulate",
        {"family": "A", "rank": 1, "multiplicities": [1], "x0": [0, 1], "horizon": 0.01},
        {"ensemble": 2},
    ),
    ("freeze", {"n": 2, "k_values": [10]}, {"paths": 2, "ode": False}),
    ("roots", {"kind": "hermite", "n": 2}, {}),
    ("roots", {"kind": "laguerre", "n": 2}, {}),
    ("roots", {"kind": "system", "family": "A", "rank": 1, "multiplicities": [1]}, {}),
]


@pytest.mark.parametrize(
    "command, required, extra",
    REQUIRED,
    ids=["verify", "simulate", "freeze", "roots-hermite", "roots-laguerre", "roots-system"],
)
def test_schema_required_matches_handler(command, required, extra, tmp_path, capsys):
    assert _schema_required(command, required) == set(required)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({command: {**required, **extra}}))
    assert main(["--config", str(cfg_path), command]) == 0
    for key in required:
        section = {k: v for k, v in {**required, **extra}.items() if k != key}
        cfg_path.write_text(json.dumps({command: section}))
        assert main(["--config", str(cfg_path), command]) == 1
        assert capsys.readouterr().err == f"error: missing required option: {key}\n"


# -- the schema walker ---------------------------------------------------------


def _finite_number(checker, instance):
    try:
        return jsonschema.Draft7Validator.TYPE_CHECKER.is_type(instance, "number") and math.isfinite(instance)
    except OverflowError:
        return False


# jsonschema's draft-07 validator with the finite-number type checker that the
# CLI used before it walked the schema itself
_ORACLE = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine("number", _finite_number),
)(cli_mod._validator().schema)


def _verdict(doc, command):
    try:
        cli_mod._validate(doc, command)
    except ConfigError as exc:
        return str(exc)
    return None


_SCHEMA_PROPS = cli_mod._validator().schema["properties"]
_NUMBERS = st.integers(-3, 60) | st.floats() | st.sampled_from([0.0, 0.5, 1.0, 2.5, 33, 50, 51, math.nan, math.inf])
_STRINGS = st.sampled_from(["A", "D", "I2", "E8", "hermite", "laguerre", "system", "oscillator", "1/2", ""])
_VALUES = st.one_of(
    _NUMBERS, _STRINGS, st.lists(_NUMBERS | _STRINGS | st.booleans(), max_size=3), st.booleans(), st.none(),
    st.integers(-(2**60), 2**60),  # every drawn integer fits in a float
    st.dictionaries(st.sampled_from(["kind", "n"]), _STRINGS),
)


def _near(spec):
    # mostly values of the spec's type near its bounds, enums and lengths; one
    # draw in twenty is any value, so that a document tends to fail at one spot
    kinds = spec.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    low = spec.get("minimum", spec.get("exclusiveMinimum", 0))
    options = []
    if "integer" in kinds:
        options.append(st.integers(low - 1, spec.get("maximum", low + 40) + 1))
    if "number" in kinds:
        options.append(st.floats(low - 1, spec.get("maximum", low + 10) + 1) | st.sampled_from([low, math.nan]))
    if "string" in kinds:
        options.append(st.sampled_from(spec.get("enum", ["x.json", "oscillator", "lemma1"]) + ["E8"]))
    if "array" in kinds:
        options.append(st.lists(_near(spec["items"]), max_size=spec.get("maxItems", 2) + 1))
    if "boolean" in kinds:
        options.append(st.booleans())
    near = st.one_of(*options)
    return st.integers(0, 19).flatmap(lambda i: near if i else _VALUES)


def _section(command):
    props = {k: _near(v) for k, v in _SCHEMA_PROPS[command]["properties"].items()}
    needed = _SCHEMA_PROPS[command].get("required", [])
    complete = st.fixed_dictionaries(
        {k: props[k] for k in needed}, optional={k: v for k, v in props.items() if k not in needed}
    )
    loose = st.fixed_dictionaries({}, optional={**props, "zz": _VALUES, "aa": _VALUES})
    return st.integers(0, 9).flatmap(lambda i: complete if i > 1 else loose if i else _VALUES)


_SECTIONS = {"seed": _near(_SCHEMA_PROPS["seed"]), **{c: _section(c) for c in _SCHEMA_PROPS if c != "seed"}}
_DOCS = st.integers(0, 9).flatmap(
    lambda i: st.fixed_dictionaries({}, optional=_SECTIONS) if i > 1
    else st.fixed_dictionaries({}, optional={**_SECTIONS, "other": _VALUES}) if i else _VALUES
)


@hypothesis.seed(20121)
@hypothesis.settings(max_examples=700, deadline=None, database=None)
@hypothesis.given(doc=_DOCS, command=st.sampled_from(["verify", "simulate", "freeze", "roots"]))
@hypothesis.example(doc={"verify": {"suites": [0, False, 1, True]}}, command="verify")  # false is not 0
def test_walker_rejects_as_jsonschema_does(doc, command):
    # the same first error, message for message, or the same acceptance; and
    # the same errors in the same order
    walked = _verdict(doc, command)
    with mock.patch.object(cli_mod, "_validator", lambda: _ORACLE):
        assert walked == _verdict(doc, command)
    assert [(e.validator, list(e.absolute_path), e.message) for e in cli_mod._validator().iter_errors(doc)] == [
        (e.validator, list(e.absolute_path), e.message) for e in _ORACLE.iter_errors(doc)
    ]


@pytest.mark.parametrize(
    "where, extra",
    [(("properties", "roots", "properties", "kind"), {"pattern": "^h"}),
     (("properties", "roots", "allOf", 0), {"else": {"required": ["rank"]}})],
    ids=["pattern", "else"],
)
def test_walker_refuses_a_keyword_it_does_not_implement(where, extra):
    schema = copy.deepcopy(cli_mod._validator().schema)
    node = schema
    for key in where:
        node = node[key]
    node.update(extra)
    with pytest.raises(ValueError, match=f"does not implement '{next(iter(extra))}'"):
        cli_mod._Walker(schema)


def test_cli_loads_no_jsonschema():
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, dunkl_lab, dunkl_lab.cli\n"
        "dunkl_lab.cli.main(['roots', '--kind', 'hermite', '--n', '3'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "             ('jsonschema', 'referencing', 'rpds', 'attrs', 'attr')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]", out.stdout


BIG = "1" * 401  # beyond the float range


@pytest.mark.parametrize(
    "args",
    [["roots", "--kind", "hermite", "--n", BIG],
     ["roots", "--kind", "laguerre", "--n", BIG],
     ["freeze", "--n", BIG, "--k", "10"]],
    ids=["hermite", "laguerre", "freeze"],
)
def test_integer_beyond_float_range_exit_one(args, capsys):
    # "integer" used to hold where "number" failed, so the maximum was skipped
    # and the library raised a traceback instead
    assert main(args) == 1
    err = capsys.readouterr().err
    section = args[0]
    assert err == f"error: config rejected: {section}.n: an integer of 401 digits is not of type 'integer'\n"


def test_config_integer_beyond_the_parse_limit_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"roots": {"kind": "hermite", "n": %s}}' % ("1" * 5000))
    assert main(["--config", str(cfg_path), "roots"]) == 1
    assert capsys.readouterr().err.startswith("error: config file is not valid JSON: ")


@pytest.mark.parametrize(
    "args",
    [["roots", "--kind", "system", "--family", "A", "--mults", "1"],
     ["simulate", "--family", "A", "--mults", "1", "--x0", "0,1", "--horizon", "0.01"]],
    ids=["roots", "simulate"],
)
def test_rank_above_32_exit_one(args, capsys):
    # A200 has 40 200 roots and a reflection table of their square; it ran
    # until killed for memory
    assert main(args + ["--rank", "33"]) == 1
    assert capsys.readouterr().err == (
        f"error: config rejected: {args[0]}.rank: 33 is greater than the maximum of 32\n"
    )
