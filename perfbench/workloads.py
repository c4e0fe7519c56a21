"""The three benchmark workloads: inputs from a seed, a timed body, checks.

Each workload is one product of dunkl-lab as a user meets it:

* ``identity-verify`` runs ``dunkl-lab verify`` over all nine suites;
* ``ensemble-jump`` runs ``dunkl-lab simulate --jumps`` on two systems with a
  large ensemble and reads the moment law back from ``--out``;
* ``frozen-limit`` runs ``dunkl-lab freeze``, replays paths of a small radial
  ensemble, and builds and diagonalises the Polychronakos-Frahm spin chain
  at the Hermite roots.

``make_inputs`` draws every input from the workload seed; ``run_body`` is
the timed part; ``check`` compares the outputs with oracles that do not go
through the code under test where one exists.  Inputs depend only on the
workload, the seed and the size, so every iteration of a run repeats the
same work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

import numpy as np

from dunkl_lab import cli, cm, sde
from dunkl_lab.rootsys import build_root_system
from dunkl_lab.suites import SUITES

# Why each workload exists, the layer it leaves idle (where the prediction
# for a change to that layer is "no change"), and what it checks.
RECORDS = {
    "identity-verify": {
        "why": "exact closure, polynomial and Dunkl layers plus the float identity checks do all the work",
        "bypasses": "sde: a stepper or stream change must leave this workload unchanged",
    },
    "ensemble-jump": {
        "why": "per-path stream state and the vectorized step and jump-thinning loop dominate; memory grows with the ensemble",
        "bypasses": "polyx, dunkl, transform: closure and polynomials take microseconds here",
    },
    "frozen-limit": {
        "why": "the same stepper at small batch sizes, the freezing ODE, Hermite roots and the dense spin chain",
        "bypasses": "jump thinning (radial only) and the exact polynomial layers",
    },
}

# Seed reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 9973

# Moment-law bound in standard errors.  A correct engine exceeds 6 SE with
# probability about 2e-9 per check, negligible over every run ever made;
# a 3 SE bound over 2 systems x 3 times would fail about one run in sixty.
MOMENT_SIGMAS = 6.0

TINY_SUITES = ("similarity", "corollary1", "unconfined", "oscillator")

# Ensemble-jump systems.  The CLI has no --scale flag, so these use the
# integer-representative roots; drift k alpha/(alpha.x) and jump rate
# k|alpha|^2/(2 (alpha.x)^2) do not change when alpha is rescaled, so the
# process is the normalized one.  "rate" is N + 2 sum_{R+} k, the slope of
# E|X_t|^2 in t, written out here rather than taken from the package.
JUMP_SYSTEMS = (
    {"label": "B2", "family": "B", "rank": 2, "mults": "1,1", "x0": (0.6, 1.7), "rate": 2 + 2 * 4},
    {"label": "A2", "family": "A", "rank": 2, "mults": "1", "x0": (-1.0, 0.1, 1.2), "rate": 3 + 2 * 3},
)

SIZES = {
    "full": {
        "suites": tuple(SUITES),
        "ensemble": 12000,
        "horizon": 0.05,
        "freeze_n": 5,
        "freeze_paths": 300,
        "replay_ensemble": 16,
        "replay_paths": 4,
        "replay_horizon": 0.5,
        "sites": (4, 8, 10, 11),
    },
    "tiny": {
        "suites": TINY_SUITES,
        "ensemble": 200,
        "horizon": 0.02,
        "freeze_n": 3,
        "freeze_paths": 20,
        "replay_ensemble": 4,
        "replay_paths": 2,
        "replay_horizon": 0.1,
        "sites": (4, 8),
    },
}

FREEZE_K = (100.0, 10000.0)


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """Every input of one workload run, drawn from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    sz = SIZES[size]
    if workload == "identity-verify":
        return {"suites": list(sz["suites"]), "seed": rng.randrange(2**31)}
    if workload == "ensemble-jump":
        t = sz["horizon"]
        return {
            "ensemble": sz["ensemble"],
            "obs": (t / 4, t / 2, t),
            "systems": [dict(s, seed=rng.randrange(2**31)) for s in JUMP_SYSTEMS],
        }
    if workload == "frozen-limit":
        m = sz["replay_ensemble"]
        return {
            "freeze_n": sz["freeze_n"],
            "freeze_paths": sz["freeze_paths"],
            "freeze_seed": rng.randrange(2**31),
            "replay_config": sde.SimConfig(
                system=build_root_system("A", 3, [1]),
                x0=(-1.5, -0.4, 0.3, 1.6),
                horizon=sz["replay_horizon"],
                obs_times=(sz["replay_horizon"] / 5, sz["replay_horizon"] / 2),
                ensemble=m,
                master_seed=rng.randrange(2**31),
            ),
            "replay_paths": sorted(rng.sample(range(m), sz["replay_paths"])),
            "sites": sz["sites"],
        }
    raise KeyError(workload)


def _simulate_argv(s: dict, inputs: dict, out: str) -> list:
    t1, t2, horizon = inputs["obs"]
    return [
        "simulate", "--family", s["family"], "--rank", str(s["rank"]),
        "--mults", s["mults"], "--x0=" + ",".join(repr(v) for v in s["x0"]),
        "--horizon", repr(horizon), "--obs", f"{t1!r},{t2!r}",
        "--ensemble", str(inputs["ensemble"]), "--seed", str(s["seed"]),
        "--jumps", "--out", out,
    ]


def run_body(workload: str, inputs: dict, workdir: str) -> dict:
    """The timed part: what a user of the CLI or the library would run."""
    if workload == "identity-verify":
        out = os.path.join(workdir, "verify.json")
        rc = cli.main(["verify", *inputs["suites"], "--seed", str(inputs["seed"]), "--out", out])
        return {"rc": rc, "files": [out]}
    if workload == "ensemble-jump":
        rcs, files = [], []
        for s in inputs["systems"]:
            out = os.path.join(workdir, f"simulate-{s['label']}.json")
            rcs.append(cli.main(_simulate_argv(s, inputs, out)))
            files.append(out)
        return {"rcs": rcs, "files": files}
    if workload == "frozen-limit":
        out = os.path.join(workdir, "freeze.json")
        rc = cli.main([
            "freeze", "--n", str(inputs["freeze_n"]),
            "--k", ",".join(repr(k) for k in FREEZE_K),
            "--paths", str(inputs["freeze_paths"]),
            "--seed", str(inputs["freeze_seed"]), "--out", out,
        ])
        cfg = inputs["replay_config"]
        ensemble = sde.simulate(cfg)
        replays = [sde.replay_path(cfg, i) for i in inputs["replay_paths"]]
        roots = {n: sde.hermite_roots(n) for n in inputs["sites"]}
        residuals = {n: sde.hermite_electrostatic_residual(z) for n, z in roots.items()}
        spectra = {n: cm.pf_matrix(z).eigenvalues() for n, z in roots.items()}
        return {
            "rc": rc, "files": [out], "ensemble": ensemble, "replays": replays,
            "roots": roots, "residuals": residuals, "spectra": spectra,
        }
    raise KeyError(workload)


def _check(checks: list, name: str, ok: bool, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})


def _spin_chain_spectrum(z: np.ndarray) -> np.ndarray:
    """sum_{i<j} (z_i - z_j)^-2 - sum_{i: s_i > s_{i+1}} i over s in {1,2}^N.

    The exact spectrum of the Polychronakos-Frahm chain at the Hermite
    zeros (Polychronakos, PRL 70, 1993; Frahm, J. Phys. A 26, 1993).
    """
    n = len(z)
    pair = sum(1.0 / (z[i] - z[j]) ** 2 for i in range(n) for j in range(i + 1, n))
    s = np.array(list(itertools.product((1, 2), repeat=n)))
    descents = ((s[:, :-1] > s[:, 1:]) * np.arange(1, n)).sum(axis=1)
    return np.sort(pair - descents)


def check(workload: str, inputs: dict, body: dict, simulated: list) -> list:
    """Correctness checks on one iteration's outputs; ``simulated`` holds the
    EnsembleResults that ``simulate`` returned, in call order."""
    checks: list = []
    if workload == "identity-verify":
        _check(checks, "verify.exit_code", body["rc"] == 0, body["rc"])
        with open(body["files"][0], encoding="utf-8") as fh:
            report = json.load(fh)
        passed = {r["name"]: r["passed"] for r in report["results"]}
        for name in inputs["suites"]:
            _check(checks, f"verify.{name}.passed", passed.get(name) is True, passed.get(name))
    elif workload == "ensemble-jump":
        for s, rc, path, res in zip(inputs["systems"], body["rcs"], body["files"], simulated):
            label = s["label"]
            _check(checks, f"simulate.{label}.exit_code", rc == 0, rc)
            with open(path, encoding="utf-8") as fh:
                moment = json.load(fh)["moment"]
            base = sum(float(c) ** 2 for c in s["x0"])
            for j, t in enumerate(inputs["obs"]):
                sq = (res.states[:, j, :] ** 2).sum(axis=1)
                observed = float(sq.mean()) - base
                se = float(sq.std(ddof=1)) / np.sqrt(len(sq))
                z = (observed - s["rate"] * t) / se
                _check(checks, f"moment.{label}.t{j}", abs(z) <= MOMENT_SIGMAS, f"z={z:.3f}")
            # the final observation is what --out reports; it must agree
            _check(
                checks, f"moment.{label}.out_matches",
                moment["observed"] == observed
                and abs(moment["predicted"] - s["rate"] * inputs["obs"][-1]) <= 1e-12 * s["rate"],
                moment,
            )
    elif workload == "frozen-limit":
        _check(checks, "freeze.exit_code", body["rc"] == 0, body["rc"])
        with open(body["files"][0], encoding="utf-8") as fh:
            freeze = json.load(fh)
        sup = {s["k"]: s["mean_sup"] for s in freeze["samples"]}
        k_lo, k_hi = min(FREEZE_K), max(FREEZE_K)
        _check(checks, "freeze.mean_sup_small", sup[k_hi] < 0.05, sup[k_hi])
        _check(checks, "freeze.mean_sup_shrinks", sup[k_hi] < sup[k_lo], sup)
        _check(checks, "freeze.ode_sup_error", freeze["ode"]["sup_error"] < 1e-6, freeze["ode"]["sup_error"])
        ens = body["ensemble"]
        for traj in body["replays"]:
            i = traj.path_index
            rows = [np.flatnonzero(traj.times == t) for t in ens.obs_times]
            same = all(len(r) == 1 for r in rows) and all(
                np.array_equal(traj.states[r[0]], ens.states[i, j]) for j, r in enumerate(rows)
            )
            _check(checks, f"replay.path{i}.bitwise", same)
        for n, res in body["residuals"].items():
            _check(checks, f"hermite.n{n}.residual", res < 1e-10, res)
        for n, eig in body["spectra"].items():
            exact = _spin_chain_spectrum(body["roots"][n])
            err = float(np.abs(np.sort(eig) - exact).max())
            _check(checks, f"spin_chain.n{n}.spectrum", err <= 1e-9 * max(1.0, float(np.abs(exact).max())), err)
    return checks


def work_units(workload: str, body: dict, simulated: list, replays: list) -> float:
    """Units of work for work_per_s: identity sample points for verify,
    attempted path-steps (ensemble plus replay) for the stochastic workloads."""
    if workload == "identity-verify":
        with open(body["files"][0], encoding="utf-8") as fh:
            report = json.load(fh)
        return float(sum(rep["points"] for r in report["results"] for rep in r["reports"]))
    steps = sum(int(res.steps.sum()) for res in simulated)
    return float(steps + sum(int(t.steps) for t in replays))


def output_digest(body: dict) -> str:
    """sha256 over every output of the iteration: the CLI's --out files and
    the bytes of the arrays returned by library calls."""
    h = hashlib.sha256()
    for path in body["files"]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    if "ensemble" in body:
        h.update(body["ensemble"].states.tobytes())
        for traj in body["replays"]:
            h.update(traj.times.tobytes())
            h.update(traj.states.tobytes())
        for n in sorted(body["spectra"]):
            h.update(body["roots"][n].tobytes())
            h.update(np.float64(body["residuals"][n]).tobytes())
            h.update(body["spectra"][n].tobytes())
    return h.hexdigest()
