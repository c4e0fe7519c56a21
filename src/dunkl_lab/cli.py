"""Command line front end.

Four subcommands: ``verify`` runs the identity suites, ``simulate`` runs a
path ensemble and reports the quadratic moment check, ``freeze`` runs the
large-multiplicity collapse experiment, and ``roots`` prints classical root
configurations or a root-system description.

Options can come from flags or from a JSON file passed with --config,
validated against the bundled schema (unknown keys are rejected); flags win
over file values.  All file outputs are deterministic byte-for-byte for a
fixed configuration: keys are sorted and floats are written with shortest
round-trip precision.

Exit codes: 0 success, 1 bad configuration or usage, 2 verification
failure, 3 step-size underflow inside the stochastic engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

import jsonschema

from .errors import ConfigError, DunklLabError, StepUnderflowError
from .rootsys import build_root_system
from .sde import (
    SimConfig,
    deterministic_freeze_ode,
    freezing_experiment,
    hermite_electrostatic_residual,
    hermite_roots,
    laguerre_electrostatic_residual,
    laguerre_roots,
    moment_from_result,
    replay_path,
    simulate,
)
from .suites import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on bad usage; route it through ConfigError
    # so that exit codes stay under our control
    def error(self, message):
        raise ConfigError(message)


def _schema() -> dict:
    text = (
        resources.files("dunkl_lab")
        .joinpath("schemas/run_config.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    try:
        jsonschema.validate(raw, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config file rejected: {exc.message}")
    return raw


def _pick(flag, section: dict, key: str, default=None):
    if flag is not None:
        return flag
    return section.get(key, default)


def _seed(ns, section: dict, global_seed) -> int:
    # flags bypass the schema, which asks for a nonnegative seed
    seed = int(_pick(ns.seed, section, "seed", global_seed))
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _require(value, name: str):
    if value is None:
        raise ConfigError(f"missing required option: {name}")
    return value


def _parse_mults(value):
    if value is None:
        return None
    if isinstance(value, str):
        value = value.split(",")
    out = []
    for v in value:
        if isinstance(v, bool):
            raise ConfigError("multiplicities must be numbers")
        if isinstance(v, str):
            try:
                out.append(Fraction(v))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad multiplicity {v!r}")
        elif isinstance(v, int):
            out.append(Fraction(v))
        else:
            out.append(float(v))
    return out


def _parse_floats(value):
    if value is None:
        return None
    if isinstance(value, str):
        value = value.split(",")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad numeric list {value!r}")


def _write_or_print(payload: dict, out_path):
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"refusing to write a non-finite number: {exc}") from None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="dunkl-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run identity suites")
    v.add_argument("suites", nargs="*", help=f"subset of: {', '.join(SUITES)}")
    v.add_argument("--seed", type=int)
    v.add_argument("--out", help="write a JSON report here")

    s = sub.add_parser("simulate", help="run a path ensemble")
    s.add_argument("--family", choices=["A", "B", "D", "I2"])
    s.add_argument("--rank", type=int)
    s.add_argument("--mults", help="comma separated, fractions allowed")
    s.add_argument("--k-scale", type=float, dest="k_scale")
    s.add_argument("--x0", help="comma separated start point")
    s.add_argument("--horizon", type=float)
    s.add_argument("--dt", type=float, dest="dt_base")
    s.add_argument("--scheme", choices=["euler-adaptive", "euler-fixed"])
    s.add_argument("--ensemble", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--obs", dest="obs_times", help="comma separated observation times")
    s.add_argument("--jumps", action="store_true", default=None)
    s.add_argument("--drift-limit", type=float, dest="drift_limit")
    s.add_argument("--jump-rate-limit", type=float, dest="jump_rate_limit")
    s.add_argument("--dt-floor-factor", type=float, dest="dt_floor_factor")
    s.add_argument("--out", help="write the JSON summary here")
    s.add_argument("--csv", help="write one replayed trajectory here")
    s.add_argument("--path-index", type=int, dest="path_index")

    f = sub.add_parser("freeze", help="large-multiplicity collapse experiment")
    f.add_argument("--n", type=int)
    f.add_argument("--k", dest="k_values", help="comma separated multiplicities")
    f.add_argument("--t", type=float)
    f.add_argument("--paths", type=int)
    f.add_argument("--seed", type=int)
    f.add_argument("--no-ode", action="store_true", default=None)
    f.add_argument("--out", help="write the JSON report here")

    r = sub.add_parser("roots", help="classical root configurations")
    r.add_argument("--kind", choices=["hermite", "laguerre", "system"])
    r.add_argument("--n", type=int)
    r.add_argument("--alpha", type=float)
    r.add_argument("--family", choices=["A", "B", "D", "I2"])
    r.add_argument("--rank", type=int)
    r.add_argument("--mults", help="comma separated, fractions allowed")
    r.add_argument("--out", help="write JSON here")
    return parser


def cmd_verify(ns, section: dict, global_seed) -> int:
    names = ns.suites or section.get("suites") or list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    seed = _seed(ns, section, global_seed)
    results = run_suites(names, seed=seed)
    for res in results:
        print(res.line())
    out = _pick(ns.out, section, "out")
    if out:
        payload = {
            "seed": seed,
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "tolerance": r.tolerance,
                    "max_residual": r.max_residual,
                    "notes": list(r.notes),
                    "reports": [json.loads(rep.to_json()) for rep in r.reports],
                }
                for r in results
            ],
        }
        _write_or_print(payload, out)
    return 0 if all(r.passed for r in results) else 2


def cmd_simulate(ns, section: dict, global_seed) -> int:
    family = _require(_pick(ns.family, section, "family"), "family")
    rank = _require(_pick(ns.rank, section, "rank"), "rank")
    mults = _require(
        _parse_mults(_pick(ns.mults, section, "multiplicities")), "multiplicities"
    )
    x0 = _require(_parse_floats(_pick(ns.x0, section, "x0")), "x0")
    horizon = _require(_pick(ns.horizon, section, "horizon"), "horizon")
    seed = _seed(ns, section, global_seed)
    system = build_root_system(family, rank, mults)
    config = SimConfig(
        system=system,
        x0=x0,
        horizon=float(horizon),
        k_scale=float(_pick(ns.k_scale, section, "k_scale", 1.0)),
        dt_base=float(_pick(ns.dt_base, section, "dt_base", 1e-3)),
        scheme=_pick(ns.scheme, section, "scheme", "euler-adaptive"),
        ensemble=int(_pick(ns.ensemble, section, "ensemble", 1)),
        master_seed=seed,
        obs_times=_parse_floats(_pick(ns.obs_times, section, "obs_times")) or (),
        jumps=bool(_pick(ns.jumps, section, "jumps", False)),
        drift_limit=float(_pick(ns.drift_limit, section, "drift_limit", 0.2)),
        jump_rate_limit=float(_pick(ns.jump_rate_limit, section, "jump_rate_limit", 0.1)),
        dt_floor_factor=float(_pick(ns.dt_floor_factor, section, "dt_floor_factor", 2.0**-20)),
    )
    result = simulate(config)
    moment = moment_from_result(config, result)
    resolved = {
        "family": family,
        "rank": int(rank),
        "multiplicities": [str(m) for m in mults],
        "k_scale": config.k_scale,
        "x0": list(config.x0),
        "horizon": config.horizon,
        "dt_base": config.dt_base,
        "scheme": config.scheme,
        "ensemble": config.ensemble,
        "master_seed": config.master_seed,
        "obs_times": list(config.obs_times),
        "jumps": config.jumps,
        "drift_limit": config.drift_limit,
        "jump_rate_limit": config.jump_rate_limit,
        "dt_floor_factor": config.dt_floor_factor,
    }
    payload = {
        "config": resolved,
        "summary": result.summary(),
        "moment": {
            "observed": moment.observed,
            "predicted": moment.predicted,
            "std_error": moment.std_error,
            "z_score": moment.z_score,
        },
        "final_mean": [float(v) for v in result.final_states.mean(axis=0)],
    }
    _write_or_print(payload, _pick(ns.out, section, "out"))
    csv_path = _pick(ns.csv, section, "csv")
    if csv_path:
        idx = int(_pick(ns.path_index, section, "path_index", 0))
        replay_path(config, idx).to_csv(csv_path)
    return 0


def cmd_freeze(ns, section: dict, global_seed) -> int:
    n = int(_require(_pick(ns.n, section, "n"), "n"))
    k_values = _require(
        _parse_floats(_pick(ns.k_values, section, "k_values")), "k_values"
    )
    if not all(k > 0 for k in k_values):
        raise ConfigError(f"multiplicities must be positive, got {list(k_values)}")
    t = float(_pick(ns.t, section, "t", 1.0))
    paths = int(_pick(ns.paths, section, "paths", 200))
    seed = _seed(ns, section, global_seed)
    no_ode = ns.no_ode if ns.no_ode is not None else not section.get("ode", True)
    samples = freezing_experiment(n, k_values, t=t, n_paths=paths, seed=seed)
    payload = {
        "config": {"n": n, "k_values": list(k_values), "t": t, "paths": paths, "seed": seed},
        "samples": [
            {
                "k": s.k,
                "mean_sup": s.mean_sup,
                "max_sup": s.max_sup,
                "scaled_mean": [float(v) for v in s.scaled_mean],
                "target": [float(v) for v in s.target],
            }
            for s in samples
        ],
    }
    if not no_ode:
        ode = deterministic_freeze_ode(n)
        payload["ode"] = {
            "sup_error": ode["sup_error"],
            "t_end": ode["t_end"],
            "y": [float(v) for v in ode["y"]],
            "target": [float(v) for v in ode["target"]],
        }
    _write_or_print(payload, _pick(ns.out, section, "out"))
    return 0


def cmd_roots(ns, section: dict, _global_seed) -> int:
    kind = _require(_pick(ns.kind, section, "kind"), "kind")
    if kind == "hermite":
        n = int(_require(_pick(ns.n, section, "n"), "n"))
        try:
            z = hermite_roots(n)
        except ValueError as exc:
            raise ConfigError(f"hermite roots: {exc}") from None
        payload = {
            "kind": "hermite",
            "n": n,
            "roots": [float(v) for v in z],
            "electrostatic_residual": hermite_electrostatic_residual(z),
        }
    elif kind == "laguerre":
        n = int(_require(_pick(ns.n, section, "n"), "n"))
        a = float(_pick(ns.alpha, section, "alpha", 0.0))
        try:
            z = laguerre_roots(n, a)
        except ValueError as exc:
            raise ConfigError(f"laguerre roots: {exc}") from None
        payload = {
            "kind": "laguerre",
            "n": n,
            "alpha": a,
            "roots": [float(v) for v in z],
            "electrostatic_residual": laguerre_electrostatic_residual(z, a),
        }
    else:
        family = _require(_pick(ns.family, section, "family"), "family")
        rank = int(_require(_pick(ns.rank, section, "rank"), "rank"))
        mults = _require(
            _parse_mults(_pick(ns.mults, section, "multiplicities")), "multiplicities"
        )
        system = build_root_system(family, rank, mults)
        payload = {"kind": "system", "system": system.to_json_dict()}
    _write_or_print(payload, _pick(ns.out, section, "out"))
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "freeze": cmd_freeze,
    "roots": cmd_roots,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise ConfigError("a subcommand is required (verify, simulate, freeze, roots)")
        config = _load_config(ns.config) if ns.config else {}
        section = config.get(ns.command, {})
        global_seed = config.get("seed", 0)
        return _HANDLERS[ns.command](ns, section, global_seed)
    except StepUnderflowError as exc:
        print(f"error: {exc} (path {exc.path_index}, t = {exc.time})", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DunklLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
