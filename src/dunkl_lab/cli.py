"""Command line front end.

Four subcommands: ``verify`` runs the identity suites, ``simulate`` runs a
path ensemble and reports the quadratic moment check, ``freeze`` runs the
large-multiplicity collapse experiment, and ``roots`` prints classical root
configurations or a root-system description.

Flags are merged over the subcommand's section of an optional JSON file
(--config; its top-level ``seed`` fills in a missing seed), flags win, and
the result is validated once against the bundled schema before any work
starts; the file's other sections are checked for bad keys but need not be
complete.  The check is an in-package draft-07 walker over exactly the
keywords the schema uses, with jsonschema's error order and messages.
Options left out take the library's defaults.  All file outputs are
deterministic byte-for-byte for a fixed configuration: keys are sorted and
floats are written with shortest round-trip precision.

Exit codes: 0 success, 1 bad configuration or usage, 2 verification
failure, 3 step-size underflow inside the stochastic engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import operator
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .errors import ConfigError, DunklLabError, StepUnderflowError
from .rootsys import build_root_system, natural_scale
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


def _finite(x) -> bool:
    # json.load and float() both accept NaN and infinities; no option takes one
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _is(x, kind: str) -> bool:
    if kind == "number":
        return _finite(x)
    if kind == "integer":  # draft-07 counts 2.0 as an integer
        return _finite(x) and float(x).is_integer()
    return isinstance(x, _TYPES[kind])


_TYPES = {"array": list, "boolean": bool, "object": dict, "string": str}


def _equal(a, b) -> bool:
    """JSON equality: true is not 1, and 1 is 1.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return (isinstance(a, bool), a) == (isinstance(b, bool), b)


# the fields of a jsonschema ValidationError that _validate and _message read
_Error = namedtuple("_Error", "validator validator_value instance absolute_path message")


def _errors(schema: dict, x, path: tuple):
    # each keyword yields its own failures as messages, and its subschemas' as
    # _Errors; like jsonschema, keywords run in the schema's key order
    for key, value in schema.items():
        for found in _KEYWORDS[key](value, x, schema, path):
            yield found if isinstance(found, _Error) else _Error(key, value, x, path, found)


def _type(kinds, x, schema, path):
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if not any(_is(x, kind) for kind in kinds):
        # an int beyond the float range may run to thousands of digits
        shown = f"an integer of {len(str(abs(x)))} digits" if type(x) is int and not _finite(x) else repr(x)
        yield f"{shown} is not of type {', '.join(map(repr, kinds))}"


def _properties(props, x, schema, path):
    if isinstance(x, dict):
        for name, sub in props.items():
            if name in x:
                yield from _errors(sub, x[name], path + (name,))


def _no_extras(_, x, schema, path):
    extras = sorted(k for k in x if k not in schema.get("properties", {})) if isinstance(x, dict) else []
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        yield f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"


def _required(names, x, schema, path):
    if isinstance(x, dict):
        yield from (f"{name!r} is a required property" for name in names if name not in x)


def _items(sub, x, schema, path):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from _errors(sub, item, path + (i,))


def _length(fails, text):
    return lambda n, x, *_: [f"{x!r} {text(n)}"] if isinstance(x, list) and fails(len(x), n) else []


def _unique(on, x, schema, path):
    if on and isinstance(x, list) and any(_equal(a, b) for i, a in enumerate(x) for b in x[:i]):
        yield f"{x!r} has non-unique elements"


def _bound(holds, text: str):
    return lambda limit, x, *_: [] if not _finite(x) or holds(x, limit) else [f"{x!r} is {text} {limit!r}"]


def _if(cond, x, schema, path):
    if next(_errors(cond, x, path), None) is None:
        yield from _errors(schema.get("then", {}), x, path)


def _nothing(*_):
    return []


_KEYWORDS = {
    "$schema": _nothing,
    "title": _nothing,
    "type": _type,
    "properties": _properties,
    "additionalProperties": _no_extras,
    "required": _required,
    "items": _items,
    "minItems": _length(operator.lt, lambda n: "should be non-empty" if n == 1 else "is too short"),
    "maxItems": _length(operator.gt, lambda n: "is expected to be empty" if n == 0 else "is too long"),
    "uniqueItems": _unique,
    "enum": lambda values, x, *_: [] if any(_equal(v, x) for v in values)
    else [f"{x!r} is not one of {values!r}"],
    "const": lambda value, x, *_: [] if _equal(x, value) else [f"{value!r} was expected"],
    "minimum": _bound(operator.ge, "less than the minimum of"),
    "maximum": _bound(operator.le, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.gt, "less than or equal to the minimum of"),
    "allOf": lambda subs, x, schema, path: (e for sub in subs for e in _errors(sub, x, path)),
    "if": _if,
    "then": _nothing,  # read by "if"
}


def _check(schema) -> None:
    """Refuse a schema that holds a keyword, or a form of one, that the walker
    does not implement, so that an edit to the schema cannot slip past it."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema walker: {schema!r} is not a schema object")
    for key, value in schema.items():
        if key == "type":
            known = {value} if isinstance(value, str) else set(value)
            known = known <= {"number", "integer", *_TYPES}
        else:
            known = key in _KEYWORDS and (key != "additionalProperties" or value is False)
        if not known:
            raise ValueError(f"schema walker does not implement {key!r}: {value!r}")
        subs = value.values() if key == "properties" else value if key == "allOf" else (
            [value] if key in ("items", "if", "then") else []
        )
        for sub in subs:
            _check(sub)


class _Walker:
    """Draft-07 validation of exactly the keywords the bundled schema uses,
    with jsonschema's error order and message text."""

    def __init__(self, schema: dict):
        _check(schema)
        self.schema = schema

    def iter_errors(self, instance):
        return _errors(self.schema, instance, ())


@lru_cache(maxsize=None)
def _validator() -> _Walker:
    """The walker over the bundled schema, built once per process."""
    text = (
        resources.files("dunkl_lab")
        .joinpath("schemas/run_config.schema.json")
        .read_text(encoding="utf-8")
    )
    return _Walker(json.loads(text))


def _message(error: _Error) -> str:
    if error.validator == "required":
        missing = next(k for k in error.validator_value if k not in error.instance)
        return f"missing required option: {missing}"
    where = ".".join(str(p) for p in error.absolute_path)
    if isinstance(error.instance, float) and not math.isfinite(error.instance):
        return f"{where} must be a finite number, got {error.instance}"
    return f"config rejected: {where}: {error.message}" if where else f"config rejected: {error.message}"


def _validate(doc, command: str) -> None:
    # missing keys count only in the command's own section (a shared file may
    # leave another command's options to its flags), and after unknown or
    # malformed keys, which explain a missing one better than the reverse
    errors = sorted(
        (e for e in _validator().iter_errors(doc)
         if e.validator != "required" or list(e.absolute_path)[:1] == [command]),
        key=lambda e: e.validator == "required",
    )
    if errors:
        raise ConfigError(_message(errors[0]))


def _cast(value, spec: dict):
    """A validated value as the Python type its schema names (JSON writes 2.0 as 2)."""
    kind = spec.get("type")
    if kind == "array":
        return tuple(_cast(v, spec["items"]) for v in value)
    if kind == "integer":
        return int(value)
    if kind == "number":
        return float(value)
    return value


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an int of more than 4300 digits
        raise ConfigError(f"config file is not valid JSON: {exc}")


def _options(ns) -> dict:
    """The validated options of ``ns.command``: flags over the file's section."""
    doc = _load_config(ns.config) if ns.config else {}
    flags = {k: v for k, v in vars(ns).items() if k not in ("config", "command")}
    props = _validator().schema["properties"][ns.command]["properties"]
    # a document or section that is not an object is left for the schema to reject
    if isinstance(doc, dict) and isinstance(doc.get(ns.command, {}), dict):
        # the file's top-level seed sits under the section's own seed and flags
        seed = {"seed": doc["seed"]} if "seed" in doc and "seed" in props else {}
        doc[ns.command] = {**seed, **doc.get(ns.command, {}), **flags}
    _validate(doc, ns.command)
    return {k: _cast(v, props[k]) for k, v in doc[ns.command].items()}


def _call(fn, opts: dict, *args, **names) -> tuple:
    """fn(*args, param=opts[key] for each param=key set in opts), and every
    argument it ran with, its own defaults included."""
    kwargs = {param: opts[key] for param, key in names.items() if key in opts}
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return fn(*bound.args, **bound.kwargs), bound.arguments


def _system(opts: dict) -> tuple:
    """The root system the options name, and its multiplicities as parsed."""
    family, rank, given = opts["family"], opts["rank"], opts["multiplicities"]
    # strings and ints are exact; a float from a config file stays a float
    try:
        mults = [v if isinstance(v, float) else Fraction(v) for v in given]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad multiplicities {list(given)}: {exc}") from None
    for v, m in zip(given, mults):
        try:
            str(m)  # every output writes a multiplicity back as text
        except ValueError:
            raise ConfigError(f"multiplicity {v!r} has too many digits to write as text") from None
    return build_root_system(family, rank, mults, natural_scale(family, rank)), mults


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


# A number flag reads as the JSON number it spells (2 an int, 2.0 a float),
# so the schema rejects a bad flag with the same message as a bad file value.
def number(value: str):
    try:
        return int(value)
    except ValueError:
        return float(value)


def number_list(value: str) -> list:
    return [number(v) for v in value.split(",")]


def text_list(value: str) -> list:
    return value.split(",")


def build_parser() -> _Parser:
    parser = _Parser(prog="dunkl-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON configuration file")
    sub = parser.add_subparsers(dest="command")

    def command(name, help):
        # a flag left out is absent from the namespace, not None
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    v = command("verify", "run identity suites")
    v.add_argument("suites", nargs="*", help=f"subset of: {', '.join(SUITES)}")
    v.add_argument("--seed", type=int)
    v.add_argument("--out", help="write a JSON report here")

    s = command("simulate", "run a path ensemble")
    s.add_argument("--family", help="A, B, D or I2")
    s.add_argument("--rank", type=int)
    s.add_argument("--mults", dest="multiplicities", type=text_list,
                   help="comma separated, fractions allowed")
    s.add_argument("--k-scale", type=number, dest="k_scale")
    s.add_argument("--x0", type=number_list, help="comma separated start point")
    s.add_argument("--horizon", type=number)
    s.add_argument("--dt", type=number, dest="dt_base")
    s.add_argument("--ensemble", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--obs", dest="obs_times", type=number_list,
                   help="comma separated observation times")
    s.add_argument("--jumps", action="store_true")
    s.add_argument("--drift-limit", type=number, dest="drift_limit")
    s.add_argument("--jump-rate-limit", type=number, dest="jump_rate_limit")
    s.add_argument("--dt-floor-factor", type=number, dest="dt_floor_factor")
    s.add_argument("--out", help="write the JSON summary here")
    s.add_argument("--csv", help="write one replayed trajectory here")
    s.add_argument("--path-index", type=int, dest="path_index")

    f = command("freeze", "large-multiplicity collapse experiment")
    f.add_argument("--n", type=int)
    f.add_argument("--k", dest="k_values", type=number_list,
                   help="comma separated multiplicities")
    f.add_argument("--t", type=number)
    f.add_argument("--paths", type=int)
    f.add_argument("--seed", type=int)
    f.add_argument("--no-ode", dest="ode", action="store_false")
    f.add_argument("--out", help="write the JSON report here")

    r = command("roots", "classical root configurations")
    r.add_argument("--kind", help="hermite, laguerre or system")
    r.add_argument("--n", type=int)
    r.add_argument("--alpha", type=number)
    r.add_argument("--family", help="A, B, D or I2")
    r.add_argument("--rank", type=int)
    r.add_argument("--mults", dest="multiplicities", type=text_list,
                   help="comma separated, fractions allowed")
    r.add_argument("--out", help="write JSON here")
    return parser


def cmd_verify(opts: dict) -> int:
    results, args = _call(run_suites, opts, opts.get("suites"), seed="seed")
    for res in results:
        print(res.line())
    if opts.get("out"):
        payload = {
            "seed": args["seed"],
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
        _write_or_print(payload, opts["out"])
    return 0 if all(r.passed for r in results) else 2


_SIM_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.name != "system"]


def cmd_simulate(opts: dict) -> int:
    system, mults = _system(opts)
    fields = {k: v for k, v in opts.items() if k in _SIM_FIELDS}
    if "seed" in opts:
        fields["master_seed"] = opts["seed"]
    config = SimConfig(system=system, **fields)
    # the one cross-key check: the replayed path must lie in the ensemble
    path_index = opts.get("path_index", 0)
    if opts.get("csv") and path_index >= config.ensemble:
        raise ConfigError(
            f"path_index {path_index} lies outside the ensemble of {config.ensemble} paths"
        )
    result = simulate(config)
    moment = moment_from_result(config, result)
    resolved = {name: getattr(config, name) for name in _SIM_FIELDS}
    resolved.update(family=system.family, rank=system.rank, multiplicities=[str(m) for m in mults])
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
    _write_or_print(payload, opts.get("out"))
    if opts.get("csv"):
        replay_path(config, path_index).to_csv(opts["csv"])
    return 0


def cmd_freeze(opts: dict) -> int:
    samples, args = _call(
        freezing_experiment, opts, opts["n"], opts["k_values"], t="t", n_paths="paths", seed="seed"
    )
    payload = {
        "config": {
            "n": args["n_particles"],
            "k_values": list(args["k_values"]),
            "t": args["t"],
            "paths": args["n_paths"],
            "seed": args["seed"],
        },
        "samples": [s.as_dict() for s in samples],
    }
    if opts.get("ode", True):
        ode = deterministic_freeze_ode(opts["n"])
        payload["ode"] = {
            "sup_error": ode["sup_error"],
            "t_end": ode["t_end"],
            "y": [float(v) for v in ode["y"]],
            "target": [float(v) for v in ode["target"]],
        }
    _write_or_print(payload, opts.get("out"))
    return 0


def cmd_roots(opts: dict) -> int:
    kind = opts["kind"]
    if kind == "hermite":
        z = hermite_roots(opts["n"])
        payload = {
            "kind": "hermite",
            "n": opts["n"],
            "roots": [float(v) for v in z],
            "electrostatic_residual": hermite_electrostatic_residual(z),
        }
    elif kind == "laguerre":
        z, args = _call(laguerre_roots, opts, opts["n"], a="alpha")
        payload = {
            "kind": "laguerre",
            "n": opts["n"],
            "alpha": args["a"],
            "roots": [float(v) for v in z],
            "electrostatic_residual": laguerre_electrostatic_residual(z, args["a"]),
        }
    else:
        system, _ = _system(opts)
        payload = {"kind": "system", "system": system.to_json_dict()}
    _write_or_print(payload, opts.get("out"))
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
        return _HANDLERS[ns.command](_options(ns))
    except StepUnderflowError as exc:
        state = ", ".join(repr(v) for v in exc.state)
        print(
            f"error: {exc} (path {exc.path_index}, t = {exc.time}, x = ({state}),"
            f" live root {exc.root}, dt = {exc.dt})",
            file=sys.stderr,
        )
        return 3
    except DunklLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
