"""One benchmark iteration, run in a fresh Python process.

A fresh process per iteration is what a CLI user pays: ``build_root_system``
keeps an in-process cache, so a second iteration in the same process would
hide the closure cost.  The worker writes one JSON record and exits.

    python3 perfbench/worker.py --workload NAME --seed N --size full \
        --mode run|trace|setup --spawned-at T --workdir DIR --record FILE

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; setup_s runs from there until dunkl_lab and
dunkl_lab.cli are imported and the inputs are generated.
"""

import argparse
import json
import resource
import sys
import time

import scipy

import workloads  # imports dunkl_lab and dunkl_lab.cli: part of setup_s
from tracer import PROBE_TARGETS, TRACE_TARGETS, Tracer

# Spans reported as "<name>.s", with "<name>.calls" where the flag is set.
SPAN_METRICS = (
    ("rootsys.build_root_system", True),
    ("rootsys.check_closure", True),
    ("rootsys.sample_generic_point", False),
    ("polyx.MultiPoly.eval", True),
    ("polyx.MultiPoly.mul", True),
    ("polyx.alternating_quotient", True),
    ("polyx.compose_reflection", True),
    ("polyx.discriminant_poly", False),
    ("polyx.weight_poly", False),
    ("dunkl.DunklContext.init", True),
    ("dunkl.dunkl_apply", True),
    ("dunkl.commutator", False),
    ("transform.theorem1_sides", True),
    ("transform.corollary1_sides", False),
    ("transform.lemma2_check", True),
    ("transform.similarity_identities_check", False),
    ("transform.unconfined_map_check", False),
    ("cm.transformed_hamiltonian_check", True),
    ("cm.groundstate_residual", False),
    ("sde.simulate", True),
    ("sde.streams_init", False),
    ("sde.streams_draw", True),
    ("sde.replay_path", False),
    ("sde.freezing_experiment", False),
    ("sde.deterministic_freeze_ode", False),
    ("sde.hermite_roots", False),
    ("cli.main", False),
)


def suite_targets() -> list:
    from dunkl_lab.suites import SUITES

    return [("dunkl_lab.suites", fn.__name__, f"suites.{name}") for name, fn in SUITES.items()]


def _ratio(num: float, den: float) -> float:
    # a layer the workload never enters reports 0, not a missing metric
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tot: dict, simulated: list, replays: list) -> dict:
    """Per-layer metrics of one traced iteration; ``tot`` is tracer.totals()."""
    from dunkl_lab.suites import SUITES

    zero = {"s": 0.0, "incl_s": 0.0, "calls": 0}
    m = {}
    for name, with_calls in SPAN_METRICS:
        rec = tot.get(name, zero)
        m[f"{name}.s"] = rec["s"]
        if with_calls:
            m[f"{name}.calls"] = rec["calls"]
    keys = tracer.build_keys
    m["rootsys.build_repeat_ratio"] = _ratio(len(keys) - len(set(keys)), len(keys))
    m["rootsys.closure_per_system"] = _ratio(
        tot.get("rootsys.check_closure", zero)["calls"], len(set(keys))
    )
    for n in workloads.SIZES["full"]["sites"]:
        m[f"cm.pf_matrix.s.n{n}"] = tot.get(f"cm.pf_matrix.n{n}", zero)["s"]
        m[f"cm.eigenvalues.s.n{n}"] = tot.get(f"cm.eigenvalues.n{n}", zero)["s"]
    for name in SUITES:
        rec = tot.get(f"suites.{name}", zero)
        m[f"suites.{name}.s"] = rec["s"]
        m[f"suites.{name}.incl_s"] = rec["incl_s"]
    steps = sum(int(r.steps.sum()) for r in simulated)
    rejected = sum(int(r.violations.sum()) for r in simulated)
    jumps = sum(int(r.jump_counts.sum()) for r in simulated)
    m["sde.path_steps"] = steps
    m["sde.accept_ratio"] = _ratio(steps - rejected, steps)
    m["sde.jumps_per_kstep"] = _ratio(1000.0 * jumps, steps)
    m["sde.ns_per_path_step"] = _ratio(1e9 * m["sde.simulate.s"], steps)
    m["sde.replay_ns_per_step"] = _ratio(
        1e9 * m["sde.replay_path.s"], sum(int(t.steps) for t in replays)
    )
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RECORDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--mode", default="run", choices=("run", "trace", "setup"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--spans", help="write the traced spans here")
    args = ap.parse_args()

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    record = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode != "setup":
        tracer = Tracer()
        tracer.install(PROBE_TARGETS)
        if args.mode == "trace":
            tracer.install(list(TRACE_TARGETS) + suite_targets())
        start = time.perf_counter()
        body = workloads.run_body(args.workload, inputs, args.workdir)
        record["wall_s"] = time.perf_counter() - start
        simulated = tracer.results.get("sde.simulate", [])
        replays = tracer.results.get("sde.replay_path", [])
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tot = tracer.totals()
        sde_time = sum(tot.get(n, {"incl_s": 0.0})["incl_s"] for n in ("sde.simulate", "sde.replay_path"))
        units = workloads.work_units(args.workload, body, simulated, replays)
        # verify has no simulator calls; its work runs over the whole body
        record["work_per_s"] = units / (sde_time if sde_time else record["wall_s"])
        record["checks"] = workloads.check(args.workload, inputs, body, simulated)
        record["digest"] = workloads.output_digest(body)
        record["missing_targets"] = tracer.missing
        if args.mode == "trace":
            record["layers"] = layer_metrics(tracer, tot, simulated, replays)
            if args.spans:
                tracer.write_spans(args.spans, origin=start)
    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": workloads.np.__version__,
        "scipy": scipy.__version__,
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
