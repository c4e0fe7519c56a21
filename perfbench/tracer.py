"""Outside-in span tracer for the dunkl_lab package.

The package imports its functions by name (``from .rootsys import
check_closure``), so patching a function in its defining module alone would
miss most callers.  ``Tracer.install`` therefore replaces every binding of a
target object in every loaded ``dunkl_lab`` module namespace, including the
values of module-level dicts such as ``suites.SUITES``, and patches methods
on their class.  Nothing inside the package is edited.

Spans live in memory as parallel arrays (name id, start, end, parent) and
are written out once, at the end.  A span's self time is its duration minus
the time covered by its direct children; because one thread runs the
workload, children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute path, span name).  An attribute path with a dot names a
# method on a class.  The span name doubles as the per-layer metric prefix.
TRACE_TARGETS = (
    ("dunkl_lab.rootsys", "build_root_system", "rootsys.build_root_system"),
    ("dunkl_lab.rootsys", "check_closure", "rootsys.check_closure"),
    ("dunkl_lab.rootsys", "sample_generic_point", "rootsys.sample_generic_point"),
    ("dunkl_lab.polyx", "MultiPoly.eval", "polyx.MultiPoly.eval"),
    ("dunkl_lab.polyx", "MultiPoly.__mul__", "polyx.MultiPoly.mul"),
    ("dunkl_lab.polyx", "alternating_quotient", "polyx.alternating_quotient"),
    ("dunkl_lab.polyx", "compose_reflection", "polyx.compose_reflection"),
    ("dunkl_lab.polyx", "discriminant_poly", "polyx.discriminant_poly"),
    ("dunkl_lab.polyx", "weight_poly", "polyx.weight_poly"),
    ("dunkl_lab.dunkl", "DunklContext.__post_init__", "dunkl.DunklContext.init"),
    ("dunkl_lab.dunkl", "dunkl_apply", "dunkl.dunkl_apply"),
    ("dunkl_lab.dunkl", "commutator", "dunkl.commutator"),
    ("dunkl_lab.transform", "theorem1_sides", "transform.theorem1_sides"),
    ("dunkl_lab.transform", "corollary1_sides", "transform.corollary1_sides"),
    ("dunkl_lab.transform", "lemma2_check", "transform.lemma2_check"),
    ("dunkl_lab.transform", "similarity_identities_check", "transform.similarity_identities_check"),
    ("dunkl_lab.transform", "unconfined_map_check", "transform.unconfined_map_check"),
    ("dunkl_lab.cm", "transformed_hamiltonian_check", "cm.transformed_hamiltonian_check"),
    ("dunkl_lab.cm", "groundstate_residual", "cm.groundstate_residual"),
    ("dunkl_lab.cm", "pf_matrix", "cm.pf_matrix"),
    ("dunkl_lab.cm", "SpinChainMatrix.eigenvalues", "cm.eigenvalues"),
    ("dunkl_lab.sde", "PathStreams.__init__", "sde.streams_init"),
    ("dunkl_lab.sde", "PathStreams.normals", "sde.streams_draw"),
    ("dunkl_lab.sde", "PathStreams.uniforms", "sde.streams_draw"),
    ("dunkl_lab.sde", "freezing_experiment", "sde.freezing_experiment"),
    ("dunkl_lab.sde", "deterministic_freeze_ode", "sde.deterministic_freeze_ode"),
    ("dunkl_lab.sde", "hermite_roots", "sde.hermite_roots"),
    ("dunkl_lab.cli", "main", "cli.main"),
)

# Wrapped in every run, traced or not: the work metric needs their wall time
# and their results, and they are called a handful of times per run.
PROBE_TARGETS = (
    ("dunkl_lab.sde", "simulate", "sde.simulate"),
    ("dunkl_lab.sde", "replay_path", "sde.replay_path"),
)


def _site_label(name, args):
    # spin-chain spans are split by site count: cm.pf_matrix.n11
    if name == "cm.pf_matrix":
        return f"{name}.n{len(args[0])}"
    if name == "cm.eigenvalues":
        return f"{name}.n{args[0].n_sites}"
    return name


class Tracer:
    """Records nested spans and keeps the results of selected calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.results: dict[str, list] = {}
        self.build_keys: list[str] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        keep = name in ("sde.simulate", "sde.replay_path")
        builds = name == "rootsys.build_root_system"
        split = name in ("cm.pf_matrix", "cm.eigenvalues")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = self._intern(_site_label(name, args) if split else name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            if builds:
                self.build_keys.append(repr((args, sorted(kwargs.items()))))
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if keep:
                self.results.setdefault(name, []).append(out)
            return out

        return wrapper

    def install(self, targets) -> None:
        """Patch each target wherever a loaded dunkl_lab module binds it.

        A target that no longer exists is recorded in ``missing`` and
        skipped, so its metrics read as absent rather than failing the run.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("dunkl_lab") and m]
        for mod_name, path, name in targets:
            try:
                owner = importlib.import_module(mod_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self._wrap(original, name)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped

    def totals(self) -> dict:
        """Per span name: {"s": self time, "incl_s": inclusive time, "calls": n}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            rec = out.setdefault(self.names[self.name_id[i]], {"s": 0.0, "incl_s": 0.0, "calls": 0})
            rec["s"] += dur - child[i]
            rec["incl_s"] += dur
            rec["calls"] += 1
        return out

    def write_spans(self, path: str, origin: float = 0.0) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - origin:.9f}"
                    f"\t{self.end[i] - origin:.9f}\t{self.parent[i]}\n"
                )
