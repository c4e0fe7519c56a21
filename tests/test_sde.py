"""Stochastic engine: determinism, replay, jumps, moments, root oracles."""

import ctypes
import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import dunkl_lab
import dunkl_lab.sde as sde_mod
from dunkl_lab.cli import main
from dunkl_lab.errors import (
    ConfigError,
    HyperplaneError,
    SamplingError,
    StepUnderflowError,
)
from dunkl_lab.rootsys import build_root_system, make_system_from_vectors, reflect
from dunkl_lab.sde import (
    HERMITE_CAP,
    SimConfig,
    deterministic_freeze_ode,
    freezing_experiment,
    hermite_electrostatic_residual,
    hermite_roots,
    laguerre_electrostatic_residual,
    laguerre_freezing_probe,
    laguerre_roots,
    moment_from_result,
    moment_law_report,
    replay_path,
    simulate,
)

A2 = build_root_system("A", 2, (1.0,), scale="normalized")
B2 = build_root_system("B", 2, (1.0, 0.5), scale="normalized")
A2_X0 = (-1.0, 0.1, 1.2)
B2_X0 = (0.6, 1.7)


def _cfg(**kw):
    base = dict(
        system=A2,
        x0=A2_X0,
        horizon=0.25,
        dt_base=1e-3,
        ensemble=8,
        master_seed=42,
    )
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(horizon=0.0)
    with pytest.raises(ConfigError):
        _cfg(ensemble=0)
    with pytest.raises(ConfigError):
        _cfg(obs_times=(0.1, 0.5))  # beyond the horizon
    with pytest.raises(HyperplaneError):
        simulate(_cfg(x0=(0.0, 0.0, 0.0)))  # starts on every hyperplane


@pytest.mark.parametrize(
    "overrides",
    [
        {"horizon": math.inf},
        {"k_scale": math.nan},
        {"k_scale": math.inf},
        {"dt_base": math.inf},
        {"x0": (-1.0, math.nan, 1.2)},
        {"obs_times": (0.1, math.nan)},
        {"system": build_root_system("A", 2, (math.inf,), scale="normalized")},
    ],
)
def test_config_rejects_non_finite_values(overrides):
    with pytest.raises(ConfigError, match="finite"):
        _cfg(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"master_seed": -1},
        {"master_seed": 1.5},
        {"master_seed": True},
        {"master_seed": "1"},
        {"ensemble": 2**32},
    ],
    ids=["negative-seed", "float-seed", "bool-seed", "str-seed", "ensemble-2^32"],
)
def test_config_rejects_aliasing_seeds(overrides):
    # each path index is one 32-bit spawn-key word of a nonnegative int seed
    with pytest.raises(ConfigError):
        _cfg(**overrides)


def test_config_accepts_widest_seed_and_ensemble():
    cfg = _cfg(master_seed=2**130 + 3, ensemble=2**32 - 1)
    assert cfg.master_seed == 2**130 + 3


SEEDS = [0, 1, 2**31 - 1, 2**32, 2**64 - 1, 2**64, 2**130 + 3]
SEED_PATHS = list(range(50)) + [77777, 2**32 - 1]


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^31-1", "2^32", "2^64-1", "2^64", "2^130+3"])
def test_stream_states_match_numpy_seeding(seed, stream):
    words = sde_mod._stream_states(seed, SEED_PATHS, stream).tolist()
    for p, (state_lo, state_hi, inc_lo, inc_hi) in zip(SEED_PATHS, words):
        state, inc = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        ref = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(p, stream))).state["state"]
        assert (state, inc) == (ref["state"], ref["inc"]), p


def _per_path_draws(seed, paths, dim, n_uniform, draws):
    """Each path's first ``draws`` Gaussian rows and uniform rows from numpy's
    own per-path generators."""

    def gen(p, stream):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(p, stream))))

    return (
        [gen(p, 0).standard_normal((draws, dim)) for p in paths],
        [gen(p, 1).random((draws, n_uniform)) for p in paths],
    )


def _one_column_schedule(m, ends, rng):
    """One (normals rows, uniforms rows) pair per column: row r draws
    Gaussians at columns 0 .. ends[r] - 1, so the sets shrink, and reads
    uniforms on a random subset of them, as a rejected proposal skips its."""
    everyone = np.arange(m)
    schedule = []
    for col in range(max(ends)):
        rows = everyone[[col < e for e in ends]]
        idx = slice(None) if rows.size == m else rows
        picked = rows[rng.random(rows.size) < 0.7]
        uidx = slice(None) if picked.size == m and col % 2 else picked
        schedule.append((idx, uidx))
    return schedule


def _check_one_column_reads(streams, schedule, m, ref_g, ref_u):
    # uniform column j is consumed whether it is read or not: a row skipped
    # at j reads column j + 1 at its next call, not its unread column j
    everyone = np.arange(m)
    skipped = np.full(m, -1)
    for col, (idx, uidx) in enumerate(schedule):
        rows, urows = everyone[idx], everyone[uidx]
        g = streams.normals(idx)
        u = streams.uniforms(uidx)
        assert g.shape == (len(rows), ref_g[0].shape[1]) and u.shape == (len(urows), ref_u[0].shape[1])
        for k, r in enumerate(rows):
            assert np.array_equal(g[k].view(np.uint64), ref_g[r][col].view(np.uint64))
        for k, r in enumerate(urows):
            assert np.array_equal(u[k].view(np.uint64), ref_u[r][col].view(np.uint64))
            if skipped[r] == col - 1 >= 0:
                assert not np.array_equal(u[k], ref_u[r][col - 1])
        skipped[np.setdiff1d(rows, urows)] = col
    return skipped


@pytest.mark.parametrize(
    "paths", [[5], [0, 3, 7, 77777, 2**32 - 1]], ids=["one-row", "five-rows"]
)
def test_path_streams_match_per_path_generators(paths):
    # the parent design: one Generator per path and stream; every call past
    # the third refill reads both streams' one shared column
    seed, dim, n_uniform = 2**64 + 5, 3, 4
    m = len(paths)
    ends = [3 * sde_mod.BLOCK + 2 - 40 * r for r in range(m)]
    ref_g, ref_u = _per_path_draws(seed, paths, dim, n_uniform, max(ends))
    streams = sde_mod.PathStreams(seed, paths, dim, n_uniform)
    schedule = _one_column_schedule(m, ends, np.random.default_rng(3))
    skipped = _check_one_column_reads(streams, schedule, m, ref_g, ref_u)
    assert (skipped >= 0).all()


@pytest.mark.parametrize("block", [1, 7, 53, sde_mod.BLOCK])
def test_block_size_changes_no_sample(block):
    # a row's j-th call reads draw j of each stream at any block size; the
    # rows leave one by one, the last past the second refill at BLOCK
    seed, dim, n_uniform = 2**64 + 5, 3, 4
    paths = [0, 3, 7, 77777, 2**32 - 1]
    m = len(paths)
    ends = [2 * sde_mod.BLOCK + 350, 2 * sde_mod.BLOCK + 10, 300, 130, 9]
    ref_g, ref_u = _per_path_draws(seed, paths, dim, n_uniform, max(ends))
    streams = sde_mod.PathStreams(seed, paths, dim, n_uniform, block)
    schedule = _one_column_schedule(m, ends, np.random.default_rng(block))
    skipped = _check_one_column_reads(streams, schedule, m, ref_g, ref_u)
    assert (skipped >= 0).all()


def _words(state: dict) -> list:
    mask = (1 << 64) - 1
    return [state["state"] & mask, state["state"] >> 64, state["inc"] & mask, state["inc"] >> 64]


def test_refill_writes_back_each_rows_state():
    # every row's stored words are the per-path generator's state after the
    # whole blocks of both streams that its calls refilled, its skipped
    # uniform columns included; the Gaussian ziggurat takes a variable
    # number of outputs per draw
    seed, dim, n_uniform, block = 2**64 + 5, 3, 4, 7
    paths = [0, 3, 7, 77777, 2**32 - 1]
    m = len(paths)
    ends = [110, 64, 50, 22, 1]
    streams = sde_mod.PathStreams(seed, paths, dim, n_uniform, block)
    for idx, uidx in _one_column_schedule(m, ends, np.random.default_rng(11)):
        streams.normals(idx)
        streams.uniforms(uidx)
    refills = -(-np.asarray(ends) // block)
    assert refills.tolist() == [16, 10, 8, 4, 1]
    order = sde_mod._state_view(np.random.PCG64())[1]
    for stream, (words, buf, _), draw in zip((0, 1), streams._streams, ("standard_normal", "random")):
        words = words[:, order].tolist()
        for r, p in enumerate(paths):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(p, stream))))
            getattr(gen, draw)((refills[r] * block, buf.shape[2]))
            assert words[r] == _words(gen.bit_generator.state["state"]), (stream, p)


class _LaidOutBitGen:
    """A PCG64 stand-in whose state setter stores the four words in ``layout`` order."""

    def __init__(self, layout):
        self.layout, self.words = layout, (ctypes.c_uint64 * 4)()
        self.pointer = ctypes.c_void_p(ctypes.addressof(self.words))
        self.ctypes = SimpleNamespace(state_address=ctypes.addressof(self.pointer))

    def _set(self, value):
        words = _words(value["state"])
        self.words[:] = [words[c] for c in self.layout]

    state = property(fset=_set)


def test_state_view_aliases_the_bit_generator():
    bitgen = np.random.PCG64(0)
    view, order = sde_mod._state_view(bitgen)
    view[order] = [11, 12, 13, 15]  # the order is its own inverse
    assert _words(bitgen.state["state"]) == [11, 12, 13, 15]
    bitgen.random_raw(3)
    assert view[order].tolist() == _words(bitgen.state["state"])


@pytest.mark.parametrize(
    "layout, order",
    [((0, 1, 2, 3), [0, 1, 2, 3]), ((1, 0, 3, 2), [1, 0, 3, 2]), ((2, 3, 0, 1), None), ((1, 0, 2, 3), None)],
    ids=["native", "emulated", "inc-first", "half-swapped"],
)
def test_state_view_checks_the_layout(layout, order):
    bitgen = _LaidOutBitGen(layout)
    if order is None:
        with pytest.raises(RuntimeError, match="unknown PCG64 state layout"):
            sde_mod._state_view(bitgen)
        return
    view, got = sde_mod._state_view(bitgen)
    assert got == order
    view[:] = [21, 22, 23, 25]
    assert list(bitgen.words) == [21, 22, 23, 25]


def test_observation_grid_includes_horizon():
    cfg = _cfg(obs_times=(0.1, 0.2))
    assert cfg.observation_grid() == (0.1, 0.2, 0.25)
    res = simulate(cfg)
    assert res.obs_times == (0.1, 0.2, 0.25)
    assert res.states.shape == (8, 3, 3)


def test_bitwise_determinism():
    res1 = simulate(_cfg())
    res2 = simulate(_cfg())
    assert np.array_equal(res1.states, res2.states)
    assert np.array_equal(res1.steps, res2.steps)
    res3 = simulate(_cfg(master_seed=43))
    assert not np.array_equal(res1.states, res3.states)


# jumping D4: twelve live roots, so a path's intensity sum has enough terms
# for numpy's pairwise summation to reorder it; rows differ in their
# rejection steps, which gather root-contiguous columns
D4_JUMPS = dict(system=build_root_system("D", 4, (Fraction(1, 2),)), x0=(0.3, 0.9, 1.6, 2.4),
                horizon=0.1, obs_times=(0.03,), master_seed=5, jumps=True)
ENSEMBLE_ARRAYS = ("states", "jump_counts", "intensity_integrals", "steps", "violations")


def test_paths_are_independent_of_ensemble_size():
    # per-path streams: path i is the same no matter how many run alongside
    for kw, few, many in ((dict(), 3, 8), (D4_JUMPS, 60, 300)):
        small = simulate(_cfg(**kw, ensemble=few))
        large = simulate(_cfg(**kw, ensemble=many))
        for name in ENSEMBLE_ARRAYS:
            a, b = getattr(small, name), getattr(large, name)[:few]
            assert a.tobytes() == b.tobytes(), (kw, name)


G2_VECTORS = [
    v
    for a, b, c in [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    for v in ((a, b, c), (-a, -b, -c))
]

SUPPORT_SYSTEMS = (
    [("A", r, (1,)) for r in range(1, 6)]
    + [("B", 1, (1,))]
    + [("B", r, (1, Fraction(1, 2))) for r in range(2, 5)]
    + [("D", r, (1,)) for r in range(2, 6)]
)
SUPPORT_CASES = (
    [(f, r, m, scale) for f, r, m in SUPPORT_SYSTEMS for scale in ("integer-representatives", "normalized")]
    + [("I2", 4, (1, 2), "integer-representatives")]
    + [("I2", m, (1,) if m % 2 else (1, 2), "normalized") for m in range(3, 9)]
    + [("G2", 3, (1,), "custom")]
)


@pytest.mark.parametrize(
    "family,rank,mults,scale", SUPPORT_CASES, ids=[f"{c[0]}{c[1]}-{c[3][:4]}" for c in SUPPORT_CASES]
)
def test_support_table_dots_match_dense_row_sums(family, rank, mults, scale):
    # the stepper's support-table dots against the dense (x * alpha) row sum
    # on random batches, a third of them pushed onto or next to a wall
    if scale == "custom":
        system = make_system_from_vectors(G2_VECTORS, 1)
    else:
        system = build_root_system(family, rank, mults, scale=scale)
    roots = sde_mod._live_root_arrays(system)
    assert roots.count == len(system.positive)
    alphas = np.asarray([[float(c) for c in r.vector] for r in system.live_positive])
    rng = np.random.default_rng(7)
    n = system.dimension
    x = rng.standard_normal((600, n)) * 10.0 ** rng.integers(-3, 4, size=(600, 1))
    for row in range(0, 600, 3):
        alpha = alphas[row % roots.count]
        x[row] -= ((x[row] * alpha).sum() / (alpha * alpha).sum()) * alpha
        x[row] += alpha * (0.0 if row % 2 else 1e-12 * rng.standard_normal())
    got = roots.dots(x.T)
    for r in range(roots.count):
        ref = (x * alphas[r]).sum(axis=1)
        nonzero = ref != 0
        assert np.array_equal(got[r][nonzero].view(np.uint64), ref[nonzero].view(np.uint64)), r
        assert np.all(got[r][~nonzero] == 0), r
    if family == "G2":
        assert roots.idx.shape[1] == 3
    # a one-column batch gives that column's bits; no live roots give (0, m)
    one = roots.dots(x[:1].T)
    assert one.shape == (roots.count, 1)
    assert np.array_equal(one.view(np.uint64), got[:, :1].view(np.uint64))
    empty = sde_mod._live_root_arrays(system.with_multiplicity_scale(0))
    assert empty.count == 0
    for batch in (x.T, x[:1].T):
        assert empty.dots(batch).shape == (0, batch.shape[1])


@pytest.mark.parametrize(
    "kw,rows",
    [
        (dict(system=B2, x0=B2_X0, jumps=False), (0, 5, 7)),
        (dict(system=B2, x0=B2_X0, jumps=True), (0, 5, 7)),
        # three-coordinate supports, and a padded slot on a root's own coordinate
        (dict(system=make_system_from_vectors(G2_VECTORS, 1), x0=(0.3, -1.1, 0.9), jumps=True),
         (0, 5, 7)),
        (dict(system=build_root_system("I2", 5, (1.0,), scale="normalized"), x0=B2_X0, jumps=True),
         (0, 5, 7)),
        (dict(D4_JUMPS, ensemble=60), (4, 10, 14, 19, 28, 34, 42, 52)),
    ],
    ids=["False", "True", "G2-jumps", "I2(5)-jumps", "D4-jumps"],
)
def test_replay_matches_ensemble(kw, rows):
    cfg = _cfg(**{"obs_times": (0.05, 0.2), **kw})
    res = simulate(cfg)
    for i in rows:
        traj = replay_path(cfg, i)
        assert traj.path_index == i
        obs_idx = [np.argmin(np.abs(np.array(traj.times) - t)) for t in res.obs_times]
        for oi, ti in enumerate(obs_idx):
            assert traj.times[ti] == pytest.approx(res.obs_times[oi], abs=0.0)
            assert np.array_equal(traj.states[ti], res.states[i, oi])
        assert traj.intensity_integral == pytest.approx(res.intensity_integrals[i], abs=0.0)
        assert len(traj.jump_events) == res.jump_counts[i]
        assert traj.steps == res.steps[i]
        assert traj.violations == res.violations[i]


@pytest.mark.parametrize("system", [A2, B2], ids=["A2", "B2"])
def test_jump_reflects_like_reflect_and_keeps_off_support_bits(system):
    # each live root fires alone on two rows, one on each side of its wall;
    # the jump moves only the root's support coordinates and gives reflect's
    # bits, so an off-support -0.0 stays -0.0 (B2's short roots pad a slot)
    roots = sde_mod._live_root_arrays(system)
    live = system.live_positive
    n, k = system.dimension, roots.count
    chosen, states = [], []
    for r, root in enumerate(live):
        on = {i for i, _ in root.support}
        for sign in (1.0, -1.0):
            chosen.append(r)
            states.append([sign * (0.7 + 0.3 * i) if i in on else -0.0 for i in range(n)])
    x = np.asarray(states)
    u = np.ones((len(chosen), k + 1))
    u[np.arange(len(chosen)), chosen] = 0.0
    u[:, k] = 0.5
    x_new, root_idx = sde_mod._apply_jumps(
        x.T, roots.dots(x.T), np.ones((k, len(chosen))), u.T, roots
    )
    assert root_idx.tolist() == chosen
    for row, r in enumerate(chosen):
        want = np.asarray(reflect(live[r], tuple(states[row])))
        assert np.array_equal(x_new[:, row].view(np.uint64), want.view(np.uint64)), (r, x_new[:, row])


def test_twelve_root_ensemble_arrays_golden_digest():
    # sha256 of every per-path array of a jumping D4 ensemble: the CLI's
    # --out holds only the intensity total, so this is what pins the order
    # of each path's intensity sum over its twelve roots, one root at a time
    cfg = SimConfig(system=build_root_system("D", 4, (Fraction(1, 2),)), x0=(0.3, 0.9, 1.6, 2.4),
                    horizon=0.1, obs_times=(0.03,), ensemble=300, master_seed=5, jumps=True)
    res = simulate(cfg)
    digest = hashlib.sha256()
    for a in (res.states, res.jump_counts, res.intensity_integrals, res.steps, res.violations):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == "587dcea700e277470b8e07a779ae32aa43e27b1cdd0059f2900f048fb101873f"


ONE_PATH_CASES = {
    # twelve live roots, two jumps
    "D4-jumps": (SimConfig(system=build_root_system("D", 4, (Fraction(1, 2),)), x0=(0.3, 0.9, 1.6, 2.4),
                           horizon=0.1, obs_times=(0.03,), ensemble=300, master_seed=5, jumps=True),
                 1, "bab5f8f4dd9bb4bd55dee609cf2022269d7c925b906b7e6dbba1c304aab667a7"),
    # radial, with one rejected proposal
    "A3-radial": (SimConfig(system=build_root_system("A", 3, (1,)), x0=(-1.0, 0.0, 0.05, 1.2),
                            horizon=0.2, obs_times=(0.05,), ensemble=50, master_seed=3),
                  9, "0b662423fc41dd4d18eac3e3b8b4def9818e0c2086d52dfa889962be23fb6cb5"),
}


@pytest.mark.parametrize("case", list(ONE_PATH_CASES))
def test_one_path_replay_golden_digest(case):
    # sha256 of everything a replay records: the one-path regime of freeze,
    # replay and --csv, where the batch has a single column
    cfg, path, want = ONE_PATH_CASES[case]
    traj = replay_path(cfg, path)
    assert (len(traj.jump_events) == 2) if cfg.jumps else (traj.violations == 1)
    digest = hashlib.sha256()
    for a in (traj.times, traj.states, np.asarray(traj.jump_events, dtype=float).reshape(-1, 2),
              np.asarray([traj.intensity_integral]), np.asarray([traj.steps, traj.violations])):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == want


def test_lockstep_and_staggered_rows_replay_bitwise():
    # started next to the x1 = 0 wall, some proposals are rejected while
    # every row is active and rows finish at different steps, so the loop
    # runs both its full-slice and its index-array branches
    cfg = _cfg(system=B2, x0=(0.02, 1.7), jumps=True, obs_times=(0.05, 0.2),
               k_scale=0.5, ensemble=24, master_seed=9)
    res = simulate(cfg)
    assert res.violations.sum() > 0
    assert len(set(res.steps.tolist())) > 1
    for i in range(cfg.ensemble):
        traj = replay_path(cfg, i)
        at_obs = [np.flatnonzero(traj.times == t)[0] for t in res.obs_times]
        assert np.array_equal(traj.states[at_obs].view(np.uint64), res.states[i].view(np.uint64))
        assert traj.steps == res.steps[i]
        assert traj.violations == res.violations[i]
        assert len(traj.jump_events) == res.jump_counts[i]
        assert traj.intensity_integral == res.intensity_integrals[i]
    small = simulate(dataclasses.replace(cfg, ensemble=3))
    assert np.array_equal(small.states.view(np.uint64), res.states[:3].view(np.uint64))
    assert np.array_equal(small.steps, res.steps[:3])
    assert np.array_equal(small.violations, res.violations[:3])
    assert np.array_equal(small.jump_counts, res.jump_counts[:3])
    assert np.array_equal(small.intensity_integrals, res.intensity_integrals[:3])


@pytest.mark.parametrize(
    "system,x0,jumps",
    [
        (B2, (0.02, 1.7), False),
        (B2, (0.02, 1.7), True),
        # three-coordinate supports, and a padded slot on a root's own coordinate
        (make_system_from_vectors(G2_VECTORS, 1), (0.3, 0.28, -1.1), True),
        (build_root_system("I2", 5, (1.0,), scale="normalized"), (0.02, 1.7), True),
    ],
    ids=["B2", "B2-jumps", "G2-jumps", "I2(5)-jumps"],
)
def test_carried_dots_equal_fresh_dots(monkeypatch, system, x0, jumps):
    # the loop carries alpha . x across steps (accepted rows take their
    # proposal's, reflected rows get fresh dots, rejected rows keep theirs);
    # every proposal must see exactly what dots(x) gives, C-contiguous
    real = sde_mod._step_core
    widths = []

    def stepper(x, d_pre, *args):
        roots = args[-2]
        assert d_pre.flags.c_contiguous
        assert np.array_equal(d_pre.view(np.uint64), roots.dots(x).view(np.uint64))
        widths.append(x.shape[1])
        return real(x, d_pre, *args)

    monkeypatch.setattr(sde_mod, "_step_core", stepper)
    cfg = _cfg(system=system, x0=x0, jumps=jumps, obs_times=(0.05, 0.2),
               k_scale=0.5, ensemble=24, master_seed=9)
    res = simulate(cfg)
    assert res.violations.sum() > 0
    assert (res.jump_counts.sum() > 0) == jumps
    assert len(set(res.steps.tolist())) > 1 and min(widths) < cfg.ensemble
    replay_path(cfg, int(np.argmax(res.jump_counts + res.violations)))
    assert widths[-1] == 1


def test_chunked_run_matches_one_unchunked_run(monkeypatch):
    # a staggered jumping ensemble with rejections, 40 paths in chunks of 7
    # (the last one short): every array equals one _run over all the paths
    monkeypatch.setattr(sde_mod, "CHUNK", 7)
    cfg = _cfg(system=B2, x0=(0.02, 1.7), jumps=True, obs_times=(0.05, 0.2),
               k_scale=0.5, ensemble=40, master_seed=9)
    chunked = simulate(cfg)
    whole = sde_mod._run(cfg, range(cfg.ensemble))
    assert chunked.violations.sum() > 0 and chunked.jump_counts.sum() > 0
    assert len(set(chunked.steps.tolist())) > 1
    assert chunked.obs_times == whole.obs_times
    for name in ENSEMBLE_ARRAYS:
        a, b = getattr(chunked, name), getattr(whole, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    # twelve live roots: every array is the same at two chunk sizes
    cfg = _cfg(**D4_JUMPS, ensemble=200)
    runs = []
    for chunk in (7, 64):
        monkeypatch.setattr(sde_mod, "CHUNK", chunk)
        runs.append(simulate(cfg))
    for name in ENSEMBLE_ARRAYS:
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name


ONE_AND_TWO_CPUS = [1, pytest.param(2, marks=pytest.mark.needs_fork)]


@pytest.mark.parametrize("cpus", ONE_AND_TWO_CPUS)
def test_chunked_memory_stays_bounded(monkeypatch, set_cpus, cpus):
    # ten chunks of 256 paths peak about where one chunk does: stepped here
    # at one CPU, and at two held here only as the workers' results
    monkeypatch.setattr(sde_mod, "CHUNK", 256)
    set_cpus(cpus)
    simulate(_cfg(jumps=True, ensemble=256))

    def peak(ensemble):
        tracemalloc.start()
        try:
            simulate(_cfg(jumps=True, ensemble=ensemble))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(256), peak(2560)
    assert large <= 1.5 * small, (small, large)


@pytest.mark.needs_fork
def test_ensemble_bits_do_not_depend_on_cpu_count(monkeypatch, set_cpus):
    # twelve live roots, where a path's intensity bits depend on which paths
    # share its _run: the chunks of 7 stay the chunks at any worker count
    monkeypatch.setattr(sde_mod, "CHUNK", 7)
    cfg = SimConfig(system=build_root_system("D", 4, (Fraction(1, 2),)), x0=(0.3, 0.9, 1.6, 2.4),
                    horizon=0.1, obs_times=(0.03,), ensemble=40, master_seed=5, jumps=True)
    runs = []
    for cpus in (1, 2, 4):
        set_cpus(cpus)
        runs.append(simulate(cfg))
    assert runs[0].jump_counts.sum() > 0 and runs[0].violations.sum() > 0
    for res in runs[1:]:
        assert res.obs_times == runs[0].obs_times
        for name in ("states", "jump_counts", "intensity_integrals", "steps", "violations"):
            a, b = getattr(res, name), getattr(runs[0], name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.needs_fork
def test_simulate_out_bytes_do_not_depend_on_cpu_count(monkeypatch, set_cpus, tmp_path, capsys):
    monkeypatch.setattr(sde_mod, "CHUNK", 16)
    for cpus in (1, 2):
        set_cpus(cpus)
        assert main(["simulate", "--family", "B", "--rank", "2", "--mults", "1,1",
                     "--x0", "0.6,1.7", "--horizon", "0.05", "--ensemble", "50", "--seed", "3",
                     "--jumps", "--out", str(tmp_path / f"run-{cpus}.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "run-1.json").read_bytes() == (tmp_path / "run-2.json").read_bytes()


@pytest.mark.parametrize("cpus", ONE_AND_TWO_CPUS)
def test_chunks_not_started_when_one_raises_never_run(monkeypatch, set_cpus, tmp_path, cpus):
    # the first of twenty chunks raises at once and every other one takes
    # 0.1 s; each chunk marks its start in a file, since a worker's state
    # does not reach this process
    real = sde_mod._run

    def run(config, paths, record=None):
        if paths[0] == 0:
            raise HyperplaneError("the first chunk")
        (tmp_path / f"chunk-{paths[0]}").touch()
        time.sleep(0.1)
        return real(config, paths, record)

    monkeypatch.setattr(sde_mod, "_run", run)
    monkeypatch.setattr(sde_mod, "CHUNK", 2)
    set_cpus(cpus)
    with pytest.raises(HyperplaneError, match="^the first chunk$"):
        simulate(_cfg(ensemble=40))
    # a serial loop starts none; two workers start what they held when the
    # error came back, about one chunk each, and none of the queued rest
    started = len(list(tmp_path.iterdir()))
    assert started <= (0 if cpus == 1 else 9), started


def test_replay_bypasses_public_simulate(monkeypatch):
    # wrappers around the public entry point must not see replays as runs
    def public_entry(*args, **kwargs):
        raise AssertionError("replay_path went through sde.simulate")

    monkeypatch.setattr(sde_mod, "simulate", public_entry)
    traj = replay_path(_cfg(system=B2, x0=B2_X0, jumps=True), 3)
    assert traj.path_index == 3
    assert traj.times[-1] == 0.25


def test_radial_paths_never_cross_walls():
    cfg = _cfg(system=B2, x0=B2_X0, horizon=0.5, ensemble=32, jumps=False)
    res = simulate(cfg)
    finals = res.final_states
    # both B2 coordinates keep their starting chamber: 0 < x1, |x1| < x2 is
    # not required by the chamber, only alpha.x sign preservation root-wise
    for alpha in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([1.0, 1.0]) / math.sqrt(2), np.array([-1.0, 1.0]) / math.sqrt(2)):
        s0 = np.sign(np.dot(alpha, B2_X0))
        assert np.all(np.sign(finals @ alpha) == s0)


def test_jumping_paths_do_cross():
    cfg = _cfg(system=B2, x0=B2_X0, horizon=0.5, ensemble=64, master_seed=7, jumps=True)
    res = simulate(cfg)
    assert res.jump_counts.sum() > 0
    # at least one sign flip relative to the start somewhere in the ensemble
    alpha = np.array([1.0, 0.0])
    assert np.any(np.sign(res.final_states @ alpha) != np.sign(np.dot(alpha, B2_X0)))


def test_jump_rate_matches_intensity():
    # E[#jumps] = E[integral of total rate]; both are recorded per path
    cfg = _cfg(system=A2, x0=A2_X0, horizon=1.0, ensemble=512, jumps=True,
               k_scale=0.5, master_seed=11)
    res = simulate(cfg)
    total_jumps = res.jump_counts.sum()
    total_intensity = res.intensity_integrals.sum()
    assert total_jumps > 100
    assert total_jumps == pytest.approx(total_intensity, rel=0.1)


def test_jumping_process_projects_onto_the_radial_process():
    # The image of the jumping process in the closed Weyl chamber (sorted x
    # on A, sorted |x_i| on B) is the radial process (Roesler & Voit, Adv.
    # Appl. Math. 21, 1998).  Two-sample KS on each projected coordinate and
    # on the first gap: 7 tests at the Bonferroni level 0.05 / 7.  Sizes,
    # seeds and level were fixed before the first run.
    from scipy.stats import ks_2samp

    p_values = {}
    for name, system, x0, project in (
        ("A2", A2, A2_X0, lambda s: np.sort(s, axis=1)),
        ("B2", B2, B2_X0, lambda s: np.sort(np.abs(s), axis=1)),
    ):
        jumping, radial = (
            project(simulate(SimConfig(system=system, x0=x0, horizon=1.0, ensemble=4000,
                                       master_seed=seed, jumps=jumps)).final_states)
            for seed, jumps in ((21, True), (22, False))
        )
        for j in range(len(x0)):
            p_values[f"{name} coordinate {j}"] = ks_2samp(jumping[:, j], radial[:, j]).pvalue
        gap_j, gap_r = jumping[:, 1] - jumping[:, 0], radial[:, 1] - radial[:, 0]
        p_values[f"{name} first gap"] = ks_2samp(gap_j, gap_r).pvalue
    assert len(p_values) == 7
    assert min(p_values.values()) >= 0.05 / 7, p_values


def test_zero_multiplicity_is_brownian():
    # k = 0: no drift, no jumps, fixed steps; increments are exactly gaussian
    cfg = _cfg(k_scale=0.0, horizon=0.125, ensemble=4, jumps=True)
    res = simulate(cfg)
    assert res.jump_counts.sum() == 0
    assert res.violations.sum() == 0
    assert np.all(res.steps == 125)
    traj = replay_path(cfg, 0)
    dts = np.diff(traj.times)
    assert np.all(dts <= cfg.dt_base + 1e-15)


def test_step_underflow_reported():
    # strong short-root repulsion rams the weakly guarded diagonal wall at a
    # step the noise cannot rescue; with the floor pinned at dt_base every
    # retry happens at the same h, and the stuck path must be reported
    b2 = build_root_system("B", 2, (20.0, 0.01), scale="normalized")
    cfg = SimConfig(system=b2, x0=(0.5, 1.0), horizon=10.0, dt_base=0.2,
                    dt_floor_factor=1.0, ensemble=4, master_seed=0)
    with pytest.raises(StepUnderflowError) as exc:
        simulate(cfg)
    assert exc.value.time >= 0.0
    with pytest.raises(StepUnderflowError):
        replay_path(cfg, 0)
    # the reported path, replayed alone, gets stuck at the same moment
    assert 0 <= exc.value.path_index < cfg.ensemble
    with pytest.raises(StepUnderflowError) as replayed:
        replay_path(cfg, exc.value.path_index)
    assert replayed.value.time == exc.value.time
    assert replayed.value.path_index == exc.value.path_index


def test_step_underflow_names_state_root_and_dt():
    # the ensemble's report carries what a replay of the stuck path needs
    b2 = build_root_system("B", 2, (20.0, 0.01), scale="normalized")
    cfg = SimConfig(system=b2, x0=(0.5, 1.0), horizon=10.0, dt_base=0.2,
                    dt_floor_factor=1.0, ensemble=4, master_seed=0)
    with pytest.raises(StepUnderflowError) as exc:
        simulate(cfg)
    err = exc.value
    assert len(err.state) == 2 and all(math.isfinite(v) for v in err.state)
    assert 0 <= err.root < len(b2.positive)
    assert 0 < err.dt <= cfg.dt_base * cfg.dt_floor_factor
    with pytest.raises(StepUnderflowError) as replayed:
        replay_path(cfg, err.path_index)
    assert replayed.value.state == err.state
    assert replayed.value.root == err.root
    assert replayed.value.dt == err.dt


@pytest.mark.parametrize("cpus", ONE_AND_TWO_CPUS)
def test_chunked_step_underflow_names_a_replayable_path(monkeypatch, set_cpus, cpus):
    # in chunks of 3, the report names a path of the first chunk that sticks,
    # raised here at one CPU and sent back from a worker at two
    monkeypatch.setattr(sde_mod, "CHUNK", 3)
    set_cpus(cpus)
    b2 = build_root_system("B", 2, (20.0, 0.01), scale="normalized")
    cfg = SimConfig(system=b2, x0=(0.5, 1.0), horizon=10.0, dt_base=0.2,
                    dt_floor_factor=1.0, ensemble=10, master_seed=0)
    with pytest.raises(StepUnderflowError) as exc:
        simulate(cfg)
    err = exc.value
    assert 0 <= err.path_index < cfg.ensemble
    with pytest.raises(StepUnderflowError) as replayed:
        replay_path(cfg, err.path_index)
    assert replayed.value.path_index == err.path_index
    assert replayed.value.state == err.state
    assert replayed.value.root == err.root
    assert replayed.value.dt == err.dt


def test_overflowing_drift_raises(bounded_stepper):
    # k = 1e308 is finite, but k / (alpha . x) overflows and the step is NaN
    a2 = build_root_system("A", 2, (1e308,))
    cfg = SimConfig(system=a2, x0=(0.01, 0.02, 0.03), horizon=1.0, ensemble=5, master_seed=1)
    with pytest.raises(SamplingError, match="not finite"):
        simulate(cfg)


def test_moment_law_radial():
    cfg = _cfg(system=A2, x0=A2_X0, horizon=1.0, ensemble=2000, master_seed=3)
    rep = moment_law_report(cfg)
    gamma = sum(float(A2.roots[i].multiplicity) for i in A2.positive)
    assert rep.predicted == pytest.approx((3 + 2 * gamma) * 1.0)
    assert abs(rep.z_score) < 3.0
    assert rep.within(3.0)


def test_moment_law_jumping():
    cfg = _cfg(system=B2, x0=B2_X0, horizon=0.5, ensemble=2000, jumps=True, master_seed=5)
    res = simulate(cfg)
    rep = moment_from_result(cfg, res)
    assert abs(rep.z_score) < 3.0


def test_one_path_moment_has_no_z_score():
    rep = moment_law_report(_cfg(ensemble=1))
    assert rep.std_error == 0.0 and rep.observed != rep.predicted
    assert rep.z_score is None
    assert rep.within(3.0) is False


def test_trajectory_csv(tmp_path):
    cfg = _cfg(system=B2, x0=B2_X0, jumps=True)
    traj = replay_path(cfg, 2)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("t,")
    assert len(rows) == len(traj.times) + 1
    # repr round-trip: states survive text form bit-exactly
    last = rows[-1].split(",")
    assert float(last[0]) == traj.times[-1]
    assert float(last[1]) == traj.states[-1][0]


# -- classical root oracles ---------------------------------------------------


def test_hermite_roots_two_point():
    z = hermite_roots(2)
    assert z == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)


def test_hermite_roots_symmetry_and_interlacing():
    for n in range(2, 21):
        z = hermite_roots(n)
        assert np.all(np.diff(z) > 0)
        assert z == pytest.approx(list(-z[::-1]), abs=1e-13)
    with pytest.raises(ValueError):
        hermite_roots(0)
    with pytest.raises(ValueError):
        hermite_roots(HERMITE_CAP + 1)


def test_hermite_electrostatics():
    for n in (2, 5, 12, 20):
        assert hermite_electrostatic_residual(hermite_roots(n)) < 1e-10


def test_laguerre_roots_and_electrostatics():
    for n, a in ((3, 0.0), (6, 0.0), (5, 2.0)):
        z = laguerre_roots(n, a)
        assert np.all(z > 0)
        assert laguerre_electrostatic_residual(z, a) < 1e-10
    # scipy cross-check at one modest size
    from scipy.special import roots_laguerre

    z = laguerre_roots(7, 0.0)
    assert z == pytest.approx(roots_laguerre(7)[0], rel=1e-12)
    with pytest.raises(ValueError):
        laguerre_roots(HERMITE_CAP + 1)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, -1.0])
def test_laguerre_roots_refuse_a_without_an_answer(a):
    # NaN slipped past a <= -1 and, like inf, ended in LinAlgError
    with pytest.raises(ValueError, match="a must be finite and exceed -1"):
        laguerre_roots(3, a)


def test_jacobi_roots_bit_identical_to_scipy_tridiagonal_solver():
    # the dense eigvalsh route gives the same bits as LAPACK's tridiagonal
    # solver behind scipy, so freeze targets and roots output do not move
    from scipy.linalg import eigh_tridiagonal

    rng = random.Random(5)
    a_values = [0, 0.5, 1, -0.5, -0.99, 2, 3.5, 10, 100, 1000]
    a_values += [rng.uniform(-0.999, 50) for _ in range(40)]
    for n in range(1, HERMITE_CAP + 1):
        off = np.sqrt(np.arange(1, n) / 2.0)
        want = eigh_tridiagonal(np.zeros(n), off, eigvals_only=True)
        assert np.array_equal(hermite_roots(n), want), n
        j = np.arange(1, n)
        for a in a_values:
            diag = 2.0 * np.arange(n) + a + 1.0
            want = eigh_tridiagonal(diag, np.sqrt(j * (j + a)), eigvals_only=True)
            assert np.array_equal(laguerre_roots(n, a), want), (n, a)


def test_package_import_loads_no_scipy():
    # nor multiprocessing, which the worker pool imports only when it forks;
    # one-chunk runs, such as a small freeze, never fork even at two CPUs
    src = os.path.dirname(os.path.dirname(dunkl_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import os, sys, dunkl_lab, dunkl_lab.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "                  ('scipy', 'multiprocessing', 'concurrent'))\n"
        "print(loaded())\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "dunkl_lab.cli.main(['freeze', '--n', '3', '--k', '100', '--paths', '8', '--no-ode'])\n"
        "print(loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]"), out.stdout


# -- freezing ----------------------------------------------------------------


def test_freezing_experiment_small():
    # small sanity run: large k already sits near the frozen configuration
    out = freezing_experiment(3, (1e4,), t=1.0, n_paths=12, seed=2)
    assert len(out) == 1
    sample = out[0]
    assert sample.k == 1e4
    assert sample.mean_sup < 0.1
    assert sample.max_sup >= sample.mean_sup
    assert sample.target == pytest.approx(hermite_roots(3))


def test_freezing_monotone_in_k():
    out = freezing_experiment(3, (1e2, 1e4), t=1.0, n_paths=24, seed=4)
    assert out[1].mean_sup < out[0].mean_sup


def test_laguerre_freezing_probe_b3():
    # B3 with equal multiplicities freezes onto sqrt of the L_3^(0) zeros
    lo = laguerre_freezing_probe(3, 1e2, n_paths=50, seed=1)
    hi = laguerre_freezing_probe(3, 1e4, n_paths=50, seed=1)
    assert hi["target"] == pytest.approx(list(np.sqrt(laguerre_roots(3, 0.0))))
    assert hi["mean_sup"] < 0.05
    assert hi["mean_sup"] < lo["mean_sup"]


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_freezing_refuses_k_without_an_answer(k):
    # k = 0 gave mean_sup inf after a divide-by-zero warning
    with pytest.raises(ConfigError, match="k must be positive and finite"):
        freezing_experiment(3, [1e2, k], n_paths=4)
    with pytest.raises(ConfigError, match="k must be positive and finite"):
        laguerre_freezing_probe(3, k, n_paths=4)


@pytest.mark.parametrize("t_end", [0.0, 1e-13, 1e-12, math.nan, math.inf])
def test_freeze_ode_refuses_t_end_without_an_answer(t_end):
    # 0 raised a math domain error, 1e-13 returned the unconverged start and
    # NaN or inf spun into SamplingError
    with pytest.raises(ValueError, match="t_end must be finite and above 1e-12"):
        deterministic_freeze_ode(3, t_end)


def test_deterministic_freeze_ode():
    for n in (2, 4, 8):
        out = deterministic_freeze_ode(n)
        assert out["sup_error"] < 1e-6
        assert out["target"] == pytest.approx(hermite_roots(n), abs=1e-6)


def test_deterministic_freeze_ode_large_n():
    for n in (12, 20, 50):
        assert deterministic_freeze_ode(n)["sup_error"] < 1e-6


def test_dopri5_exponential_decay():
    # global error over ten units of s stays within ten times rtol
    y0 = np.array([1.0, -2.5, 1e-3])
    got = sde_mod._dopri5(lambda y: -0.5 * y, y0, -3.0, 7.0, rtol=1e-13, atol=1e-16)
    assert got == pytest.approx(y0 * math.exp(-5.0), rel=1e-12, abs=0)


def test_freeze_ode_step_budget_raises(monkeypatch):
    monkeypatch.setattr(sde_mod, "ODE_MAX_STEPS", 1)
    with pytest.raises(SamplingError, match="more than 1 steps"):
        deterministic_freeze_ode(3)
