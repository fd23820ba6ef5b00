import itertools
import math

import numpy as np
import pytest

import symoc.reach
from symoc.errors import InputError
from symoc.abstraction import SampledReach
from symoc.grid import GridCover, InputGrid
from symoc.reach import ReachPlan, SampledSystem, attain_over_batch, growth_bound, integrate_nominal
from symoc.systems import get_system

from oracles import attain_over, boxes_contain, chauffeur_nominal_exact, plain_rk4, returning


def make_system(f, w, A1, tau=0.1, A0=None, box=4.0, margin=None, eps=0.1):
    dim = len(w)
    A0 = np.full(dim, 1.0) if A0 is None else np.asarray(A0, float)
    margin = float(tau * A0.max() + 1.0) if margin is None else margin
    return SampledSystem(
        f=f,
        w=np.asarray(w, float),
        tau=tau,
        A0=A0,
        A1=np.asarray(A1, float),
        k_lower=np.full(dim, -box),
        k_upper=np.full(dim, box),
        kprime_margin=margin,
        eps=eps,
    )


def zero_field(x, u, out):
    out.fill(0.0)


def identity_field(x, u, out):
    np.copyto(out, x)


def reach_one(sys, cell, u, k, theta, gamma, eta_norm):
    """attain_over_batch on a single cell: (lo, hi, escaped, slack) with one
    row of lo/hi per branch."""
    plan = ReachPlan(sys, cell[1], k, theta, gamma, eta_norm)
    [(_, lo, hi, escaped)] = attain_over_batch(plan, np.asarray(cell[0], dtype=float)[:, None], u)
    return lo[:, :, 0].T, hi[:, :, 0].T, bool(escaped[0]), plan.slack


def perturbed_endpoint(sys, x0, u, disturbances, substeps_per_piece=8):
    """Independent trajectory oracle: RK4 with a piecewise-constant
    disturbance, one piece per entry of ``disturbances``."""
    x = np.asarray(x0, dtype=float)[:, None]
    h = sys.tau / len(disturbances)
    for d in disturbances:
        x = plain_rk4(returning(sys.f, u, d[:, None]), x, h, substeps_per_piece)
    return x[:, 0]


def test_constant_zero_field_is_identity():
    sys = make_system(zero_field, w=[0.0], A1=[[0.0]])
    x = integrate_nominal(sys, np.array([[0.3]]), np.array([0.0]), sys.tau, 5)
    assert x[0, 0] == 0.3


def test_exponential_flow_matches_closed_form():
    sys = make_system(identity_field, w=[0.0], A1=[[1.0]])
    x = integrate_nominal(sys, np.array([[1.0]]), np.array([0.0]), 0.1, 10)
    assert abs(x[0, 0] - math.exp(0.1)) < 1e-8


def test_chauffeur_nominal_matches_rotation_oracle():
    spec = get_system("chauffeur")
    sys = spec.sampled_system()
    rng = np.random.default_rng(21)
    for _ in range(25):
        x0 = rng.uniform(-4, 4, size=2)
        u = np.array([rng.choice([-1.0, -0.4, 0.0, 0.7, 1.0])])
        got = integrate_nominal(sys, x0[:, None].copy(), u, sys.tau, 10)[:, 0]
        want = chauffeur_nominal_exact(x0, u, sys.tau)
        assert np.allclose(got, want, atol=1e-10)


def test_growth_bound_trivial_cases():
    sys = make_system(zero_field, w=[0.0], A1=[[0.0]])
    r = growth_bound(sys, np.array([0.5]), 0.2, 5)
    assert r[0] == 0.5
    sys = make_system(zero_field, w=[0.1], A1=[[0.0]], tau=0.2)
    r = growth_bound(sys, np.array([0.5]), 0.2, 5)
    assert r[0] == pytest.approx(0.52, abs=1e-14)


def test_growth_bound_scalar_exponential():
    a = 0.7
    sys = make_system(zero_field, w=[0.0], A1=[[a]])
    r = growth_bound(sys, np.array([0.3]), 0.5, 40)
    assert abs(r[0] - 0.3 * math.exp(a * 0.5)) < 1e-8


def test_growth_bound_positivity_and_monotonicity():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    rng = np.random.default_rng(22)
    for _ in range(50):
        r0 = rng.uniform(0, 0.3, size=2)
        r1 = growth_bound(sys, r0, sys.tau, 5)
        r2 = growth_bound(sys, r0 + rng.uniform(0, 0.2, size=2), sys.tau, 5)
        assert np.all(r1 >= 0)
        assert np.all(r2 >= r1)


def test_attain_over_identity_dynamics():
    sys = make_system(zero_field, w=[0.0, 0.0], A1=np.zeros((2, 2)))
    cell = (np.array([0.2, -0.1]), np.array([0.05, 0.05]))
    for k in (1, 2, 4):
        lo, hi, escaped, _ = reach_one(sys, cell, np.array([0.0]), k=k, theta=3.0, gamma=0.0, eta_norm=0.1)
        assert len(lo) == 1
        assert np.allclose(lo[0], cell[0] - cell[1])
        assert np.allclose(hi[0], cell[0] + cell[1])
        assert not escaped


def test_attain_over_exponential_closed_form():
    sys = make_system(identity_field, w=[0.0], A1=[[1.0]], tau=0.1, A0=[6.0])
    lo, hi, _, _ = reach_one(sys, (np.array([1.0]), np.array([0.1])), np.array([0.0]), k=1, theta=100.0, gamma=0.0, eta_norm=0.1)
    assert len(lo) == 1
    assert (lo[0][0] + hi[0][0]) / 2 == pytest.approx(math.exp(0.1), abs=1e-8)
    assert (hi[0][0] - lo[0][0]) / 2 == pytest.approx(0.1 * math.exp(0.1), abs=1e-8)


def test_attain_over_gamma_monotone():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    cell = (np.array([0.0, 0.0]), np.array([0.04, 0.04]))
    lo_s, hi_s, _, _ = reach_one(sys, cell, np.array([0.0]), 1, 1.0, 1e-7, 0.08)
    lo_l, hi_l, _, _ = reach_one(sys, cell, np.array([0.0]), 1, 1.0, 1e-3, 0.08)
    assert np.all(hi_l - lo_l >= hi_s - lo_s)


def test_attain_over_subdivision_tightens():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    cell = (np.array([1.0, 0.5]), np.array([0.04, 0.04]))
    u = np.array([1.0])
    coarse = reach_one(sys, cell, u, k=4, theta=1.0, gamma=0.0, eta_norm=0.08)[:2]
    fine = reach_one(sys, cell, u, k=4, theta=0.5, gamma=0.0, eta_norm=0.08)[:2]
    assert len(fine[0]) >= len(coarse[0])

    rng = np.random.default_rng(23)
    # the finer union covers a subset of the coarser one (same cloud, less slop)
    box_lo, box_hi = coarse[0].min(axis=0) - 0.05, coarse[1].max(axis=0) + 0.05
    probes = rng.uniform(box_lo, box_hi, size=(5000, 2))
    n_fine = sum(boxes_contain(*fine, p) for p in probes)
    n_coarse = sum(boxes_contain(*coarse, p) for p in probes)
    assert n_fine <= n_coarse

    for _ in range(200):
        x0 = rng.uniform(cell[0] - cell[1], cell[0] + cell[1])
        d = rng.uniform(-sys.w, sys.w, size=(8, 2))
        endpoint = perturbed_endpoint(sys, x0, u, d)
        assert boxes_contain(*coarse, endpoint)
        assert boxes_contain(*fine, endpoint)


def test_attain_over_batch_matches_scalar_path(monkeypatch):
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    rng = np.random.default_rng(24)
    centers = rng.uniform(-1.0, 1.0, size=(20, 2))
    r0 = np.array([0.04, 0.04])
    # theta 0.5 needs two split levels (four branches), so split caps 1 and 3 cap
    for u, theta, max_splits in itertools.product((np.array([-2.0]), np.array([0.2])), (1.0, 0.5), (1, 3, 64)):
        monkeypatch.setattr(symoc.reach, "MAX_SPLITS", max_splits)
        plan = ReachPlan(sys, r0, 2, theta, 1e-7, 0.08)
        [(_, lo, hi, escaped)] = attain_over_batch(plan, centers.T.copy(), u)
        assert plan.capped == (theta == 0.5 and max_splits < 4)
        for i, c in enumerate(centers):
            want_c, want_r, want_escaped, want_slack = attain_over(
                sys, (c, r0), u, 2, theta, 1e-7, 0.08, max_splits
            )
            # the same arithmetic in the same order: equal to the last bit
            assert np.array_equal(np.sort(lo[:, :, i].T, axis=0), np.sort(want_c - want_r, axis=0))
            assert np.array_equal(np.sort(hi[:, :, i].T, axis=0), np.sort(want_c + want_r, axis=0))
            assert bool(escaped[i]) == want_escaped
            assert plan.slack == want_slack


def small_reaches():
    """(theta, make) pairs: a theta and a function building SampledReach at
    it on a small pendulum or chauffeur cover; theta 0.5 is split-heavy
    (four branches per input on the pendulum)."""
    for name, eta, mu, theta in (("pendulum", [0.8, 0.6], [1.0], 1.0), ("pendulum", [0.8, 0.6], [1.0], 0.5), ("chauffeur", [0.5, 0.5], [0.5], 2.0)):
        spec = get_system(name)
        cover = GridCover(spec.k_lower, spec.k_upper, np.array(eta))
        inputs = InputGrid(spec.input_pieces, np.array(mu))
        yield theta, lambda: SampledReach(spec.sampled_system(), cover, inputs, 2, theta, 1e-7)


def test_batch_ranges_do_not_depend_on_the_chunk_size(monkeypatch):
    for theta, make in small_reaches():
        for max_splits in (1, 3, 64):
            monkeypatch.setattr(symoc.reach, "MAX_SPLITS", max_splits)
            reach = make()
            assert reach.plan.capped == (theta == 0.5 and max_splits < 4)
            assert reach.plan.branches == ({1: 1, 3: 2, 64: 4}[max_splits] if theta == 0.5 else 1)
            got = {}
            for chunk in (7, reach.cover.n_cells + 1):
                monkeypatch.setattr(symoc.reach, "CHUNK_CELLS", chunk)
                got[chunk] = [reach.batch_ranges(u) for u in range(len(reach.inputs))]
            for (branches, escaped, slack, capped), (want_branches, want_escaped, want_slack, want_capped) in zip(*got.values()):
                assert len(branches) == len(want_branches)
                for branch, want in zip(branches, want_branches):
                    assert all(np.array_equal(a, b) for a, b in zip(branch, want))  # lo_idx, hi_idx, empty
                assert np.array_equal(escaped, want_escaped)
                assert slack == want_slack and capped == want_capped


def test_monte_carlo_containment_pendulum_origin_cell():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    eta, mu, k, gamma = spec.presets["p1"]
    cell = (np.array([0.0, 0.0]), eta / 2.0)
    lo, hi, escaped, _ = reach_one(sys, cell, np.array([0.0]), k, spec.theta, gamma, float(eta.max()))
    assert not escaped
    rng = np.random.default_rng(25)
    for _ in range(300):
        x0 = rng.uniform(cell[0] - cell[1], cell[0] + cell[1])
        d = rng.uniform(-sys.w, sys.w, size=(10, 2))
        assert boxes_contain(lo, hi, perturbed_endpoint(sys, x0, np.array([0.0]), d))


PLANT_BOUND_TOL = 1e-9  # relative, on A0: rounding of f; A1 takes 1e-6 of its largest entry for the differences


@pytest.mark.parametrize("name", ["pendulum", "chauffeur"])
def test_plant_bounds_hold_on_the_hull(name):
    # A0 bounds |f| + w and A1 the Jacobian of f (signed on the diagonal,
    # absolute off it) on the safety hull, under every input of every
    # preset's grid: sampled on a 101-point grid per axis, corners included,
    # and 20,000 seeded points, the Jacobian by central differences
    spec = get_system(name)
    sys = spec.sampled_system()
    lo, hi = sys.hull_lower[:, None], sys.hull_upper[:, None]
    axes = np.meshgrid(*(np.linspace(a, b, 101) for a, b in zip(lo[:, 0], hi[:, 0])), indexing="ij")
    x = np.concatenate([np.stack([a.ravel() for a in axes]),
                        np.random.default_rng(10).uniform(lo, hi, size=(sys.dim, 20_000))], axis=1)
    inputs = np.unique(np.concatenate(
        [InputGrid(spec.input_pieces, mu).representatives for _, mu, _, _ in spec.presets.values()]), axis=0)
    h = 1e-6
    steps = h * np.eye(sys.dim)[:, :, None]
    out, plus, minus = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    size, jac = np.zeros(sys.dim), np.full((sys.dim, sys.dim), -np.inf)
    for u in inputs:
        sys.f(x, u[:, None], out)
        size = np.maximum(size, np.abs(out).max(axis=1))
        for j in range(sys.dim):
            sys.f(x + steps[j], u[:, None], plus)
            sys.f(x - steps[j], u[:, None], minus)
            column = (plus - minus) / (2 * h)
            column[np.arange(sys.dim) != j] = np.abs(column[np.arange(sys.dim) != j])
            jac[:, j] = np.maximum(jac[:, j], column.max(axis=1))
    assert np.all(size + sys.w <= sys.A0 * (1 + PLANT_BOUND_TOL)), (size + sys.w, sys.A0)
    assert np.all(jac <= sys.A1 + 1e-6 * np.abs(sys.A1).max()), (jac, sys.A1)
    # the samples reach the bounds within 4%: the hull's corners are sampled
    assert np.allclose(size + sys.w, sys.A0, rtol=0.04), (size + sys.w, sys.A0)


def test_escape_detection():
    spec = get_system("chauffeur")
    sys = spec.sampled_system()
    # a cell outside the domain near the hull edge escapes under hard turn
    cell = (np.array([6.95, 0.0]), np.array([0.2, 0.2]))
    assert reach_one(sys, cell, np.array([1.0]), 1, 2.0, 0.0, 0.03)[2]


def test_attain_over_rejects_bad_parameters():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    r0 = np.full(2, 0.04)
    for k, theta, gamma in ((0, 1.0, 0.0), (1, 0.0, 0.0), (1, -1.0, 0.0), (1, 1.0, -1.0), (1, math.nan, 0.0), (1, 1.0, math.inf)):
        with pytest.raises(InputError):
            ReachPlan(sys, r0, k, theta, gamma, 0.08)
    with pytest.raises(InputError):
        integrate_nominal(sys, np.zeros((2, 1)), np.array([0.0]), -1.0, 5)


def test_sampled_system_validation():
    with pytest.raises(InputError):
        SampledSystem(
            f=identity_field,
            w=[0.0],
            tau=0.1,
            A0=[1.0],
            A1=[[0.0, -1.0], [0.0, 0.0]],  # wrong shape and negative off-diagonal
            k_lower=[0.0],
            k_upper=[1.0],
            kprime_margin=1.0,
            eps=0.1,
        )
    with pytest.raises(InputError):
        SampledSystem(
            f=identity_field,
            w=[0.0],
            tau=1.0,
            A0=[5.0],
            A1=[[0.0]],
            k_lower=[0.0],
            k_upper=[1.0],
            kprime_margin=1.0,  # tau * ||A0|| = 5 > margin
            eps=0.1,
        )


def test_interval_union_contains():
    # the containment oracle the Monte-Carlo tests above rely on
    lo = np.array([[-1.0, -1.0], [1.5, -0.5]])
    hi = np.array([[1.0, 1.0], [2.5, 0.5]])
    assert boxes_contain(lo, hi, [0.5, -0.7])
    assert boxes_contain(lo, hi, [2.5, 0.5])
    assert not boxes_contain(lo, hi, [1.4, 0.0])
