import numpy as np
import pytest

from symoc.abstraction import abstract_costs, build_abstraction
from symoc.core import INF, STOP, ControllerTable, CostModel
from symoc.errors import InputError
from symoc.grid import GridCover, InputGrid
from symoc.relations import RefinedController
from symoc.sets import Box, EmptySet
from symoc.simulate import POLICIES, VerifyReport, batch_verify, make_policy, run_closed_loop, sample_winning_states
from symoc.solver import solve
from symoc.systems import SystemSpec, get_system

from oracles import point_G, reference_run_closed_loop


def build_pipeline(spec, eta, mu, k, gamma):
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
    sys, reach = spec.build(cover, inputs, k, gamma)
    problem, cert = build_abstraction(reach, cover, inputs, ac)
    result = solve(problem)
    ctrl = RefinedController(result.c, cover, inputs.representatives)
    return sys, cover, inputs, model, problem, result, ctrl


@pytest.fixture(scope="module")
def logistic_400():
    spec = get_system("logistic")
    return build_pipeline(spec, np.array([1.0 / 400.0]), np.array([1.0]), 1, 0.0)


@pytest.fixture(scope="module")
def pendulum_p1():
    spec = get_system("pendulum")
    return build_pipeline(spec, *spec.presets["p1"])


@pytest.fixture(scope="module")
def chauffeur_p1():
    spec = get_system("chauffeur")
    return build_pipeline(spec, *spec.presets["p1"])


@pytest.fixture(scope="module")
def logistic_40():
    spec = get_system("logistic")
    return build_pipeline(spec, *spec.presets["N40"])


@pytest.mark.parametrize("pipeline", ["pendulum_p1", "chauffeur_p1", "logistic_40"])
def test_lockstep_runs_match_the_per_run_oracle(pipeline, request):
    plant, cover, inputs, model, problem, result, ctrl = request.getfixturevalue(pipeline)
    W, seed = result.W, 17
    rng = np.random.default_rng(23)
    sampled = sample_winning_states(W, cover, rng, 24)
    # a winning cell whose table entry stops: its center stops at step 0
    stop_cell = np.flatnonzero((ctrl.table.choice[: cover.n_cells] == STOP) & np.isfinite(W[: cover.n_cells]))[0]
    stop_lo, stop_hi = cover.cell_boxes([stop_cell])
    # points on the faces between two cells, on every axis
    face_lo, face_hi = cover.cell_boxes(rng.choice(np.flatnonzero(np.isfinite(W[: cover.n_cells])), size=4))
    faces = np.where(face_hi < cover.upper, face_hi, face_lo)
    outside = cover.upper + cover.eta  # overflow: stops at once with bound inf
    starts = np.concatenate([sampled[:12], (stop_lo + stop_hi) / 2, faces, [outside], sampled[12:]])
    stop_run, outside_run = 12, 17
    budgets = (2, cover.n_cells + 1)  # the short one cuts runs off
    for policy in POLICIES:
        for max_steps in budgets:
            got = run_closed_loop(plant, ctrl, W, model, starts, policy, seed, max_steps)
            want = [
                reference_run_closed_loop(plant, ctrl, x0, make_policy(policy, seed + 7919 * i), max_steps, model, W=W)
                for i, x0 in enumerate(starts)
            ]
            assert [t.to_csv() for t in got] == [t.to_csv() for t in want], (policy, max_steps)
            reports = VerifyReport(), VerifyReport()
            for a, b in zip(got, want):
                assert (a.cost, a.bound, a.stopped) == (b.cost, b.bound, b.stopped)
                reports[0].add(a, 1e-9)
                reports[1].add(b, 1e-9)
            assert reports[0].to_text() == reports[1].to_text()
            assert got.steps == sum(t.steps for t in want)
            assert got[stop_run].stopped and got[stop_run].steps == 0
            assert got[outside_run].stopped and got[outside_run].steps == 0 and got[outside_run].bound == INF
            if max_steps == budgets[0]:
                assert any(not t.stopped and t.steps == max_steps and t.cost == INF for t in got)


def test_stop_cell_costs_terminal_value(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    x0 = [0.5]  # inside the target: the table stops immediately
    traj = run_closed_loop(plant, ctrl, result.W, model, [x0], "zero", 0, 10)[0]
    assert traj.stopped and traj.steps == 0
    assert traj.cost == 0.0 == point_G(model, np.array(x0))


def test_logistic_orbit_run(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    traj = run_closed_loop(plant, ctrl, result.W, model, [[0.9]], "zero", 0, 50)[0]
    assert traj.stopped
    assert traj.steps == 5  # orbit enters the target at the fifth iterate
    assert traj.cost == 5.0
    assert traj.cost <= traj.bound


def test_non_stopping_run_costs_infinity(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    # a controller that never stops anywhere
    never = ControllerTable(np.zeros(cover.n_states, dtype=np.int64))
    ctrl2 = RefinedController(never, cover, inputs.representatives)
    traj = run_closed_loop(plant, ctrl2, None, model, [[0.9]], "zero", 0, 8)[0]
    assert not traj.stopped
    assert traj.cost == INF


def test_run_rejects_bad_args(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    with pytest.raises(InputError):
        run_closed_loop(plant, ctrl, None, model, [[0.5]], "zero", 0, 0)
    with pytest.raises(InputError):
        make_policy("nope", 0)
    with pytest.raises(InputError):
        RefinedController(ControllerTable(np.zeros(3, dtype=np.int64)), cover, inputs.representatives)


def test_trajectory_csv_shape(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    traj = run_closed_loop(plant, ctrl, result.W, model, [[0.9]], "zero", 0, 50)[0]
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x1,u,stop,cum_cost"
    assert len(lines) == traj.steps + 2
    assert lines[-1].split(",")[3] == "1"  # stop bit on the final row


def test_batch_verify_logistic_zero_violations(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    report = batch_verify(
        plant, ctrl, result.W, cover, model, sample_count=1000,
        policy_name="zero", seed=7, max_steps=64,
    )
    assert report.runs == 1000
    assert report.violations == 0
    assert report.non_stopping == 0
    assert "violations=0" in report.to_text()


def test_closed_loop_cost_sandwiched_by_exact_oracle(logistic_400):
    # exact value <= realized cost <= abstract bound on sampled runs
    from symoc.analysis import logistic_exact_sublevels

    from oracles import logistic_exact_value

    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    sub = logistic_exact_sublevels((0.415, 0.69), 24)
    rng = np.random.default_rng(8)
    starts = sample_winning_states(result.W, cover, rng, 300)
    for x0, traj in zip(starts, run_closed_loop(plant, ctrl, result.W, model, starts, "zero", 0, 64)):
        v = logistic_exact_value(sub, float(x0[0]))
        assert v <= traj.cost <= traj.bound


def test_static_field_with_all_covering_target():
    spec = SystemSpec(
        name="static",
        k_lower=np.array([0.0]),
        k_upper=np.array([1.0]),
        input_pieces=[([0.0], [0.0])],
        cost_kind="reach_avoid",
        target=Box([-1.0], [2.0], open_=True),
        obstacle=EmptySet(),
        ode=dict(f=lambda x, u, out: out.fill(0.0), tau=0.5, w=[0.0], A0=[0.1], A1=[[0.0]], kprime_margin=0.5, eps=0.1),
    )
    sys, cover, inputs, model, problem, result, ctrl = build_pipeline(
        spec, np.array([0.25]), np.array([1.0]), 1, 0.0
    )
    assert np.all(result.W[: cover.n_cells] == 0.0)
    report = batch_verify(sys, ctrl, result.W, cover, model, 50, "uniform", 3, 10)
    assert report.violations == 0
    assert report.max_ratio == 0.0  # all costs are exactly zero


def test_determinism_bit_for_bit(pendulum_p1):
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    x0 = sample_winning_states(result.W, cover, np.random.default_rng(5), 1)[0]
    runs = [run_closed_loop(sys, ctrl, result.W, model, [x0], "uniform", 123, 400)[0] for _ in range(2)]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[0].to_csv() == runs[1].to_csv()
    # different seed, different trajectory (disturbance actually acts)
    other = run_closed_loop(sys, ctrl, result.W, model, [x0], "uniform", 124, 400)[0]
    assert not np.array_equal(runs[0].states, other.states)


def test_starts_and_run_seeds_follow_the_recorded_streams(pendulum_p1):
    # simulate's files stay reproducible only while these streams hold: one
    # cell draw for all starts, then one uniform draw per start in its cell
    # box, in order; run i draws its disturbances under seed + 7919 * i
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    starts = sample_winning_states(result.W, cover, 9, 4)
    rng = np.random.default_rng(9)
    cells = rng.choice(np.flatnonzero(np.isfinite(result.W[: cover.n_cells])), size=4)
    los, his = cover.cell_boxes()
    assert np.array_equal(starts, [rng.uniform(los[c], his[c]) for c in cells])
    runs = run_closed_loop(sys, ctrl, result.W, model, starts, "uniform", 5, 60)
    for i, traj in enumerate(runs):
        want = reference_run_closed_loop(sys, ctrl, starts[i], make_policy("uniform", 5 + 7919 * i), 60, model, W=result.W)
        assert traj.steps > 0 and traj.to_csv() == want.to_csv()


def test_pendulum_runs_reach_target_within_energy_bound(pendulum_p1):
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    rng = np.random.default_rng(6)
    starts = sample_winning_states(result.W, cover, rng, 20)
    for i, x0 in enumerate(starts):
        traj = run_closed_loop(sys, ctrl, result.W, model, [x0], "uniform", 100 + i, cover.n_cells + 1)[0]
        assert traj.stopped
        assert model.target.cell_inside_batch(traj.states[-1], traj.states[-1])[0]
        assert traj.cost <= traj.bound + 1e-9


def test_extremal_policy_respects_bounds(pendulum_p1):
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    pol = make_policy("extremal", 11)
    pieces = pol(sys.w, 16)
    assert np.all(np.abs(pieces) <= sys.w)
    assert np.all(np.isin(pieces[:, 1], [-0.1, 0.1]))
    report = batch_verify(
        sys, ctrl, result.W, cover, model, sample_count=25,
        policy_name="extremal", seed=21, max_steps=cover.n_cells + 1, tol=1e-9,
    )
    assert report.violations == 0
