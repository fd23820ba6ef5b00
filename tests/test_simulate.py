import numpy as np
import pytest

from symoc.abstraction import MapReach, SampledReach, abstract_costs, build_abstraction
from symoc.core import INF, ControllerTable, cost_model
from symoc.errors import InputError
from symoc.grid import GridCover, InputGrid
from symoc.reach import SampledSystem
from symoc.relations import serial_compose
from symoc.sets import Box, EmptySet
from symoc.simulate import (
    batch_verify,
    make_policy,
    perturbed_step,
    run_closed_loop,
    sample_winning_states,
)
from symoc.solver import solve
from symoc.systems import LogisticMap, get_system


def build_pipeline(spec, eta, mu, k, gamma, plant=None, theta=None):
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, spec.A2, spec.A3)
    if spec.kind == "map":
        reach = MapReach(plant, cover)
        sys = plant
    else:
        sys = spec.sampled_system()
        reach = SampledReach(sys, cover, inputs, k, theta or spec.theta, gamma)
    problem, cert = build_abstraction(reach, cover, inputs, ac)
    result = solve(problem)
    ctrl = serial_compose(result.c, cover, inputs.representatives)
    return sys, cover, inputs, model, problem, result, ctrl


@pytest.fixture(scope="module")
def logistic_400():
    spec = get_system("logistic")
    return build_pipeline(spec, np.array([1.0 / 400.0]), np.array([1.0]), 1, 0.0, plant=LogisticMap())


@pytest.fixture(scope="module")
def pendulum_p1():
    spec = get_system("pendulum")
    eta, mu, k = spec.presets["p1"]
    return build_pipeline(spec, eta, mu, k, spec.preset_gamma["p1"])


def test_stop_cell_costs_terminal_value(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    x0 = [0.5]  # inside the target: the table stops immediately
    traj = run_closed_loop(plant, ctrl, x0, make_policy("zero", 0), 10, model, W=result.W)
    assert traj.stopped and traj.steps == 0
    assert traj.cost == 0.0 == model.G(np.array(x0))


def test_logistic_orbit_run(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    traj = run_closed_loop(plant, ctrl, [0.9], make_policy("zero", 0), 50, model, W=result.W)
    assert traj.stopped
    assert traj.steps == 5  # orbit enters the target at the fifth iterate
    assert traj.cost == 5.0
    assert traj.cost <= traj.bound


def test_non_stopping_run_costs_infinity(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    # a controller that never stops anywhere
    never = ControllerTable(np.zeros(cover.n_states, dtype=np.int64))
    ctrl2 = serial_compose(never, cover, inputs.representatives)
    traj = run_closed_loop(plant, ctrl2, [0.9], make_policy("zero", 0), 8, model)
    assert not traj.stopped
    assert traj.cost == INF


def test_run_rejects_bad_args(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    with pytest.raises(InputError):
        run_closed_loop(plant, ctrl, [0.5], make_policy("zero", 0), 0, model)
    with pytest.raises(InputError):
        make_policy("nope", 0)
    with pytest.raises(InputError):
        serial_compose(ControllerTable(np.zeros(3, dtype=np.int64)), cover, inputs.representatives)


def test_trajectory_csv_shape(logistic_400):
    plant, cover, inputs, model, problem, result, ctrl = logistic_400
    traj = run_closed_loop(plant, ctrl, [0.9], make_policy("zero", 0), 50, model, W=result.W)
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
    for x0 in starts:
        traj = run_closed_loop(plant, ctrl, x0, make_policy("zero", 0), 64, model, W=result.W)
        v = logistic_exact_value(sub, float(x0[0]))
        assert v <= traj.cost <= traj.bound


def test_static_field_with_all_covering_target():
    sys = SampledSystem(
        f=lambda x, u: np.zeros_like(x),
        w=[0.0],
        tau=0.5,
        A0=[0.1],
        A1=[[0.0]],
        k_lower=[0.0],
        k_upper=[1.0],
        kprime_margin=0.5,
        eps=0.1,
    )
    spec_like = type(
        "S",
        (),
        dict(
            kind="ode",
            k_lower=sys.k_lower,
            k_upper=sys.k_upper,
            input_pieces=[([0.0], [0.0])],
            cost_kind="reach_avoid",
            target=Box([-1.0], [2.0], open_=True),
            obstacle=EmptySet(),
            A2=0.0,
            A3=0.0,
            theta=1.0,
            sampled_system=lambda self: sys,
        ),
    )()
    _, cover, inputs, model, problem, result, ctrl = build_pipeline(
        spec_like, np.array([0.25]), np.array([1.0]), 1, 0.0
    )
    assert np.all(result.W[: cover.n_cells] == 0.0)
    report = batch_verify(sys, ctrl, result.W, cover, model, 50, "uniform", 3, 10)
    assert report.violations == 0
    assert report.max_ratio == 0.0  # all costs are exactly zero


def test_determinism_bit_for_bit(pendulum_p1):
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    x0 = sample_winning_states(result.W, cover, np.random.default_rng(5), 1)[0]
    runs = [
        run_closed_loop(sys, ctrl, x0, make_policy("uniform", 123), 400, model, W=result.W)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[0].to_csv() == runs[1].to_csv()
    # different seed, different trajectory (disturbance actually acts)
    other = run_closed_loop(sys, ctrl, x0, make_policy("uniform", 124), 400, model, W=result.W)
    assert not np.array_equal(runs[0].states, other.states)


def test_pendulum_runs_reach_target_within_energy_bound(pendulum_p1):
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    rng = np.random.default_rng(6)
    starts = sample_winning_states(result.W, cover, rng, 20)
    for i, x0 in enumerate(starts):
        traj = run_closed_loop(
            sys, ctrl, x0, make_policy("uniform", 100 + i), cover.n_cells + 1, model, W=result.W
        )
        assert traj.stopped
        assert model.target.contains(traj.states[-1])
        assert traj.cost <= traj.bound + 1e-9


def test_extremal_policy_respects_bounds(pendulum_p1):
    sys, cover, inputs, model, problem, result, ctrl = pendulum_p1
    pol = make_policy("extremal", 11)
    pieces = pol.sample(sys.w, 16)
    assert np.all(np.abs(pieces) <= sys.w)
    assert np.all(np.isin(pieces[:, 1], [-0.1, 0.1]))
    report = batch_verify(
        sys, ctrl, result.W, cover, model, sample_count=25,
        policy_name="extremal", seed=21, max_steps=cover.n_cells + 1, tol=1e-9,
    )
    assert report.violations == 0
