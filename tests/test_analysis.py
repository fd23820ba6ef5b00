import numpy as np
import pytest

from symoc.analysis import (
    hypo_distance,
    hypograph_csv,
    logistic_exact_sublevels,
    logistic_exact_values,
    sublevels_csv,
)
from symoc.core import INF
from symoc.errors import InputError, SoundnessAlarm

from oracles import logistic_cell_sup_exact, logistic_exact_value, orbit_entry_time

D = (0.415, 0.69)


def logistic(x):
    return 4.0 * x * (1.0 - x)


def test_sublevel_zero_is_the_target():
    sub = logistic_exact_sublevels(D, 0)
    assert sub[0] == [(0.415, 0.69)]


def test_sublevels_are_nested():
    sub = logistic_exact_sublevels(D, 14)
    xs = np.linspace(0, 1, 3000)
    prev = logistic_exact_values(sub[:1], xs)
    for T in range(1, 15):
        cur = logistic_exact_values(sub[: T + 1], xs)
        assert np.all(cur <= prev)
        prev = cur


def test_exact_value_examples():
    sub = logistic_exact_sublevels(D, 12)
    assert logistic_exact_value(sub, 0.5) == 0.0
    assert logistic_exact_value(sub, 0.2) == 1.0  # 4 * 0.2 * 0.8 = 0.64 in D
    assert logistic_exact_value(sub, 0.9) == 5.0
    assert logistic_exact_value(sub, 1.0) == INF  # orbit 1 -> 0 -> 0 never enters


def test_exact_value_agrees_with_orbit_iteration():
    T_max = 16
    sub = logistic_exact_sublevels(D, T_max)
    rng = np.random.default_rng(41)
    xs = rng.uniform(0, 1, size=10_000)
    vals = logistic_exact_values(sub, xs)
    contains = lambda p: D[0] < p < D[1]
    for x, v in zip(xs[:400], vals[:400]):
        assert v == orbit_entry_time(float(x), contains, logistic, t_max=T_max)
    # vectorized batch agrees with the scalar lookup
    for x, v in zip(xs[::97], vals[::97]):
        assert logistic_exact_value(sub, float(x)) == v


def test_cell_sup_exact():
    sub = logistic_exact_sublevels(D, 10)
    assert logistic_cell_sup_exact(sub, 0.5, 0.52) == 0.0
    assert logistic_cell_sup_exact(sub, 0.41, 0.52) > 0.0  # sticks out of D
    assert logistic_cell_sup_exact(sub, 0.99, 1.0) == INF


def test_rejects_bad_target():
    with pytest.raises(InputError):
        logistic_exact_sublevels((0.0, 0.5), 3)
    with pytest.raises(InputError):
        logistic_exact_sublevels((0.5, 1.2), 3)


def test_hypo_distance_identical_functions():
    xs = np.linspace(0, 1, 200)
    V = np.sin(xs) + 1.0
    eps, cap, active = hypo_distance(xs, V, lambda ys: np.interp(ys, xs, V), eps_grid=0.001)
    assert eps <= 0.006  # limited only by reference grid resolution
    assert not active


def test_hypo_distance_constant_offset():
    xs = np.linspace(0, 1, 100)
    W = np.full_like(xs, 0.25)
    eps, _, _ = hypo_distance(xs, W, lambda ys: np.zeros_like(ys), eps_grid=0.001)
    assert eps == pytest.approx(0.25, abs=1e-12)


def test_hypo_distance_monotone_in_w():
    xs = np.linspace(0, 1, 150)
    rng = np.random.default_rng(42)
    V = rng.uniform(0, 1, size=xs.shape)
    sampler = lambda ys: np.interp(ys, xs, V)
    W1 = V + rng.uniform(0, 0.5, size=xs.shape)
    W2 = W1 + rng.uniform(0, 0.5, size=xs.shape)
    e1, _, _ = hypo_distance(xs, W1, sampler, eps_grid=0.002)
    e2, _, _ = hypo_distance(xs, W2, sampler, eps_grid=0.002)
    assert e2 >= e1


def test_hypo_distance_soundness_alarm():
    xs = np.linspace(0, 1, 50)
    W = np.zeros_like(xs)
    with pytest.raises(SoundnessAlarm):
        hypo_distance(xs, W, lambda ys: np.ones_like(ys), eps_grid=0.01)


def test_hypo_distance_caps_infinite_levels():
    xs = np.linspace(0, 1, 101)
    V = np.where(xs < 0.5, 1.0, INF)
    W = np.where(xs < 0.5 - 0.04, 1.0, INF)  # jump displaced by 0.04
    eps, cap, active = hypo_distance(xs, W, lambda ys: np.where(ys < 0.5, 1.0, INF), eps_grid=0.0005)
    assert active and cap == 3.0
    assert eps == pytest.approx(0.04, abs=2e-3)


def test_csv_exports():
    sub = logistic_exact_sublevels(D, 1)
    text = sublevels_csv(sub)
    assert text.splitlines()[0] == "T,a,b"
    assert text.count("\n") == 1 + 1 + len(sub[1])
    hyp = hypograph_csv([0.0, 0.5], [1.0, INF], "V")
    assert "inf" in hyp and hyp.splitlines()[0] == "x,V"
