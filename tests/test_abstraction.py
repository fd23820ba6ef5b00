import itertools
import os

import numpy as np
import pytest

from symoc.abstraction import (
    MapReach,
    SampledReach,
    _collect_batched,
    _union_branches,
    abstract_costs,
    abstraction_sidecar_text,
    build_abstraction,
)
from symoc.config import load_config
from symoc.core import INF, cost_model
from symoc.errors import SoundnessAlarm
from symoc.grid import GridCover, InputGrid
from symoc.reach import SampledSystem
from symoc.sets import Box, EmptySet
from symoc.simulate import perturbed_step
from symoc.solver import is_discrete_cost, solve
from symoc.systems import LogisticMap, get_system

from oracles import (
    block_cells,
    cells_overlapping_box,
    check_conservatism,
    map_endpoints,
    reach_successors,
    pair_value,
    union_branches_by_unique,
)


def logistic_setup(N):
    spec = get_system("logistic")
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([1.0 / N]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, 0.0, 0.0)
    reach = MapReach(LogisticMap(), cover)
    problem, cert = build_abstraction(reach, cover, inputs, ac)
    return spec, cover, inputs, model, ac, reach, problem, cert


def test_logistic_40_abstraction_conservatism():
    _, cover, inputs, _, _, _, problem, cert = logistic_setup(40)
    assert cover.n_cells == 41
    assert cert.cell_diameter == 1.0 / 40.0
    assert cert.rho == 1.0 / 40.0  # dominated by the cell diameter
    assert is_discrete_cost(problem) == (1.0, 0.0)
    # overflow state: infinite terminal cost, all-infinite self loops
    over = cover.overflow
    assert problem.G[over] == INF
    succ, costs = problem.successors(over, 0)
    assert succ.tolist() == [over] and costs[0] == INF


def test_min_time_cost_abstraction_on_cells():
    _, cover, inputs, model, ac, _, _, _ = logistic_setup(40)
    los, his = cover.cell_boxes()
    inside = model.target.cell_inside_batch(los, his)
    for cell in range(cover.n_cells):
        assert (ac.G2[cell] == 0.0) == inside[cell]
        assert (ac.G2[cell] == INF) == (not inside[cell])
        assert pair_value(ac, cell, 0) == 1.0  # no obstacle: every step costs 1


def test_pendulum_energy_cost_abstraction():
    spec = get_system("pendulum")
    eta, mu, _ = spec.presets["p1"]
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, spec.A2, spec.A3)
    assert cover.counts.tolist() == [158, 76]
    assert len(inputs) == 21
    # interior cell: running cost is the squared input
    cell = cover.quantize([1.0, 0.5])
    for u_idx, u in enumerate(inputs.representatives):
        assert pair_value(ac, cell, u_idx) == pytest.approx(float(u[0]) ** 2)
    # boundary-clipped cells touch the obstacle complement: all-infinite
    edge_cell = cover.quantize([spec.k_lower[0], 0.5])
    assert pair_value(ac, edge_cell, 0) == INF
    # cells inside the target ellipse have zero terminal cost
    assert ac.G2[cover.quantize([0.0, 0.0])] == 0.0
    assert ac.G2[cover.quantize([3.0, 0.0])] == INF


@pytest.mark.parametrize("name", ["pendulum_p1", "logistic_n40"])
def test_point_costs_are_finite_at_every_corner_of_a_finite_cell(name):
    # a point is the cell [x, x], so the query that passes a cell passes
    # each of its corners: G2 may take G = 0 on the whole cell
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.ini"))
    model, u = cfg.model, cfg.inputs.representatives[0]
    los, his = cfg.cover.cell_boxes()
    G_finite, g_finite = model.cells_G_finite(los, his), model.cells_g_finite(los, his)
    assert G_finite.any() and g_finite.any()
    for pick in itertools.product((False, True), repeat=cfg.cover.dim):
        corners = np.where(pick, his, los)
        assert all(model.G(x) == 0.0 for x in corners[G_finite])
        assert all(model.g(x, x, u) < INF for x in corners[g_finite])


def test_identity_dynamics_transitions_are_overlapping_cells():
    sys = SampledSystem(
        f=lambda x, u: np.zeros_like(x),
        w=[0.0, 0.0],
        tau=0.1,
        A0=[0.5, 0.5],
        A1=np.zeros((2, 2)),
        k_lower=[0.0, 0.0],
        k_upper=[1.0, 1.0],
        kprime_margin=0.5,
        eps=0.1,
    )
    cover = GridCover([0.0, 0.0], [1.0, 1.0], [0.25, 0.25])
    inputs = InputGrid([([0.0], [0.0])], [1.0])
    model = cost_model("min_time", Box([0.4, 0.4], [0.6, 0.6], open_=True), EmptySet())
    ac = abstract_costs(model, cover, inputs, 0.0, 0.0)
    reach = SampledReach(sys, cover, inputs, k=1, theta=10.0, gamma=0.0)
    problem, _ = build_abstraction(reach, cover, inputs, ac)
    for cell, c in enumerate(cover.centers_all()):
        want, escape = cells_overlapping_box(cover, c - cover.eta / 2, c + cover.eta / 2)
        succ = [int(q) for q in problem.successors(cell, 0)[0]]
        assert sorted(q for q in succ if q != cover.overflow) == want
        assert (cover.overflow in succ) == escape


def test_batched_build_matches_per_cell_build():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([0.8, 0.6]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, spec.A2, spec.A3)
    overflow = [cover.overflow]
    # theta 1.0 gives one reach branch per input, 0.5 four overlapping ones
    for theta in (1.0, 0.5):
        reach = SampledReach(sys, cover, inputs, k=2, theta=theta, gamma=1e-7)
        assert len(reach.batch_ranges(0)[0]) == (1 if theta == 1.0 else 4)
        batched, cert = build_abstraction(reach, cover, inputs, ac)
        slack = 0.0
        for cell in range(cover.n_cells):
            for u_idx in range(len(inputs)):
                succ = batched.successors(cell, u_idx)[0].tolist()
                if ac.gated[cell]:
                    assert succ == overflow
                    continue
                want, escaped, slack_pair = reach_successors(reach, cell, u_idx)
                assert succ == want + (overflow if escaped else [])
                slack = max(slack, slack_pair)
        assert cert.transition_slack == pytest.approx(slack, abs=1e-13)


def random_branch_boxes(rng, cover, k):
    """k boxes per cell, each cell drawn from one of these layouts: random
    boxes, identical boxes, nested boxes, disjoint boxes, boxes wholly
    outside the cover, and boxes that meet only on the cover's upper face."""
    n, dim = cover.n_cells, cover.dim
    lower, upper = cover.lower, cover.upper
    width = upper - lower
    lo = rng.uniform(lower - 0.3 * width, upper, size=(k, n, dim))
    hi = lo + rng.uniform(0, 0.6, size=(k, n, dim)) * width
    layout = rng.integers(0, 6, size=n)
    for cell in np.flatnonzero(layout == 1):  # identical
        lo[:, cell], hi[:, cell] = lo[0, cell], hi[0, cell]
    for cell in np.flatnonzero(layout == 2):  # nested
        inner = rng.uniform(0, 0.5, size=(k, 1))
        lo[:, cell] = lo[0, cell] + inner * (hi[0, cell] - lo[0, cell])
        hi[:, cell] = hi[0, cell] - inner * (hi[0, cell] - lo[0, cell])
    for cell in np.flatnonzero(layout == 3):  # disjoint slabs along the first axis
        edges = np.sort(rng.uniform(lower[0], upper[0], size=2 * k))
        lo[:, cell, 0], hi[:, cell, 0] = edges[0::2], edges[1::2]
    for cell in np.flatnonzero(layout == 4):  # outside: every branch empty
        lo[:, cell] = upper + rng.uniform(0.1, 1.0, size=(k, dim))
        hi[:, cell] = lo[:, cell] + 1.0
    for cell in np.flatnonzero(layout == 5):  # one box inside, the others beyond the upper face
        lo[1:, cell], hi[1:, cell] = upper, upper + rng.uniform(0.0, 1.0, size=(k - 1, dim))
        hi[0, cell] = upper
    return [cover.box_index_ranges(lo[b], hi[b]) for b in range(k)]


def test_union_of_branch_boxes_matches_the_unique_reference():
    rng = np.random.default_rng(20)
    covers = [
        GridCover([0.0], [7.0], [1.0]),
        GridCover([-1.0, 0.0], [1.0, 1.0], [0.3, 0.25]),
        GridCover([0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [0.5, 0.5, 0.25]),
    ]
    for trial in range(60):
        cover = covers[trial % len(covers)]
        k = int(rng.integers(2, 5))
        boxes = random_branch_boxes(rng, cover, k)
        branches = [(lo_idx, hi_idx, empty) for lo_idx, hi_idx, _, empty in boxes]
        escaped = np.any([esc for _, _, esc, _ in boxes], axis=0)
        gated = rng.random(cover.n_cells) < 0.2
        gated[:2] = [False, True]
        active = ~gated
        got = _union_branches(cover, branches, active)
        want = union_branches_by_unique(cover, branches, active)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), trial
        flat, owner, cnt = got
        for cell in range(cover.n_cells):
            cells = set()
            for lo_idx, hi_idx, empty in branches:
                if active[cell] and not empty[cell]:
                    ranges = [range(a, b + 1) for a, b in zip(lo_idx[cell], hi_idx[cell])]
                    cells.update(int(np.ravel_multi_index(idx, cover.counts)) for idx in itertools.product(*ranges))
            assert flat[owner == cell].tolist() == sorted(cells), (trial, cell)

        class Fixed:
            def batch_ranges(self, u_idx):
                return branches, escaped, 0.0, False

        # a box meets no cell only outside the cover, so every empty cell escaped
        (succ, cnt_u, overflow, _, _), = _collect_batched(Fixed(), cover, gated, 1, np.int32)
        assert succ.dtype == np.int32 and np.array_equal(succ, flat)
        assert np.array_equal(cnt_u, cnt) and np.array_equal(overflow, escaped | gated)


def test_split_cap_hit_is_noted_in_certificate(caplog):
    spec = get_system("pendulum")
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([0.8, 0.6]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, spec.A2, spec.A3)
    notes = {}
    for max_splits in (64, 2):  # theta 0.5 needs four branches per input
        reach = SampledReach(spec.sampled_system(), cover, inputs, k=2, theta=0.5, gamma=1e-7,
                             max_splits=max_splits)
        caplog.clear()
        problem, cert = build_abstraction(reach, cover, inputs, ac)
        text = abstraction_sidecar_text(cover, inputs, cert)
        notes[max_splits] = [ln for ln in text.splitlines() if ln.startswith("note = split cap hit")]
        hits = [r for r in caplog.records if r.getMessage().startswith("split cap hit")]
        # one line per capped input, however many substeps hit the cap: the benchmark counts them
        assert len(hits) == (len(inputs) if max_splits == 2 else 0)
    assert notes[64] == []
    inputs_listed = " ".join(str(u) for u in range(len(inputs)))
    assert notes[2] == [f"note = split cap hit for inputs {inputs_listed}: all cells route to overflow under them"]
    # the capped abstraction sends every pair to overflow
    for cell in range(cover.n_cells):
        for u_idx in range(len(inputs)):
            assert cover.overflow in problem.successors(cell, u_idx)[0]


def test_abstract_transitions_are_supersets_of_simulation():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    eta, mu, k = spec.presets["p1"]
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, spec.A2, spec.A3)
    reach = SampledReach(sys, cover, inputs, k, spec.theta, spec.preset_gamma["p1"])
    problem, _ = build_abstraction(reach, cover, inputs, ac)
    rng = np.random.default_rng(31)
    for _ in range(300):
        cell = int(rng.integers(0, cover.n_cells))
        u_idx = int(rng.integers(0, len(inputs)))
        x0 = rng.uniform(*(bound[0] for bound in cover.cell_boxes([cell])))
        d = rng.uniform(-sys.w, sys.w, size=(8, 2))
        x1 = perturbed_step(sys, x0, inputs.representatives[u_idx], d)
        succ = set(int(q) for q in problem.successors(cell, u_idx)[0])
        landed = block_cells(cover, x1) or [cover.overflow]
        assert set(landed) <= succ


def test_check_conservatism_logistic():
    _, cover, inputs, model, ac, reach, problem, cert = logistic_setup(40)
    rng = np.random.default_rng(33)
    ok, violations = check_conservatism(
        problem, cover, inputs, ac, map_endpoints(reach), rho=1.0 / 40.0, rng=rng
    )
    assert ok, violations
    # a tighter claimed rho fails via the diameter condition (v)
    rng = np.random.default_rng(33)
    ok, violations = check_conservatism(
        problem, cover, inputs, ac, map_endpoints(reach), rho=1.0 / 100.0, rng=rng
    )
    assert not ok
    assert any(tag == "v" for tag, _ in violations)


def test_check_conservatism_flags_bloated_transition():
    _, cover, inputs, model, ac, reach, problem, cert = logistic_setup(40)
    # splice one far-away successor into a transition list
    bloated_succ = problem.trans_succ.copy()
    cell = cover.quantize([0.5])
    a = problem.trans_ptr[cell * problem.m]
    far = cover.quantize([0.02])
    original = bloated_succ[a]
    centers = cover.centers_all()[:, 0]
    assert abs(centers[original] - centers[far]) > 0.3
    bloated_succ[a] = far
    from symoc.core import FiniteProblem

    bloated = FiniteProblem(
        problem.n, problem.m, problem.G, problem.trans_ptr, bloated_succ,
        pair_costs=problem.pair_costs,
    )
    rng = np.random.default_rng(34)
    ok, violations = check_conservatism(
        bloated, cover, inputs, ac, map_endpoints(reach), rho=1.0 / 40.0, rng=rng,
        cell_samples=cover.n_cells,
    )
    assert not ok
    assert any(tag == "iv" for tag, _ in violations)


def test_empty_callback_raises_strictness_alarm():
    _, cover, inputs, model, ac, _, _, _ = logistic_setup(40)

    class EmptyReach:
        """Every cell maps to an empty block and nothing escapes."""

        def batch_ranges(self, u_idx):
            idx = np.zeros((cover.n_cells, cover.dim), dtype=np.int64)
            empty = np.ones(cover.n_cells, dtype=bool)
            return [(idx, idx, empty)], np.zeros(cover.n_cells, dtype=bool), 0.0, False

    with pytest.raises(SoundnessAlarm):
        build_abstraction(EmptyReach(), cover, inputs, ac)


def test_sidecar_text_round_trip_fields():
    _, cover, inputs, _, _, _, _, cert = logistic_setup(40)
    text = abstraction_sidecar_text(cover, inputs, cert)
    assert text.startswith("symoc-abstraction v1\n")
    assert "rho = 0.025" in text
    assert f"overflow = {cover.overflow}" in text
