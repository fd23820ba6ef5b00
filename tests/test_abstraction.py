import itertools
import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import symoc.abstraction
import symoc.reach
import symoc.solver
from symoc.abstraction import (
    SampledReach,
    _collect_batched,
    _union_branches,
    abstract_costs,
    abstraction_sidecar_text,
    build_abstraction,
)
from symoc.config import load_config
from symoc.core import INF, CostModel, FiniteProblem, ranges
from symoc.errors import InputError, SoundnessAlarm
from symoc.grid import GridCover, InputGrid
from symoc.reach import SampledSystem
from symoc.sets import Box, EmptySet
from symoc.solver import is_discrete_cost, solve
from symoc.systems import get_system

from abstraction_digests import build, config_text, digest
from test_solver import assert_inverse_matches_reference
from oracles import (
    block_cells,
    blocks_flat,
    cells_overlapping_box,
    check_conservatism,
    map_endpoints,
    reach_successors,
    pair_value,
    point_G,
    point_g,
    reference_csr,
    successors,
    union_branches_by_unique,
)


def logistic_setup(N):
    spec = get_system("logistic")
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([1.0 / N]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
    _, reach = spec.build(cover, inputs, 1, 0.0)
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
    succ, costs = successors(problem, over, 0)
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
    eta, mu, *_ = spec.presets["p1"]
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
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
        assert all(point_G(model, x) == 0.0 for x in corners[G_finite])
        assert all(point_g(model, x, x, u) < INF for x in corners[g_finite])


def test_identity_dynamics_transitions_are_overlapping_cells():
    sys = SampledSystem(
        f=lambda x, u, out: out.fill(0.0),
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
    model = CostModel("min_time", Box([0.4, 0.4], [0.6, 0.6], open_=True), EmptySet())
    ac = abstract_costs(model, cover, inputs)
    reach = SampledReach(sys, cover, inputs, k=1, theta=10.0, gamma=0.0)
    problem, _ = build_abstraction(reach, cover, inputs, ac)
    for cell, c in enumerate(cover.centers_all()):
        want, escape = cells_overlapping_box(cover, c - cover.eta / 2, c + cover.eta / 2)
        succ = [int(q) for q in successors(problem, cell, 0)[0]]
        assert sorted(q for q in succ if q != cover.overflow) == want
        assert (cover.overflow in succ) == escape


def test_batched_build_matches_per_cell_build():
    spec = get_system("pendulum")
    sys = spec.sampled_system()
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([0.8, 0.6]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
    overflow = [cover.overflow]
    # theta 1.0 gives one reach branch per input, 0.5 four overlapping ones
    for theta in (1.0, 0.5):
        reach = SampledReach(sys, cover, inputs, k=2, theta=theta, gamma=1e-7)
        assert len(reach.batch_ranges(0)[0]) == (1 if theta == 1.0 else 4)
        batched, cert = build_abstraction(reach, cover, inputs, ac)
        slack = 0.0
        for cell in range(cover.n_cells):
            for u_idx in range(len(inputs)):
                succ = successors(batched, cell, u_idx)[0].tolist()
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
    return [cover.box_index_ranges(lo[b].T, hi[b].T) for b in range(k)]


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
            assert a.dtype == np.int32 and np.array_equal(a, b), trial
        flat, cnt = blocks_flat(cover, *got)
        owner = np.repeat(np.arange(cover.n_cells), cnt)
        for cell in range(cover.n_cells):
            cells = set()
            for lo_idx, hi_idx, empty in branches:
                if active[cell] and not empty[cell]:
                    ranges = [range(a, b + 1) for a, b in zip(lo_idx[:, cell], hi_idx[:, cell])]
                    cells.update(int(np.ravel_multi_index(idx, cover.counts)) for idx in itertools.product(*ranges))
            assert flat[owner == cell].tolist() == sorted(cells), (trial, cell)

        class Fixed:
            def batch_ranges(self, u_idx):
                return branches, escaped, 0.0, False

        # a box meets no cell only outside the cover, so every empty cell escaped
        (corner, span, block_cells_u, overflow, _, _), = _collect_batched(Fixed(), cover, gated, 1)
        for a, b in zip((corner, span, block_cells_u), got):
            assert a.dtype == np.int32 and np.array_equal(a, b)
        assert np.array_equal(overflow, escaped | gated)


def test_union_keys_pass_int32_on_a_large_cover():
    # owner * n_states + id passes 2**31 once the cover has 46,341 cells
    rng = np.random.default_rng(21)
    cover = GridCover([0.0], [50_000.0], [1.0])
    gated = rng.random(cover.n_cells) < 0.2
    lo = rng.uniform(-2.0, 50_000.0, size=(2, 3, 1, cover.n_cells))
    inputs = [
        [cover.box_index_ranges(lo_u, lo_u + rng.uniform(0.0, 4.0, size=lo_u.shape)) for lo_u in lo_input]
        for lo_input in lo
    ]
    branches = [[(lo_idx, hi_idx, empty) for lo_idx, hi_idx, _, empty in boxes] for boxes in inputs]
    got = _union_branches(cover, branches[0], ~gated)
    want = union_branches_by_unique(cover, branches[0], ~gated)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    transitions = SimpleNamespace(
        guard_note=None,
        batch_ranges=lambda u: (branches[u], np.any([b[2] for b in inputs[u]], axis=0), 0.0, False),
    )
    costs = SimpleNamespace(gated=gated, g_finite=~gated, input_values=np.zeros(2), G2=np.zeros(cover.n_states))
    problem, _ = build_abstraction(transitions, cover, InputGrid([([0.0], [1.0])], [1.0]), costs)
    want_ptr, want_succ = reference_csr(transitions, cover, 2, gated)
    assert np.array_equal(problem.trans_ptr, want_ptr) and np.array_equal(problem.trans_succ, want_succ)


def test_inputs_of_one_reach_branch_and_of_several_are_refused():
    # input 0 moves odd cells one cell left and even cells one right, in one
    # reach branch; input 1 has the overlapping branches [i-1, i-1] and
    # [i-2, i-1].  Blocks for input 0 beside union rows for input 1 gave rows
    # out of pair order, and the certificate refused a correct solution at
    # state 2 (W = 2.5 but input 1 gives 6.5).  The build refuses the mix,
    # in either order; inputs that agree build and solve as their CSR does
    cover = GridCover([0.0], [40.0], [1.0])
    cells = np.arange(cover.n_cells, dtype=float)

    def branch(lo, hi):
        lo_idx, hi_idx, out, empty = cover.box_index_ranges(lo[None], hi[None])
        return (lo_idx, hi_idx, empty), out

    step = np.where(cells % 2, -1.0, 1.0)
    (one, out), (near, _), (far, far_out) = (branch(cells + step, cells + step), branch(cells - 1, cells - 1),
                                             branch(cells - 2, cells - 1))
    G2 = np.full(cover.n_states, INF)
    G2[0] = 0.0
    costs = SimpleNamespace(
        gated=np.zeros(cover.n_cells, dtype=bool), g_finite=np.ones(cover.n_cells, dtype=bool),
        input_values=np.array([1.0, 1.5]), G2=G2,
    )
    inputs = InputGrid([([0.0], [1.0])], [1.0])

    def build(first, second):
        by_input = (first, second)
        transitions = SimpleNamespace(guard_note=None, batch_ranges=lambda u: (*by_input[u], 0.0, False))
        return build_abstraction(transitions, cover, inputs, costs)[0]

    for first, second, message in (
        (([one], out), ([near, far], far_out), "input 1 has 2, input 0 one;"),
        (([near, far], far_out), ([one], out), "input 1 has 1, input 0 several;"),
    ):
        with pytest.raises(SoundnessAlarm, match=f"^reach branches: {message}"):
            build(first, second)
    for first, second in ((([one], out), ([far], far_out)), (([one, one], out), ([near, far], far_out))):
        problem = build(first, second)
        got = solve(problem)
        csr = FiniteProblem(problem.n, 2, G2, problem.trans_ptr, problem.trans_succ, pair_costs=problem.pair_costs)
        assert np.array_equal(got.W, solve(csr).W) and got.W[2] == 2.5


class RandomBlocks:
    """A transition over-approximator whose inputs give random index blocks:
    ``branches`` branches of ``random_branch_boxes`` per input, one or, at
    even odds, 2 to 4 drawn once for all inputs, as a reach plan fixes one
    count; further escape flags on some cells and, on a capped input, on
    every cell."""

    guard_note = None

    def __init__(self, rng, cover, m):
        self.branches = 1 if rng.random() < 0.5 else int(rng.integers(2, 5))
        self.inputs = []
        for u_idx in range(m):
            boxes = random_branch_boxes(rng, cover, self.branches)
            branches = [(lo_idx, hi_idx, empty) for lo_idx, hi_idx, _, empty in boxes]
            escaped = np.any([esc for _, _, esc, _ in boxes], axis=0) | (rng.random(cover.n_cells) < 0.1)
            capped = u_idx == m - 1
            self.inputs.append((branches, escaped | capped, float(rng.random()), capped))

    def batch_ranges(self, u_idx):
        return self.inputs[u_idx]


def test_csr_matches_the_flat_reference_at_every_chunk_size(monkeypatch):
    rng = np.random.default_rng(24)
    covers = [
        GridCover([0.0], [7.0], [1.0]),
        GridCover([-1.0, 0.0], [1.0, 1.0], [0.3, 0.25]),
        GridCover([0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [0.5, 0.5, 0.25]),
    ]
    for trial in range(24):
        cover = covers[trial % len(covers)]
        m = int(rng.integers(1, 5))
        inputs = InputGrid([([0.0], [float(m - 1)])], [1.0])
        transitions = RandomBlocks(rng, cover, m)
        gated = rng.random(cover.n_cells) < 0.2
        costs = SimpleNamespace(
            gated=gated, g_finite=~gated, input_values=np.arange(m, dtype=float), G2=np.zeros(cover.n_states)
        )
        want_ptr, want_succ = reference_csr(transitions, cover, m, gated)
        for chunk in (1, 7, int(want_ptr[-1]) + 1):  # edges per chunk of whole pairs
            monkeypatch.setattr(symoc.core, "CHECK_EDGES", chunk)
            problem, cert = build_abstraction(transitions, cover, inputs, costs)
            assert np.array_equal(problem.trans_ptr, want_ptr), (trial, chunk)
            assert problem.trans_succ.dtype == np.int32 and np.array_equal(problem.trans_succ, want_succ), (trial, chunk)
            assert cert.transition_slack == max(entry[2] for entry in transitions.inputs)
            assert any(note.startswith(f"split cap hit for inputs {m - 1}:") for note in cert.notes)


def block_problems(rng, trials):
    """(problem, transitions, gated) of random abstractions as they leave
    build_abstraction, on one- to three-dimensional covers: blocks of one
    reach branch per input or union rows of several, escapes, a capped
    input and gated cells, whose pairs are inert."""
    covers = [
        GridCover([0.0], [7.0], [1.0]),
        GridCover([-1.0, 0.0], [1.0, 1.0], [0.3, 0.25]),
        GridCover([0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [0.5, 0.5, 0.25]),
    ]
    for trial in range(trials):
        cover = covers[trial % len(covers)]
        m = int(rng.integers(2, 5))
        transitions = RandomBlocks(rng, cover, m)
        gated = rng.random(cover.n_cells) < 0.2
        costs = SimpleNamespace(
            gated=gated, g_finite=~gated, input_values=np.arange(m, dtype=float), G2=np.zeros(cover.n_states)
        )
        problem, _ = build_abstraction(transitions, cover, InputGrid([([0.0], [float(m - 1)])], [1.0]), costs)
        yield problem, transitions, gated


@pytest.mark.parametrize("row_max", [None, 2])
def test_block_rows_expand_to_the_materialized_csr(monkeypatch, row_max):
    # the rows an abstraction reads from its blocks, for a slice of pairs or
    # an ascending array of them, tile those pairs' stretches of the
    # trans_succ it builds later: per row, consecutive ids at its edges, at
    # most ROW_MAX of them (the default, or 2)
    if row_max is not None:
        monkeypatch.setattr(symoc.core, "ROW_MAX", row_max)
    rng = np.random.default_rng(28)
    longest, forms = 0, set()
    for problem, transitions, gated in block_problems(rng, 12):
        n_pairs = problem.n * problem.m
        sets = [np.arange(n_pairs), np.flatnonzero(rng.random(n_pairs) < 0.3), np.arange(5, n_pairs - 3)]
        got = [problem.rows(slice(0, n_pairs)), problem.rows(sets[1]), problem.rows(slice(5, n_pairs - 3))]
        forms.add(problem.union is None)
        lengths = problem.union[2] if problem.blocks is None else problem.blocks[1][-1]
        longest = max(longest, lengths.max())  # before cutting
        want_ptr, want_succ = reference_csr(transitions, problem.cover, problem.m, gated)
        assert np.array_equal(problem.trans_succ, want_succ) and problem.blocks is problem.union is None
        for pids, (place, first, length, edge) in zip(sets, got):
            assert length.min() >= 1 and length.max() <= symoc.core.ROW_MAX
            pair = pids[place]
            order = np.argsort(edge)
            row, edges = ranges(edge[order], edge[order] + length[order])
            assert np.array_equal(edges, ranges(want_ptr[pids], want_ptr[pids + 1])[1])
            assert np.array_equal(pair[order][row], np.searchsorted(want_ptr, edges, side="right") - 1)
            assert np.array_equal(first[order][row] + edges - edge[order][row], want_succ[edges])
    assert longest > 2  # so row_max = 2 cuts rows
    assert forms == {True, False}  # blocks and union rows


def block_incidences(problem, pairs, row_blocks):
    """(pair's place, successor id) of each successor that the row blocks
    or rows of ``pairs`` list, in that order."""
    place, first, length, k = problem.row_blocks(pairs) if row_blocks else problem.rows(pairs)
    if not row_blocks:
        k = np.ones(len(place), dtype=np.int64)
    block, i = ranges(0, k.astype(np.int64))
    row, succ = ranges(first[block] + i * problem.row_step, first[block] + i * problem.row_step + length[block])
    order = np.lexsort((succ, place[block][row]))
    return place[block][row][order], succ[order]


@pytest.mark.parametrize("row_max", [None, 2])
def test_inverse_from_blocks_matches_reference_inverse(monkeypatch, row_max):
    # the row index built from the blocks, without trans_succ, lists the
    # reference's (successor, pair) incidences; rows longer than ROW_MAX
    # and blocks of more than K_MAX rows (the default, or 2) count and fill
    # as their pieces
    if row_max is not None:
        monkeypatch.setattr(symoc.core, "ROW_MAX", row_max)
    most = 0
    for k_max in (symoc.core.K_MAX, 2):
        monkeypatch.setattr(symoc.core, "K_MAX", k_max)
        rng = np.random.default_rng(29)
        for problem, _, _ in block_problems(rng, 12):
            # a block form's row blocks, each expanded to its k rows, hold
            # the successors its rows hold
            n_pairs = problem.n * problem.m
            for pairs in (slice(0, n_pairs), slice(n_pairs // 3, n_pairs)):
                got, want = (block_incidences(problem, pairs, by_block) for by_block in (True, False))
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            if problem.blocks is not None:
                most = max(most, problem.row_blocks(slice(0, n_pairs))[3].max())
            index = symoc.solver._build_inverse(problem)
            assert problem._succ is None
            assert index.k.max() <= k_max
            assert_inverse_matches_reference(problem)
    assert most > 2  # blocks of several rows, cut where K_MAX is 2


def test_materialized_csr_passes_the_constructor_check(monkeypatch):
    # the trans_succ an abstraction writes from its blocks is checked as a
    # given CSR is: it passes, and a write that lists a successor twice is
    # refused when something first reads it
    rng = np.random.default_rng(34)
    problems = [problem for problem, _, _ in block_problems(rng, 6)]
    for problem in problems[:3]:
        args = problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ
        FiniteProblem(*args, pair_costs=problem.pair_costs)
    write = symoc.abstraction._write_successors

    def write_a_repeat(problem):
        succ = write(problem)
        pid = int(np.flatnonzero(np.diff(problem.trans_ptr) > 1)[0])
        succ[problem.trans_ptr[pid] + 1] = succ[problem.trans_ptr[pid]]
        return succ

    monkeypatch.setattr(symoc.abstraction, "_write_successors", write_a_repeat)
    for problem in problems[3:]:
        with pytest.raises(InputError, match="^duplicate transition"):
            problem.trans_succ
        assert problem._succ is None and (problem.blocks is None) != (problem.union is None)


def test_solve_reads_blocks_and_their_csr_alike():
    # an abstraction solved from its blocks, and as the CSR they expand to
    rng = np.random.default_rng(30)
    problems = [problem for problem, _, _ in block_problems(rng, 6)]
    problems.append(build("pendulum:p1")[0])
    for problem in problems:
        got = solve(problem, queue="auto")
        assert problem._succ is None
        csr = FiniteProblem(problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ,
                            pair_costs=problem.pair_costs)
        want = solve(csr, queue="auto")
        assert np.array_equal(got.W, want.W) and np.array_equal(got.c.choice, want.c.choice)
        assert np.array_equal(got.rank, want.rank) and np.array_equal(got.settle_values, want.settle_values)
        assert got.stats == want.stats


def test_build_holds_about_a_block_per_pair_beyond_its_arrays():
    # pendulum p1 has 1,667,191 edges; the flat build held 6.2 B per edge
    # beyond its returned arrays (successor lists and a per-edge scatter
    # index), the block build that wrote trans_succ 1.7, mostly its blocks.
    # The build now keeps its blocks in place of trans_succ and holds 1.55
    # beyond them.  With theta 0.5 and k 3 every input has several reach
    # branches, and the build keeps their union rows and no block at all.
    # Placing each input's rows at their pairs' offsets peaks at about 9 B
    # per row beyond the kept arrays; a stable sort of the rows by pair id
    # peaked at 24.9
    for spec in ("pendulum:p1", "pendulum:p1:theta=0.5:k=3"):
        with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
            fh.write(config_text(spec))
        try:
            cfg = load_config(fh.name)
        finally:
            os.unlink(fh.name)
        costs = abstract_costs(cfg.model, cfg.cover, cfg.inputs)
        tracemalloc.start()
        try:
            problem, _ = build_abstraction(cfg.reach, cfg.cover, cfg.inputs, costs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairs = problem.n * problem.m
        form = problem.blocks if problem.union is None else problem.union
        kept = problem.trans_ptr.nbytes + problem.pair_costs.nbytes + sum(a.nbytes for a in form)
        assert held - kept < 2 * pairs  # nothing per pair beyond the kept arrays
        if problem.union is not None:
            assert spec.endswith("k=3") and problem.blocks is None and problem.n_edges == 1_545_559
            assert (peak - kept) / len(problem.union[1]) < 16
            continue
        corner, span = problem.blocks
        assert problem.n_edges == 1_667_191
        assert (peak - kept) / problem.n_edges < 3.0
        # the blocks themselves: an int32 corner and span per axis per cell pair
        assert corner.dtype == span.dtype == np.int32
        assert corner.nbytes + span.nbytes == 4 * (problem.cover.dim + 1) * problem.cover.n_cells * problem.m


def test_split_cap_hit_is_noted_in_certificate(caplog, monkeypatch):
    spec = get_system("pendulum")
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([0.8, 0.6]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
    notes = {}
    for max_splits in (64, 2):  # theta 0.5 needs four branches per input
        monkeypatch.setattr(symoc.reach, "MAX_SPLITS", max_splits)
        reach = SampledReach(spec.sampled_system(), cover, inputs, k=2, theta=0.5, gamma=1e-7)
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
            assert cover.overflow in successors(problem, cell, u_idx)[0]


def test_abstract_transitions_are_supersets_of_simulation():
    spec = get_system("pendulum")
    eta, mu, k, gamma = spec.presets["p1"]
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
    sys, reach = spec.build(cover, inputs, k, gamma)
    problem, _ = build_abstraction(reach, cover, inputs, ac)
    rng = np.random.default_rng(31)
    for _ in range(300):
        cell = int(rng.integers(0, cover.n_cells))
        u_idx = int(rng.integers(0, len(inputs)))
        x0 = rng.uniform(*(bound[0] for bound in cover.cell_boxes([cell])))
        d = rng.uniform(-sys.w, sys.w, size=(8, 2))
        x1 = sys.step(x0, inputs.representatives[u_idx], d)
        succ = set(int(q) for q in successors(problem, cell, u_idx)[0])
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
            idx = np.zeros((cover.dim, cover.n_cells), dtype=np.int64)
            empty = np.ones(cover.n_cells, dtype=bool)
            return [(idx, idx, empty)], np.zeros(cover.n_cells, dtype=bool), 0.0, False

    with pytest.raises(SoundnessAlarm):
        build_abstraction(EmptyReach(), cover, inputs, ac)


# sha256 of the CSR arrays and the transition slack of three ODE abstractions,
# the first two recorded before the reach layer kept one radius per input, the
# third before the CSR was built from blocks: the second splits between
# substeps, the third hits the split cap, so every cell escapes under every input
PINNED_ABSTRACTIONS = {
    "pendulum:p1": (
        "int64:c75fffc3c9790a49e323d855e836f4d3c60c6dc2c539c9389eb4994fdb2b930c",
        "int32:99820544fa6a013bc5758a0f72d865ce87bc01c0cbeb77751bbc45ac5139f973",
        "float64:c6f829ce95ef568270eb84c2d0e699dd47172b08d21ffe8c258813c0895a6dfa",
        0.08014518838134041,
    ),
    "pendulum:p1:theta=0.5:k=3": (
        "int64:226c22a0ccb69c915bb4720e7890c1bbad6a8f88bbd82fbf2ffd12b68d733ddc",
        "int32:89633278566eabd9fd3bd9722e39abccedb5e772656b067fe91bf59f174b2165",
        "float64:c6f829ce95ef568270eb84c2d0e699dd47172b08d21ffe8c258813c0895a6dfa",
        0.08014675064854959,
    ),
    "pendulum:p1:theta=0.3:k=3:max_splits=5": (
        "int64:678f4a42839c9ebfd2cd5b41ba3cbe0d22a3c1ecd86c4af02b5e2571cf41c78d",
        "int32:e35745fde4b4069df814efc516e14a6b86ab3c178832cfad1fc41b77075ec3a9",
        "float64:c6f829ce95ef568270eb84c2d0e699dd47172b08d21ffe8c258813c0895a6dfa",
        0.08014675064854959,
    ),
}


@pytest.mark.parametrize("spec", sorted(PINNED_ABSTRACTIONS))
def test_ode_abstraction_bytes_are_pinned(spec):
    problem, cert = build(spec)
    got = (digest(problem.trans_ptr), digest(problem.trans_succ), digest(problem.pair_costs), cert.transition_slack)
    assert got == PINNED_ABSTRACTIONS[spec]


def test_build_rejects_pair_ids_beyond_int32():
    cover = SimpleNamespace(n_states=2**30 + 1, overflow=2**30)
    costs = SimpleNamespace(gated=None)
    with pytest.raises(InputError, match="2\\*\\*31 pairs"):
        build_abstraction(None, cover, [0, 1], costs)


def test_sidecar_text_round_trip_fields():
    _, cover, inputs, _, _, _, _, cert = logistic_setup(40)
    text = abstraction_sidecar_text(cover, inputs, cert)
    assert text.startswith("symoc-abstraction v1\n")
    assert "rho = 0.025" in text
    assert f"overflow = {cover.overflow}" in text
