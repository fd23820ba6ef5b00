"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines live.
"""

import hashlib
import time

import numpy as np
import pytest

from symoc.abstraction import MapReach, SampledReach, abstract_costs, build_abstraction
from symoc.analysis import (
    hypo_distance,
    logistic_exact_sublevels,
    logistic_exact_values,
)
from symoc.cli import main
from symoc.core import INF, FiniteProblem, cost_model, make_shortest_path
from symoc.grid import GridCover, InputGrid
from symoc.reach import attain_over_batch
from symoc.relations import RefinedController, Relation, check_vfrr, pointwise_upper_bound
from symoc.simulate import make_policy, perturbed_step, run_closed_loop, sample_winning_states
from symoc.solver import dp_operator, solve, value_iteration
from symoc.systems import LogisticMap, get_system

from oracles import (
    boxes_contain,
    certified_vfrr_pair,
    dijkstra_distances,
    from_lists,
    random_graph,
    random_problem_lists,
    union_contains_interval,
)


def report(k, ok, detail=""):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {k} failed: {detail}"


def synthesize(name, preset):
    spec = get_system(name)
    eta, mu, k = spec.presets[preset]
    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu)
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, spec.A2, spec.A3)
    if spec.kind == "map":
        plant = LogisticMap()
        reach = MapReach(plant, cover)
    else:
        plant = spec.sampled_system()
        reach = SampledReach(plant, cover, inputs, k, spec.theta, spec.preset_gamma[preset])
    problem, cert = build_abstraction(reach, cover, inputs, ac)
    result = solve(problem, queue="auto")
    return dict(
        spec=spec, plant=plant, cover=cover, inputs=inputs, model=model,
        reach=reach, problem=problem, cert=cert, result=result,
        ctrl=RefinedController(result.c, cover, inputs.representatives),
    )


@pytest.fixture(scope="module")
def pendulum():
    return synthesize("pendulum", "p1")


@pytest.fixture(scope="module")
def chauffeur():
    return synthesize("chauffeur", "p1")


def test_criterion_01_shortest_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n, arcs, s = random_graph(rng, n_max=500, w_max=100)
        problem = make_shortest_path(n, arcs, s)
        W = solve(problem).W
        d = dijkstra_distances(n, arcs, s)
        assert np.array_equal(W, d)
    dt = time.perf_counter() - t0
    report(1, dt < 10.0, f"100 graphs exact in {dt:.2f}s")


def test_criterion_02_fixed_point_and_maximality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    checked = 0
    for _ in range(200):
        trans, G = random_problem_lists(rng, n_max=50)
        problem = from_lists(G, trans)
        W = solve(problem).W
        PW = dp_operator(problem, W)
        finite = np.isfinite(W)
        assert np.array_equal(np.isfinite(PW), finite)
        assert np.all(np.abs(PW[finite] - W[finite]) <= 1e-12)
        for _ in range(20):
            alpha = float(rng.uniform(0, 1))
            Wp = np.where(np.isinf(W), INF, alpha * W)
            if np.all(Wp <= dp_operator(problem, Wp)):
                checked += 1
                assert np.all(Wp <= W)
    dt = time.perf_counter() - t0
    report(2, dt < 5.0, f"200 fixed points, {checked} maximality probes in {dt:.2f}s")


def test_criterion_03_value_iteration_consistency():
    rng = np.random.default_rng(1002)  # same instance stream as criterion 2
    for i in range(200):
        trans, G = random_problem_lists(rng, n_max=50)
        for _ in range(20):
            rng.uniform(0, 1)  # keep the stream aligned with criterion 2
        if i % 4:
            continue  # iterating all 200 for 100 steps adds nothing
        problem = from_lists(G, trans)
        W = solve(problem).W
        prev = problem.G.copy()
        for T in range(1, 101):
            cur = dp_operator(problem, prev)
            assert np.all(cur <= prev)
            assert np.all(cur >= W)
            prev = cur
    rng = np.random.default_rng(1003)
    for _ in range(50):
        trans, G = random_problem_lists(rng, n_max=40, cost_mode="min_time")
        problem = from_lists(G, trans)
        W = solve(problem).W
        assert np.array_equal(value_iteration(problem, problem.n), W)
    report(3, True, "monotone, bounded below by W, discrete stabilization within n")


def test_criterion_04_queue_equivalence():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        trans, G = random_problem_lists(rng, n_max=60, cost_mode="min_time")
        problem = from_lists(G, trans)
        r_heap = solve(problem, queue="heap")
        r_fifo = solve(problem, queue="fifo")
        assert np.array_equal(r_heap.W, r_fifo.W)
        assert np.array_equal(r_heap.c.choice == -1, r_fifo.c.choice == -1)
        assert r_fifo.stats.queue_ops <= 2 * problem.n_edges + problem.n
    report(4, True, "identical values and controller domains; fifo ops within 2m+n")


def test_criterion_05_logistic_convergence():
    t0 = time.perf_counter()
    built = {N: synthesize("logistic", f"N{N}") for N in (40, 60, 85, 400)}
    finite_max = max(
        float(b["result"].W[np.isfinite(b["result"].W)].max()) for b in built.values()
    )
    sub = logistic_exact_sublevels((0.415, 0.69), int(finite_max) + 1)
    # (a) abstract values dominate the exact value on every cell, all N
    for N, b in built.items():
        cover, W = b["cover"], b["result"].W
        los, his = (bound[:, 0] for bound in cover.cell_boxes())
        for cell in range(cover.n_cells):
            if W[cell] == INF:
                continue
            assert union_contains_interval(sub[int(W[cell])], los[cell], his[cell]), (
                f"N={N} cell {cell}: W={W[cell]} below the exact sup"
            )
    # (b) hypograph distance shrinks from N=40 to N=400
    xs = np.linspace(0.0, 1.0, 4000)
    sampler = lambda ys: logistic_exact_values(sub, ys)
    eps = {}
    for N in (40, 400):
        cover, W = built[N]["cover"], built[N]["result"].W
        W_pt = pointwise_upper_bound(W, cover, xs[:, None])
        eps[N], _, _ = hypo_distance(xs, W_pt, sampler, eps_grid=1.0 / 8000.0)
    assert eps[400] < eps[40]
    # (c) exactly-matched cells become strictly more frequent
    frac = {}
    for N in (40, 400):
        cover, W = built[N]["cover"], built[N]["result"].W
        centers = cover.centers_all()[:, 0]
        V = logistic_exact_values(sub, centers)
        frac[N] = float(np.mean(W[: cover.n_cells] == V))
    assert frac[400] > frac[40]
    dt = time.perf_counter() - t0
    report(
        5, dt < 30.0,
        f"eps40={eps[40]:.4f} > eps400={eps[400]:.4f}; match {frac[40]:.3f} -> {frac[400]:.3f}; {dt:.1f}s",
    )


def test_criterion_06_reach_set_containment(pendulum, chauffeur):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    for b in (pendulum, chauffeur):
        sys, cover, inputs = b["plant"], b["cover"], b["inputs"]
        spec = b["spec"]
        eta, mu, k = spec.presets["p1"]
        gamma = spec.preset_gamma["p1"]
        centers = cover.centers_all()
        los, his = cover.cell_boxes()
        for _ in range(1000):
            cell = int(rng.integers(0, cover.n_cells))
            u_idx = int(rng.integers(0, len(inputs)))
            u = inputs.representatives[u_idx]
            box_lo, box_hi, *_ = attain_over_batch(
                sys, centers[cell : cell + 1], cover.eta / 2, u, k, spec.theta, gamma,
                cover.max_diameter,
            )
            x0 = rng.uniform(los[cell], his[cell])
            d = rng.uniform(-sys.w, sys.w, size=(8, sys.dim))
            endpoint = perturbed_step(sys, x0, u, d)
            assert boxes_contain(np.concatenate(box_lo), np.concatenate(box_hi), endpoint)
    # benchmark map: endpoints of the exact map stay inside the image boxes
    b = synthesize("logistic", "N40")
    plant, cover = b["plant"], b["cover"]
    los, his = cover.cell_boxes()
    for _ in range(1000):
        cell = int(rng.integers(0, cover.n_cells))
        lo, hi = los[cell], his[cell]
        x0 = float(rng.uniform(lo[0], hi[0]))
        img_lo, img_hi = plant.image_of_box(lo, hi)
        y = float(plant.step(x0))
        assert img_lo[0] <= y <= img_hi[0]
    dt = time.perf_counter() - t0
    report(6, dt < 60.0, f"3 x 1000 perturbed endpoints contained in {dt:.1f}s")


def test_criterion_07_pendulum_synthesis_soundness(pendulum):
    t0 = time.perf_counter()
    b = pendulum
    cover, W, model = b["cover"], b["result"].W, b["model"]
    finite = np.isfinite(W[: cover.n_cells])
    assert finite.sum() > 0
    in_target = model.target.cell_inside_batch(*cover.cell_boxes(np.nonzero(finite)[0]))
    assert in_target.any(), "winning domain must contain cells inside the target"
    rng = np.random.default_rng(1007)
    starts = sample_winning_states(W, cover, rng, 100)
    worst_gap = -INF
    for i, x0 in enumerate(starts):
        for j in range(10):
            policy = make_policy("uniform", seed=2000 + 37 * i + j)
            traj = run_closed_loop(
                b["plant"], b["ctrl"], x0, policy, cover.n_cells + 1, model, W=W
            )
            assert traj.stopped, f"run {i}/{j} did not stop"
            end = traj.states[-1]
            assert model.target.cell_inside_batch(end, end)[0], f"run {i}/{j} stopped outside the target"
            assert traj.cost <= traj.bound + 1e-9
            worst_gap = max(worst_gap, traj.cost - traj.bound)
    dt = time.perf_counter() - t0
    report(7, dt < 600.0, f"1000 runs reach the target within energy bounds; worst gap {worst_gap:.2e}; {dt:.1f}s")


def test_criterion_08_chauffeur_synthesis_soundness(chauffeur):
    t0 = time.perf_counter()
    b = chauffeur
    cover, W, model, sys = b["cover"], b["result"].W, b["model"], b["plant"]
    # finite minimum-time bounds across the y = 0 section, |x| <= 4.5
    xs = np.arange(-4.5, 4.5001, 0.05)
    section = np.array([W[cover.quantize([x, 0.0])] for x in xs])
    assert np.all(np.isfinite(section))
    seconds = section[section > 0] * sys.tau
    assert np.all((seconds >= 1.0) & (seconds <= 60.0))
    rng = np.random.default_rng(1008)
    starts = sample_winning_states(W, cover, rng, 100)
    for i, x0 in enumerate(starts):
        bound = pointwise_upper_bound(W, cover, x0)
        policy = make_policy("uniform", seed=3000 + i)
        max_steps = int(bound) + 1
        traj = run_closed_loop(sys, b["ctrl"], x0, policy, max_steps, model, W=W)
        assert traj.stopped, f"pursuit {i} exceeded its time bound"
        assert model.target.cell_inside_batch(traj.states[-1], traj.states[-1])[0]
        assert traj.steps <= bound
    dt = time.perf_counter() - t0
    report(8, dt < 900.0, f"section bounds in [{seconds.min():.1f}, {seconds.max():.1f}]s; 100 captures; {dt:.1f}s")


def test_criterion_09_relation_checker_soundness():
    rng = np.random.default_rng(1009)
    flips = 0
    for case in range(50):
        lists1, lists2, pairs = certified_vfrr_pair(rng)
        p1 = from_lists(lists1[1], lists1[0])
        p2 = from_lists(lists2[1], lists2[0])
        rel = Relation(pairs)
        verdict = check_vfrr(p1, p2, rel)
        assert verdict.ok, verdict.violations
        W1, W2 = solve(p1).W, solve(p2).W
        for a, b in rel.pairs:
            assert W1[a] <= W2[b]
        # inject a single-condition violation and require the verdict to flip
        mode = case % 4
        if mode == 0:  # (ii): raise a concrete terminal cost above its image
            G1 = p1.G.copy()
            a, b = rel.pairs[int(rng.integers(0, len(rel.pairs)))]
            G1[a] = (p2.G[b] + 1.0) if np.isfinite(p2.G[b]) else INF
            if G1[a] == INF:
                G1[a] = 1.0
                G2 = p2.G.copy()
                G2[b] = 0.5
                broken2 = FiniteProblem(p2.n, p2.m, G2, p2.trans_ptr, p2.trans_succ, edge_costs=p2.edge_costs)
                flipped = not check_vfrr(p1, broken2, rel).ok
            else:
                broken1 = FiniteProblem(p1.n, p1.m, G1, p1.trans_ptr, p1.trans_succ, edge_costs=p1.edge_costs)
                flipped = not check_vfrr(broken1, p2, rel).ok
        elif mode == 1:  # (iii): raise a concrete running cost above the abstract one
            finite_edges = np.nonzero(np.isfinite(p1.edge_costs))[0]
            if len(finite_edges) == 0:
                continue
            costs = p1.edge_costs.copy()
            costs[finite_edges[0]] += 10.0  # generator keeps a < 0.5 margin
            broken1 = FiniteProblem(p1.n, p1.m, p1.G, p1.trans_ptr, p1.trans_succ, edge_costs=costs)
            flipped = not check_vfrr(broken1, p2, rel).ok
        elif mode == 2:  # (iv): drop an abstract transition some concrete one maps into
            pid = next(
                (pid for pid in range(p2.n * p2.m) if p2.trans_ptr[pid + 1] - p2.trans_ptr[pid] > 1),
                None,
            )
            if pid is None:
                continue
            keep = np.ones(p2.n_edges, dtype=bool)
            keep[p2.trans_ptr[pid]] = False
            ptr = p2.trans_ptr.copy()
            ptr[pid + 1 :] -= 1
            broken2 = FiniteProblem(
                p2.n, p2.m, p2.G, ptr, p2.trans_succ[keep], edge_costs=p2.edge_costs[keep]
            )
            flipped = not check_vfrr(p1, broken2, rel).ok
        else:  # strictness: orphan one concrete state
            if len(rel.pairs) < 2:
                continue
            rel_broken = Relation(rel.pairs[1:])
            flipped = not check_vfrr(p1, p2, rel_broken).ok
        assert flipped, f"case {case} mode {mode}: injected violation not detected"
        flips += 1
    report(9, flips >= 40, f"50 certified pairs bounded; {flips} injected violations all flipped")


def test_criterion_10_determinism(tmp_path, pendulum):
    import os

    def sha(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
    hashes = {}
    for name, extra in (
        ("logistic_n400.ini", {}),
        ("pendulum_p1.ini", {}),
        ("chauffeur_p1.ini", {}),
    ):
        cfg = os.path.join(configs, name)
        for tag in ("one", "two"):
            prefix = tmp_path / f"{name}.{tag}"
            assert main(["synthesize", cfg, "--out-prefix", str(prefix)]) == 0
            assert main([
                "simulate", cfg,
                "--controller", f"{prefix}.controller",
                "--values", f"{prefix}.values",
                "--samples", "4", "--verify-samples", "10",
                "--policy", "uniform", "--seed", "11",
                "--out-prefix", f"{prefix}.sim",
            ]) == 0
        for suffix in (".values", ".controller", ".sidecar", ".sim.traj000.csv", ".sim.report"):
            a = sha(str(tmp_path / f"{name}.one{suffix}"))
            b = sha(str(tmp_path / f"{name}.two{suffix}"))
            assert a == b, f"{name}{suffix} differs between reruns"
            hashes[name + suffix] = a
    report(10, True, f"{len(hashes)} artifacts byte-identical across reruns")
