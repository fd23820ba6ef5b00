import math

import numpy as np
import pytest

import symoc.focp
from symoc.cli import main
from symoc.core import (
    INF,
    ControllerTable,
    FiniteProblem,
    Run,
    cost_model,
    eval_cost_functional,
    make_shortest_path,
    values_from_text,
    values_to_text,
)
from symoc.errors import InputError
from symoc.sets import Box, Complement, EmptySet, QuadraticSublevel, UnionSet
from symoc.solver import solve

from oracles import (
    NON_GRAMMAR_BYTES,
    NON_GRAMMAR_INDICES,
    dijkstra_distances,
    edge_cost_view,
    from_lists,
    quoted,
    random_graph,
    reference_from_focp_text,
    reference_to_focp_text,
    validate_run,
)


class PointCosts:
    def __init__(self, g, G):
        self.g = g
        self.G = G


def test_cost_functional_stop_immediately():
    run = Run(x=("a",), u=(), v=(1,))
    costs = PointCosts(g=lambda p, q, u: 1.0, G=lambda p: 7.5)
    assert eval_cost_functional(run, costs) == 7.5


def test_cost_functional_never_stopping_is_infinite():
    run = Run(x=("a", "b"), u=(0,), v=(0, 0))
    costs = PointCosts(g=lambda p, q, u: 0.0, G=lambda p: 0.0)
    assert eval_cost_functional(run, costs) == INF


def test_cost_functional_three_state_example():
    run = Run(x=("a", "b", "c"), u=(1, 2), v=(0, 0, 1))
    costs = PointCosts(g=lambda p, q, u: 1.0, G=lambda p: 5.0)
    assert eval_cost_functional(run, costs) == 7.0


def test_cost_functional_recursion_on_random_runs():
    # J(u,v,x) = G(x0) if v0 = 1 else g(x0,x1,u0) + J(shifted run)
    rng = np.random.default_rng(7)
    gtab = {}

    def g(p, q, u):
        return gtab.setdefault((p, q, u), float(rng.uniform(0, 5)))

    def G(p):
        return float(p) + 0.25

    for _ in range(50):
        L = int(rng.integers(1, 8))
        x = tuple(int(v) for v in rng.integers(0, 5, size=L + 1))
        u = tuple(int(v) for v in rng.integers(0, 3, size=L))
        v = [0] * (L + 1)
        v[int(rng.integers(0, L + 1))] = 1
        run = Run(x=x, u=u, v=tuple(v))
        costs = PointCosts(g=g, G=G)
        got = eval_cost_functional(run, costs)
        if run.v[0] == 1:
            assert got == G(x[0])
        else:
            tail = Run(x=x[1:], u=u[1:], v=tuple(v[1:]))
            assert got == pytest.approx(g(x[0], x[1], u[0]) + eval_cost_functional(tail, costs), abs=1e-12)


def test_run_validation():
    with pytest.raises(InputError):
        Run(x=("a",), u=(0,), v=(0,))
    with pytest.raises(InputError):
        Run(x=("a", "b"), u=(0,), v=(0, 2))
    with pytest.raises(InputError):
        Run(x=("a", "b", "c"), u=(0, 0), v=(1,))


def test_reach_avoid_costs():
    D = Box([0.0], [1.0])
    M = Box([2.0], [3.0])
    model = cost_model("reach_avoid", D, M)
    g, G = model.g, model.G
    assert G([0.5]) == 0.0
    assert G([2.5]) == INF  # inside the obstacle
    assert G([1.5]) == INF  # outside the target
    assert g([0.5], [9.0], 0) == 0.0
    assert g([2.5], [0.5], 0) == INF


def test_reach_avoid_empty_target():
    G = cost_model("reach_avoid", EmptySet(), EmptySet()).G
    for x in ([0.0], [5.0], [-3.0]):
        assert G(x) == INF


def test_min_time_costs():
    D = Box([0.0], [1.0])
    M = Box([2.0], [3.0])
    model = cost_model("min_time", D, M)
    assert model.g([1.5], [0.0], 0) == 1.0
    assert model.G([0.5]) == 0.0
    # obstacle covering everything makes both costs infinite
    everywhere = cost_model("min_time", D, Complement(EmptySet()))
    assert everywhere.g([0.5], [0.5], 0) == INF
    assert everywhere.G([0.5]) == INF


def test_cost_constructors_idempotent():
    D = Box([0.0, 0.0], [1.0, 1.0])
    M = Box([2.0, 2.0], [3.0, 3.0])
    pts = [np.array([x, y]) for x in (-1.0, 0.5, 2.5) for y in (0.5, 2.5)]
    for kind in ("reach_avoid", "min_time"):
        one, two = cost_model(kind, D, M), cost_model(kind, D, M)
        for p in pts:
            assert one.G(p) == two.G(p)
            for q in pts:
                assert one.g(p, q, 0) == two.g(p, q, 0)


def test_shortest_path_single_vertex():
    problem = make_shortest_path(1, [], 0)
    assert solve(problem).W[0] == 0.0


def test_shortest_path_single_arc():
    problem = make_shortest_path(2, [(0, 1, 3.0)], 0)
    W = solve(problem).W
    assert W[0] == 0.0 and W[1] == 3.0


def test_shortest_path_matches_oracle_on_random_graph():
    rng = np.random.default_rng(42)
    n, arcs, s = 50, [], 0
    for _ in range(120):
        arcs.append((int(rng.integers(0, n)), int(rng.integers(0, n)), float(rng.integers(0, 20))))
    problem = make_shortest_path(n, arcs, s)
    W = solve(problem).W
    d = dijkstra_distances(n, arcs, s)
    assert np.array_equal(W, d)


def test_shortest_path_duplicate_arcs_keep_minimum():
    problem = make_shortest_path(2, [(0, 1, 5.0), (0, 1, 2.0)], 0)
    assert solve(problem).W[1] == 2.0


def test_shortest_path_rejects_negative_weight():
    with pytest.raises(InputError):
        make_shortest_path(2, [(0, 1, -1.0)], 0)


def test_shortest_path_oracle_equivalence_small_batch():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, arcs, s = random_graph(rng, n_max=60, w_max=20)
        problem = make_shortest_path(n, arcs, s)
        assert np.array_equal(solve(problem).W, dijkstra_distances(n, arcs, s))


def test_focp_round_trip():
    problem = from_lists(
        [INF, 0.0, 2.5],
        [
            [[(1, 1.0)], [(1, INF), (2, 0.5)]],
            [[(1, 0.0)], [(0, 3.0)]],
            [[(2, 1.0)], [(2, INF)]],
        ],
    )
    text = problem.to_focp_text()
    back = FiniteProblem.from_focp_text(text)
    assert back.n == problem.n and back.m == problem.m
    assert np.array_equal(back.G, problem.G)
    assert np.array_equal(back.trans_ptr, problem.trans_ptr)
    assert np.array_equal(back.trans_succ, problem.trans_succ)
    assert np.array_equal(back.edge_costs, problem.edge_costs)
    assert back.to_focp_text() == text


def test_focp_rejects_garbage():
    with pytest.raises(InputError):
        FiniteProblem.from_focp_text("not a focp file\n")
    with pytest.raises(InputError):
        FiniteProblem.from_focp_text("focp 2 1\nG 0 0\nG 1 0\nT 0 0 1 1\n")  # (1,0) has no successor
    with pytest.raises(InputError):
        FiniteProblem.from_focp_text("focp 1 1\nG 0 -3\nT 0 0 0 1\n")


# every special cost the text format has to carry unchanged
FOCP_COSTS = [INF, 0.0, -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 0.1 + 0.2, 1.5]


def random_focp_problem(rng, n_max=40, m_max=4, pair_costs=False):
    """A random problem whose costs mix FOCP_COSTS, 3-decimal and
    17-significant-digit values."""
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    sizes = rng.integers(1, min(n, 4) + 1, size=n * m)
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    succ = np.concatenate([rng.choice(n, size=k, replace=False) for k in sizes])

    def costs(size):
        pool = np.concatenate([FOCP_COSTS, np.round(rng.uniform(0, 2, size=5), 3), rng.uniform(0, 1e3, size=5)])
        return pool[rng.integers(0, len(pool), size=size)]

    G = costs(n)
    if pair_costs:
        return FiniteProblem(n, m, G, ptr, succ, pair_costs=costs(n * m))
    return FiniteProblem(n, m, G, ptr, succ, edge_costs=costs(len(succ)))


def assert_same_problem(a, b):
    assert (a.n, a.m) == (b.n, b.m)
    for name in ("G", "trans_ptr", "trans_succ"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(edge_cost_view(a), edge_cost_view(b))
    # -0.0 == 0.0, so compare the bits too
    assert np.array_equal(a.G.view(np.uint64), b.G.view(np.uint64))
    assert np.array_equal(edge_cost_view(a).view(np.uint64), edge_cost_view(b).view(np.uint64))


@pytest.mark.parametrize("read_bytes, write_edges", [(None, None), (64, 5), (7, 1)])
def test_focp_text_matches_the_reference_reader_and_writer(monkeypatch, read_bytes, write_edges):
    # small blocks put block boundaries inside records (7 bytes: inside every line)
    if read_bytes:
        monkeypatch.setattr(symoc.focp, "_READ_BYTES", read_bytes)
        monkeypatch.setattr(symoc.focp, "_WRITE_EDGES", write_edges)
    rng = np.random.default_rng(17)
    problems = [FiniteProblem(1, 1, [0.0], [0, 1], [0], edge_costs=[INF])]  # a single state
    problems += [random_focp_problem(rng, pair_costs=bool(i % 2)) for i in range(40)]
    cut_inside = 0  # problems whose first block ends inside a record
    for problem in problems:
        text = problem.to_focp_text()
        assert text == reference_to_focp_text(problem)
        cut_inside += bool(read_bytes) and len(text) > read_bytes and text[read_bytes - 1] != "\n"
        back = FiniteProblem.from_focp_text(text)
        assert_same_problem(back, reference_from_focp_text(text))
        assert_same_problem(back, problem)
        assert back.trans_succ.dtype == np.int32
    assert cut_inside >= (30 if read_bytes else 0)


@pytest.mark.parametrize("read_bytes", [None, 16])
def test_focp_reader_follows_the_ascii_grammar(monkeypatch, tmp_path, capsys, read_bytes):
    if read_bytes:
        monkeypatch.setattr(symoc.focp, "_READ_BYTES", read_bytes)
    cases = {
        "interleaved G and T": "focp 2 2\nT 0 0 1 1.0\nG 0 0\nT 0 1 0 2.5\nT 1 0 1 0\nG 1 inf\nT 1 1 0 3\n",
        "blank, whitespace-only lines and tabs": "\n  \nfocp 1 1\n\t\n G\t0   0.5 \n\n\tT 0\t0 0  1\n \n",
        "CRLF, no final newline": "focp 2 1\r\nG 0 0\r\nT 0 0 1 1.0\r\nT 1 0 1 2.0",
        "CR alone ends a line": "focp 2 1\rG 0 0\rT 0 0 1 1.0\rT 1 0 1 2.0\r",
        "out of pair order, within-pair order kept": "focp 2 1\nT 1 0 1 2\nT 0 0 1 1\nT 1 0 0 3\nT 0 0 0 4\n",
        "missing G is inf": "focp 3 1\nG 1 0\nT 0 0 1 1\nT 1 0 1 1\nT 2 0 1 1\n",
        "repeated G: the last one wins": "focp 1 1\nG 0 5\nT 0 0 0 1\nG 0 2\nG 0 7.5\n",
        "float() costs, leading zeros": "focp 2 1\nG 1 1_0\nT 0 0 1 Infinity\nT 1 0 01 1e400\nG 0 .5\n"
                                        "T 0 0 000000000000000000 -0.0\n",
    }
    # records in random order: a pair's successors keep their order in the file
    text = random_focp_problem(np.random.default_rng(5), n_max=60).to_focp_text()
    lines = text.splitlines()
    cases["shuffled"] = "\n".join([lines[0]] + list(np.random.default_rng(6).permutation(lines[1:])))
    for name, text in cases.items():
        assert_same_problem(FiniteProblem.from_focp_text(text), reference_from_focp_text(text))
        assert_same_problem(FiniteProblem.from_focp_text(text.encode()), reference_from_focp_text(text))
    back = FiniteProblem.from_focp_text(cases["out of pair order, within-pair order kept"])
    assert back.trans_succ.tolist() == [1, 0, 1, 0]
    assert back.edge_costs.tolist() == [1.0, 4.0, 2.0, 3.0]
    assert FiniteProblem.from_focp_text(cases["missing G is inf"]).G.tolist() == [INF, 0.0, INF]
    assert FiniteProblem.from_focp_text(cases["repeated G: the last one wins"]).G.tolist() == [7.5]

    # what int(), float() and str.split accept beyond the grammar exits 1, quoting its line
    good = b"focp 2 1\nG 0 0\nT 0 0 1 1\nT 1 0 1 2\n"
    bad = [(b"G " + index + b" 0", "state index out of range" if index.isdigit() else "malformed focp record")
           for index in NON_GRAMMAR_INDICES]  # a decimal integer, but longer than an index
    bad += [(b"T 1" + byte + b"0 1 2", "malformed focp record") for byte in NON_GRAMMAR_BYTES]
    bad += [(b"T 1 0 1 2" + byte, "malformed focp record") for byte in NON_GRAMMAR_BYTES]
    path, prefix = tmp_path / "bad.focp", str(tmp_path / "out")
    for line, kind in bad:
        message = f"{kind}: {quoted(line)}"
        path.write_bytes(good + line + b"\nT 9 0 0 1\n")
        assert main(["solve-finite", str(path), "--out-prefix", prefix]) == 1, line
        assert capsys.readouterr().err == f"input error: {message}\n", line
        with pytest.raises(InputError) as exc:
            FiniteProblem.from_focp_text(good + line + b"\n")
        assert str(exc.value) == message
    for header in (b"focp +2 1", b"focp 2 1_0", b"focp\xa02 1", b"focp 2 1\x00"):
        with pytest.raises(InputError, match="malformed focp header"):
            FiniteProblem.from_focp_text(header + good[8:])
    # a str is encoded once: a lone surrogate is a malformed record, not a UnicodeEncodeError
    with pytest.raises(InputError, match="malformed focp record: 'T 1 0 1 2"):
        FiniteProblem.from_focp_text("focp 2 1\nG 0 0\nT 0 0 1 1\nT 1 0 1 2\ud800\n")


def test_focp_duplicate_check_keys_do_not_wrap():
    # pair ids and successors are int32 columns; their (pair, successor) key
    # is not: 0 * n + 5 and 42949 * n + 67301 agree modulo 2**32
    n = 100_000
    succ = np.arange(n)
    succ[0], succ[42949] = 5, 67301
    text = "focp 100000 1\n" + "".join(f"T {p} 0 {q} 1\n" for p, q in enumerate(succ))
    problem = FiniteProblem.from_focp_text(text)
    assert np.array_equal(problem.trans_succ, succ)
    assert np.array_equal(problem.trans_ptr, np.arange(n + 1))


@pytest.mark.parametrize("read_bytes", [None, 16])
def test_focp_errors_quote_the_first_bad_line(monkeypatch, read_bytes):
    if read_bytes:
        monkeypatch.setattr(symoc.focp, "_READ_BYTES", read_bytes)
    good = "focp 2 2\nG 0 0\nT 0 0 1 1.0\nT 0 1 0 1.0\nT 1 0 1 0.0\nT 1 1 1 2\n"
    cases = [
        ("T 0 0 1\n", "unrecognized focp record: 'T 0 0 1'"),
        ("G 0 0 0\n", "unrecognized focp record: 'G 0 0 0'"),
        ("X 0 0\n", "unrecognized focp record: 'X 0 0'"),
        ("T 2 0 1 1.0\n", "index out of range: 'T 2 0 1 1.0'"),
        ("T 0 2 1 1.0\n", "index out of range: 'T 0 2 1 1.0'"),
        ("T 0 0 2 1.0\n", "index out of range: 'T 0 0 2 1.0'"),
        ("T -1 0 1 1.0\n", "index out of range: 'T -1 0 1 1.0'"),
        ("\tG 2 0 \n", "state index out of range: '\\tG 2 0 '"),
        ("T 0 0 12345678901234567890 1.0\n", "index out of range: 'T 0 0 12345678901234567890 1.0'"),
        ("T 0 0 4611686018427387905 1.0\n", "index out of range: 'T 0 0 4611686018427387905 1.0'"),  # 2**62 + 1
        ("G 18446744073709551617 0\n", "state index out of range: 'G 18446744073709551617 0'"),  # 2**64 + 1
        ("T 0 0 1 nan\n", "cost must be non-negative or inf: 'T 0 0 1 nan'"),
        ("T 0 0 1 -2\n", "cost must be non-negative or inf: 'T 0 0 1 -2'"),
        ("G 1 -inf\n", "cost must be non-negative or inf: 'G 1 -inf'"),
        ("T 0 0 x 1.0\n", "malformed focp record: 'T 0 0 x 1.0'"),
        ("T 0 0 1 1.0.0\n", "malformed focp record: 'T 0 0 1 1.0.0'"),
        ("T 0 0 1 1.0\x00\n", "malformed focp record: 'T 0 0 1 1.0\\x00'"),
    ]
    for bad, message in cases:
        for text in (good + bad, good + bad + "T 0 0 0 x\nT 9 0 0 1\n"):  # later bad lines are not named
            with pytest.raises(InputError) as exc:
                FiniteProblem.from_focp_text(text)
            assert str(exc.value) == message
            with pytest.raises(InputError):
                reference_from_focp_text(text)
    # duplicates are found once every record has been read: the first repeat in file order is named
    text = good + "T 1 1 1 5\nT 0 0 1 3\n"
    with pytest.raises(InputError) as exc:
        FiniteProblem.from_focp_text(text)
    assert str(exc.value) == "duplicate transition (1,1,1): 'T 1 1 1 5'"
    with pytest.raises(InputError, match="duplicate transition"):
        reference_from_focp_text(text)
    # the first bad line in file order, not the first of its kind
    text = good.replace("T 1 0 1 0.0", "T 1 0 1 y") + "T 9 0 0 1\n"
    with pytest.raises(InputError, match="malformed focp record: 'T 1 0 1 y'"):
        FiniteProblem.from_focp_text(text)
    with pytest.raises(InputError, match=r"\(F strict\): \(1,0\) has none"):
        FiniteProblem.from_focp_text(good.replace("T 1 0 1 0.0\n", ""))
    for text, message in (("", "missing focp header"), ("\n \n", "missing focp header"),
                          (" focp 1 1\n", "missing focp header"), ("focp 1\n", "malformed focp header"),
                          ("focp 0 1\n", "need positive"), ("focp 65536 32768\n", "2\\*\\*31")):
        with pytest.raises(InputError, match=message):
            FiniteProblem.from_focp_text(text)


def test_problem_strictness_enforced():
    with pytest.raises(InputError):
        from_lists([0.0], [[[]]])


def test_cost_of_totalization():
    problem = from_lists([0.0, 0.0], [[[(1, 2.0)]], [[(1, 0.0)]]])
    assert problem.cost_of(0, 1, 0) == 2.0
    assert problem.cost_of(0, 0, 0) == INF  # not a transition


def test_validate_run_against_problem():
    problem = from_lists([0.0, 0.0], [[[(1, 2.0)]], [[(1, 0.0)]]])
    validate_run(problem, Run(x=(0, 1), u=(0,), v=(0, 1)))
    with pytest.raises(InputError):
        validate_run(problem, Run(x=(0, 0), u=(0,), v=(0, 1)))


def test_controller_and_value_round_trips():
    table = ControllerTable(np.array([2, -1, 0]))
    assert ControllerTable.from_text(table.to_text()).choice.tolist() == [2, -1, 0]
    W = np.array([0.0, INF, 2.5])
    assert np.array_equal(values_from_text(values_to_text(W)), W)
    # records in any state order, as bytes or str, with the grammar's separators
    assert ControllerTable.from_text(b"2 0\r\n0 2\n\n 1\tSTOP").choice.tolist() == [2, -1, 0]
    assert values_from_text("2 2.5\n0 0.0\n1 inf\n").tolist() == [0.0, INF, 2.5]


def test_quadratic_predicate():
    # pendulum target ellipse: 63 x1^2 + 12 x1 x2 + 56 x2^2 < 42
    D = QuadraticSublevel([[63.0, 6.0], [6.0, 63.0 - 7.0]], [0.0, 0.0], 42.0)
    assert D.cell_inside_batch([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]).tolist() == [True, False]
    assert D.cell_inside_batch([[-0.1, -0.1], [0.7, -0.1]], [[0.1, 0.1], [0.9, 0.1]]).tolist() == [True, False]
    assert D.cell_disjoint_batch([[5.0, 5.0], [-0.1, -0.1]], [[6.0, 6.0], [0.1, 0.1]]).tolist() == [True, False]


def test_union_and_complement_predicates():
    U = UnionSet([Box([0.0], [1.0]), Box([2.0], [3.0])])
    assert U.cell_inside_batch([[2.5], [1.5]], [[2.5], [1.5]]).tolist() == [True, False]
    assert U.cell_inside_batch([[0.2]], [[0.8]])[0]
    assert U.cell_disjoint_batch([[1.2]], [[1.8]])[0]
    C = Complement(Box([0.0], [1.0], open_=True))
    assert C.cell_inside_batch([[0.0], [0.5]], [[0.0], [0.5]]).tolist() == [True, False]
    assert C.cell_inside_batch([[1.0]], [[2.0]])[0]
    assert C.cell_disjoint_batch([[0.2]], [[0.8]])[0]


def test_sup_empty_convention():
    # sup over an empty behavior set is 0 by convention; the one place this
    # surfaces is an empty member-cell list, exercised in the relations tests
    assert max([], default=0.0) == 0.0


def test_cost_functional_against_finite_problem():
    problem = from_lists(
        [INF, INF, 5.0],
        [[[(1, 1.0)]], [[(2, 1.0)]], [[(2, 0.0)]]],
    )
    run = Run(x=(0, 1, 2), u=(0, 0), v=(0, 0, 1))
    validate_run(problem, run)
    assert eval_cost_functional(run, problem) == 7.0
    # off-transition steps cost infinity under the totalized view
    bad = Run(x=(0, 2), u=(0,), v=(0, 1))
    assert eval_cost_functional(bad, problem) == INF
