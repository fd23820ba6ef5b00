import functools
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

import symoc.focp
from symoc.cli import main
from symoc.core import (
    INF,
    STOP,
    ControllerTable,
    CostModel,
    FiniteProblem,
    chunks,
    offsets,
    ranges,
    values_from_text,
    values_to_text,
)
from symoc.errors import InputError
from symoc.relations import Relation
from symoc.sets import Box, Complement, EmptySet, QuadraticSublevel, UnionSet
from symoc.solver import solve

from oracles import (
    NON_GRAMMAR_BYTES,
    NON_GRAMMAR_INDICES,
    Run,
    cost_of,
    dijkstra_distances,
    each_source,
    edge_cost_view,
    eval_cost_functional,
    from_lists,
    make_shortest_path,
    point_G,
    point_g,
    quoted,
    random_graph,
    reference_controller_to_text,
    reference_from_focp_text,
    reference_relation_to_text,
    reference_to_focp_text,
    reference_values_to_text,
    relation_pairs,
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
    model = CostModel("reach_avoid", D, M)
    g, G = functools.partial(point_g, model), functools.partial(point_G, model)
    assert G([0.5]) == 0.0
    assert G([2.5]) == INF  # inside the obstacle
    assert G([1.5]) == INF  # outside the target
    assert g([0.5], [9.0], 0) == 0.0
    assert g([2.5], [0.5], 0) == INF


def test_reach_avoid_empty_target():
    G = functools.partial(point_G, CostModel("reach_avoid", EmptySet(), EmptySet()))
    for x in ([0.0], [5.0], [-3.0]):
        assert G(x) == INF


def test_min_time_costs():
    D = Box([0.0], [1.0])
    M = Box([2.0], [3.0])
    model = CostModel("min_time", D, M)
    assert point_g(model, [1.5], [0.0], 0) == 1.0
    assert point_G(model, [0.5]) == 0.0
    # obstacle covering everything makes both costs infinite
    everywhere = CostModel("min_time", D, Complement(EmptySet()))
    assert point_g(everywhere, [0.5], [0.5], 0) == INF
    assert point_G(everywhere, [0.5]) == INF


def test_finite_running_costs_per_kind():
    us = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3))
    energy = CostModel("energy_entry", EmptySet(), EmptySet()).finite_g_rows(us)
    assert energy.tolist() == pytest.approx([float(u @ u) for u in us], rel=1e-15)
    assert CostModel("reach_avoid", EmptySet(), EmptySet()).finite_g_rows(us).tolist() == [0.0] * 50
    assert CostModel("min_time", EmptySet(), EmptySet()).finite_g_rows(us).tolist() == [1.0] * 50
    with pytest.raises(InputError, match="unknown cost kind 'fuel'"):
        CostModel("fuel", EmptySet(), EmptySet())


def test_cost_constructors_idempotent():
    D = Box([0.0, 0.0], [1.0, 1.0])
    M = Box([2.0, 2.0], [3.0, 3.0])
    pts = [np.array([x, y]) for x in (-1.0, 0.5, 2.5) for y in (0.5, 2.5)]
    for kind in ("reach_avoid", "min_time"):
        one, two = CostModel(kind, D, M), CostModel(kind, D, M)
        for p in pts:
            assert point_G(one, p) == point_G(two, p)
            for q in pts:
                assert point_g(one, p, q, 0) == point_g(two, p, q, 0)


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


def decimal_pool(rng):
    """Six consecutive multiples of 10**-k, exact decimals of k = 0 to 3
    places, and inf: costs drawn from them have their tokens keyed by
    decimal (_decimal_keys)."""
    k = int(rng.integers(0, 4))
    return np.append((int(rng.integers(0, 10**6)) + np.arange(6)) / 10**k, INF)


def random_focp_problem(rng, n_max=40, m_max=4, pair_costs=False, decimals=False, n_min=1, m_min=1):
    """A random problem whose costs mix FOCP_COSTS, 3-decimal and
    17-significant-digit values; with ``decimals``, costs of one decimal_pool."""
    n, m = int(rng.integers(n_min, n_max + 1)), int(rng.integers(m_min, m_max + 1))
    sizes = rng.integers(1, min(n, 4) + 1, size=n * m)
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    succ = np.concatenate([rng.choice(n, size=k, replace=False) for k in sizes])
    decimal = decimal_pool(rng) if decimals else None

    def costs(size):
        pool = decimal if decimals else np.concatenate(
            [FOCP_COSTS, np.round(rng.uniform(0, 2, size=5), 3), rng.uniform(0, 1e3, size=5)])
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
def test_focp_text_matches_the_reference_reader_and_writer(monkeypatch, tmp_path, read_bytes, write_edges):
    # small blocks put block boundaries inside records (7 bytes: inside every
    # line); the text is read as a str, bytes, an in-memory file, a file and a pipe
    if read_bytes:
        monkeypatch.setattr(symoc.focp, "_READ_BYTES", read_bytes)
        monkeypatch.setattr(symoc.focp, "_WRITE_EDGES", write_edges)
    rng = np.random.default_rng(17)
    problems = [FiniteProblem(1, 1, [0.0], [0, 1], [0], edge_costs=[INF])]  # a single state
    problems += [random_focp_problem(rng, pair_costs=bool(i % 2)) for i in range(40)]
    if write_edges != 1:  # at 5 edges and at the default: inputs of two digits, and state ids that
        # cross 9 -> 10 and 99 -> 100, so T records whose prefixes differ in width share a write chunk
        wide = np.random.default_rng(18)
        problems += [random_focp_problem(wide, n_min=101, n_max=110, m_min=10, m_max=11, pair_costs=bool(i % 2))
                     for i in range(2)]
    problems += [random_focp_problem(rng, pair_costs=bool(i % 2), decimals=True) for i in range(12)]
    keyed = spy_decimal_keys(monkeypatch)
    cut_inside = 0  # problems whose first block ends inside a record
    for problem in problems:
        text = problem.to_focp_text()
        assert text == reference_to_focp_text(problem)
        cut_inside += bool(read_bytes) and len(text) > read_bytes and text[read_bytes - 1] != "\n"
        reference = reference_from_focp_text(text)
        for way, source in each_source(text, tmp_path / "problem.focp"):
            back = FiniteProblem.from_focp_text(source)
            assert_same_problem(back, reference)
            assert_same_problem(back, problem)
            assert back.trans_succ.dtype == np.int32, way
    assert cut_inside >= (30 if read_bytes else 0)
    # the decimal draws are keyed by decimal; a draw that holds one of FOCP_COSTS' 17-digit costs is not
    assert keyed[-12:] == [True] * 12 and keyed.count(False) >= 30, keyed


@pytest.mark.parametrize("read_bytes", [None, 7])
def test_index_tokens_read_as_int_reads_them(monkeypatch, read_bytes):
    # every token of random lines, read by the words that end at its last
    # byte, against int() on 1 to 18 ASCII digits and -1 for anything else;
    # at 7 bytes a block holds a line or two, so tokens start in the 8 zero
    # bytes before a block's text and end at its last byte
    if read_bytes:
        monkeypatch.setattr(symoc.focp, "_READ_BYTES", read_bytes)
    rng = np.random.default_rng(31)
    # '/' and ':' are the bytes just below and above the digits; 0xCA to 0xCF (outside the
    # grammar, which only marks their line) are those whose nibble above 9 carries out of the byte
    odd = [b"+", b"-", b"_", b"/", b":", b"STOP", b"\xca", b"\xcf"]

    def token():
        digits = bytes(rng.integers(ord("0"), ord("9") + 1, size=int(rng.integers(1, 21))).tolist())
        if rng.random() < 0.3:
            digits = b"0" * int(rng.integers(1, 4)) + digits  # leading zeros
        if rng.random() < 0.4:
            at = int(rng.integers(0, len(digits) + 1))
            digits = digits[:at] + odd[rng.integers(0, len(odd))] + digits[at:]
        return digits[: rng.integers(1, 21)] if rng.random() < 0.5 else digits[-rng.integers(1, 21):]

    lines = [(b" ", b"\t")[rng.integers(0, 2)].join(token() for _ in range(rng.integers(1, 4))) for _ in range(3000)]
    text = b"\n".join(lines)  # no final line break: the last token ends the text
    seen, widths, at_start = [], set(), 0
    for block in symoc.focp._blocks(io.BytesIO(text)):
        tokens = [block.text[a:b].tobytes() for a, b in zip(block.tok_start, block.tok_end)]
        want = [int(t) if t.isdigit() and len(t) <= 18 else -1 for t in tokens]
        assert block.ints(np.arange(len(tokens))).tolist() == want
        seen += tokens
        widths |= {len(t) for t in tokens if t.isdigit()}
        at_start += bool(len(tokens)) and block.tok_start[0] == 0
    assert seen == text.split()
    assert widths == set(range(1, 21))  # one, two and three words; too long
    assert at_start >= (1000 if read_bytes else 1)


def spy_decimal_keys(monkeypatch):
    """A list that records, per cost token table, whether its tokens are
    keyed by decimal."""
    keyed, keys = [], symoc.focp._decimal_keys

    def spy(distinct):
        result = keys(distinct)
        keyed.append(result is not None)
        return result

    monkeypatch.setattr(symoc.focp, "_decimal_keys", spy)
    return keyed


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
        for way, source in each_source(text, tmp_path / "case.focp"):
            assert_same_problem(FiniteProblem.from_focp_text(source), reference_from_focp_text(text))
    back = FiniteProblem.from_focp_text(cases["out of pair order, within-pair order kept"])
    assert back.trans_succ.tolist() == [1, 0, 1, 0]
    assert back.edge_costs.tolist() == [1.0, 4.0, 2.0, 3.0]
    assert FiniteProblem.from_focp_text(cases["missing G is inf"]).G.tolist() == [INF, 0.0, INF]
    assert FiniteProblem.from_focp_text(cases["repeated G: the last one wins"]).G.tolist() == [7.5]

    # costs on both sides of the exact-decimal read (at most 16 bytes, 1 to 15 digits, one '.')
    # have the bits float() gives them
    tokens = ["123456789012345", "1234567890123456", "99999999999999.9", "9999999999999999", ".123456789012345",
              "0.0000000000000001", "1.", ".5", "00012.50", "0.1", "2.675", "0", "000", "0.30000000000000004",
              "1.7976931348623157e308", "5e-324", "-0.0", "+.5", "inf", "1_0", "1234567890123.456"]
    text = f"focp 1 {len(tokens)}\nG 0 {tokens[2]}\n" + "".join(f"T 0 {u} 0 {t}\n" for u, t in enumerate(tokens))
    bits = np.array([float(t) for t in tokens]).view(np.uint64)
    for way, source in each_source(text, tmp_path / "decimals.focp"):
        back = FiniteProblem.from_focp_text(source)
        assert np.array_equal(back.edge_costs.view(np.uint64), bits), way
        assert back.G.view(np.uint64)[0] == bits[2], way
    for token in (".", "1.2.3", "1..", "12a.5"):
        with pytest.raises(InputError) as exc:
            FiniteProblem.from_focp_text(f"focp 1 1\nT 0 0 0 {token}\n")
        assert str(exc.value) == f"malformed focp record: 'T 0 0 0 {token}'"

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
        for way, source in each_source(good + line + b"\n", tmp_path / "read.focp"):
            with pytest.raises(InputError) as exc:
                FiniteProblem.from_focp_text(source)
            assert str(exc.value) == message, way
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


@pytest.mark.parametrize("check_edges", [2, 1 << 16])
def test_focp_duplicate_check_names_the_first_repeat_in_file_order(monkeypatch, check_edges):
    # repeats in two pairs, successors falling within a pair and pairs out of
    # file order: chunks of whole pairs (two records a chunk, or all in one)
    # still name the first repeat in file order
    monkeypatch.setattr(symoc.core, "CHECK_EDGES", check_edges)
    head = "focp 3 1\nG 0 0\n"
    for body, message in (
        ("T 0 0 1 1\nT 1 0 2 1\nT 1 0 0 1\nT 2 0 0 1\nT 1 0 2 4\nT 0 0 1 3\n", "(1,0,2): 'T 1 0 2 4'"),
        ("T 0 0 2 1\nT 0 0 1 1\nT 1 0 0 1\nT 2 0 0 1\nT 0 0 1 5\nT 1 0 0 1\n", "(0,0,1): 'T 0 0 1 5'"),
        ("T 0 0 2 1\nT 0 0 1 1\nT 0 0 2 3\nT 1 0 0 1\nT 2 0 1 1\nT 2 0 1 1\n", "(0,0,2): 'T 0 0 2 3'"),
    ):
        with pytest.raises(InputError) as exc:
            FiniteProblem.from_focp_text(head + body)
        assert str(exc.value) == "duplicate transition " + message
        with pytest.raises(InputError, match="duplicate transition"):
            reference_from_focp_text(head + body)
    # without repeats the falling successors are kept in file order, and the
    # constructor's repeat search is the only one: the file-order one is not run
    monkeypatch.setattr(symoc.focp, "_duplicate", None)
    problem = FiniteProblem.from_focp_text(head + "T 2 0 1 1\nT 0 0 2 1\nT 0 0 1 1\nT 1 0 0 1\n")
    assert problem.trans_succ.tolist() == [2, 1, 0, 1]


@pytest.mark.parametrize("read_bytes", [None, 16])
def test_focp_errors_quote_the_first_bad_line(monkeypatch, tmp_path, read_bytes):
    # the same message whether the text comes as a str, bytes, an in-memory file, a file or a pipe
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
        # an index that is not one before an index out of range, before a cost that is not a number
        ("T 9 0 1 x\n", "index out of range: 'T 9 0 1 x'"),
        ("T x 0 9 1\n", "malformed focp record: 'T x 0 9 1'"),
        ("G 5 abc\n", "state index out of range: 'G 5 abc'"),
        ("T 0 0 1 1.0\x00\n", "malformed focp record: 'T 0 0 1 1.0\\x00'"),
    ]
    for bad, message in cases:
        for text in (good + bad, good + bad + "T 0 0 0 x\nT 9 0 0 1\n"):  # later bad lines are not named
            for way, source in each_source(text, tmp_path / "bad.focp"):
                with pytest.raises(InputError) as exc:
                    FiniteProblem.from_focp_text(source)
                assert str(exc.value) == message, way
            with pytest.raises(InputError):
                reference_from_focp_text(text)
    # duplicates are found once every record has been read: the first repeat in file order is named
    text = good + "T 1 1 1 5\nT 0 0 1 3\n"
    for way, source in each_source(text, tmp_path / "twice.focp"):
        with pytest.raises(InputError) as exc:
            FiniteProblem.from_focp_text(source)
        assert str(exc.value) == "duplicate transition (1,1,1): 'T 1 1 1 5'", way
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


def test_focp_reader_streams_blocks_from_every_source(monkeypatch, tmp_path):
    # reads of 16 bytes: CR and LF split across two reads, a line longer than
    # several blocks, a missing final newline, and a bad line and repeats in
    # later blocks, each read from every source with the same result
    monkeypatch.setattr(symoc.focp, "_READ_BYTES", 16)
    head = "focp 3 1\r\nG 0 0\r\n"
    assert head[15:17] == "\r\n"  # the CR ends the first read, the LF starts the second
    long_cost = "1." + "0" * 70 + "5"
    body = f"T 0 0 1 {long_cost}\r\n" + "".join(f"T {p} 0 {q} {p + q}\r\n" for p in (1, 2) for q in (0, 1, 2))
    text = head + body + "T 0 0 2 7"
    reference = reference_from_focp_text(text)
    assert reference.edge_costs[0] == float(long_cost)
    for way, source in each_source(text, tmp_path / "stream.focp"):
        assert_same_problem(FiniteProblem.from_focp_text(source), reference)
    for bad, message in (("T 2 0 x 1", "malformed focp record: 'T 2 0 x 1'"),
                         ("T 1 0 2 9", "duplicate transition (1,0,2): 'T 1 0 2 9'")):
        for way, source in each_source(text + "\r\n" + bad + "\r\nG 2 0\r\n", tmp_path / "bad.focp"):
            with pytest.raises(InputError) as exc:
                FiniteProblem.from_focp_text(source)
            assert str(exc.value) == message, way
    values = "".join(f"{p} {p}.0\n" for p in range(10)) + "3 5.0\n"
    for way, source in each_source(values, tmp_path / "twice.values"):
        with pytest.raises(InputError) as exc:
            values_from_text(source)
        assert str(exc.value) == "state listed twice in value record: '3 5.0'", way


def test_focp_reading_from_disk_holds_no_copy_of_the_text(monkeypatch, tmp_path):
    # 80 reads of 64 KiB from disk: beyond the parsed arrays the peak holds the
    # pair ids (4 B per edge) and one block; with the costs held twice while
    # their blocks were joined (8 B more) it was 0.46 of the 5.0 MiB text in
    # all.  A reader given the whole text holds it too: 1.46 of it, and 2.15
    # for the reader that tokenized one bytes object a block at a time.
    monkeypatch.setattr(symoc.focp, "_READ_BYTES", 1 << 16)
    rng = np.random.default_rng(20)
    n, m = 20000, 4
    succ = (rng.integers(0, n - 2, size=n * m)[:, None] + np.arange(3)).ravel()  # 3 rising successors a pair
    problem = FiniteProblem(n, m, np.round(rng.uniform(0, 9, n), 3), np.arange(0, len(succ) + 1, 3), succ,
                            edge_costs=np.round(rng.uniform(0, 9, len(succ)), 3))
    path = tmp_path / "big.focp"
    with open(path, "w") as fh:
        fh.writelines(symoc.focp.text_blocks(problem))
    size = path.stat().st_size
    assert size >= 16 << 16
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with open(path, "rb") as fh:
            back = FiniteProblem.from_focp_text(fh)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert_same_problem(back, problem)
    outputs = sum(a.nbytes for a in (back.G, back.trans_ptr, back.trans_succ, back.edge_costs))
    assert peak - outputs < 0.75 * size, (peak - outputs) / size


def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw while ``fn(*args)`` ran)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_focp_read_holds_no_column_twice(monkeypatch):
    # 190 blocks of 64 KiB: beyond its outputs a read holds the pair ids (4 B
    # per edge, until it returns) and about one block's parse, as each
    # column is grown a block at a time while its blocks are released.  A
    # join of all of a column's blocks at once held the costs twice, 4.6 MiB
    # here against 0.75 MiB for a block's parse
    monkeypatch.setattr(symoc.focp, "_READ_BYTES", 1 << 16)
    rng = np.random.default_rng(21)
    n, m = 20_000, 5
    succ = (rng.integers(0, n - 5, size=n * m)[:, None] + np.arange(6)).ravel()  # 6 rising successors a pair
    problem = FiniteProblem(n, m, np.round(rng.uniform(0, 9, n), 3), np.arange(0, len(succ) + 1, 6), succ,
                            edge_costs=np.round(rng.uniform(0, 9, len(succ)), 3))
    text = "".join(symoc.focp.text_blocks(problem)).encode()
    assert len(text) >= 190 << 16
    middle = text[len(text) // 2 : len(text) // 2 + (1 << 16)]
    middle = middle[middle.index(b"\n") + 1 : middle.rindex(b"\n") + 1]
    _, block = traced_peak(lambda: symoc.focp._records(symoc.focp._Block(middle, 0), n, m))
    back, peak = traced_peak(symoc.focp.read, io.BytesIO(text))
    assert (back.n, back.m) == (n, m) and np.array_equal(back.trans_succ, succ)
    assert np.array_equal(back.edge_costs, problem.edge_costs)
    outputs = sum(a.nbytes for a in (back.G, back.trans_ptr, back.trans_succ, back.edge_costs))
    assert peak <= outputs + 4 * len(succ) + 2 * block, (peak - outputs - 4 * len(succ)) / block


def test_problem_strictness_enforced():
    with pytest.raises(InputError):
        from_lists([0.0], [[[]]])


VALID_PROBLEM = dict(n=2, m=1, G=[0.0, INF], trans_ptr=[0, 1, 2], trans_succ=[0, 0], pair_costs=[1.0, 1.0])


@pytest.mark.parametrize("change, message", [
    (dict(n=0, G=[]), "need at least one state and one input"),
    (dict(G=[0.0]), "terminal cost array has wrong length"),
    (dict(G=[0.0, -1.0]), "terminal costs must be non-negative"),
    (dict(trans_ptr=[0, 2]), "transition index has wrong length"),
    (dict(trans_ptr=[0, 1, 3]), "transition index is inconsistent"),
    (dict(trans_ptr=[0, 2, 2]), "every (state, input) pair needs a successor (F strict): (1,0) has none"),
    (dict(trans_succ=[0, 2]), "successor index out of range"),
    (dict(trans_succ=np.array([0.0, 0.0])), "successor indices must be integers, not float64"),
    (dict(edge_costs=[1.0, 1.0]), "exactly one of edge_costs/pair_costs required"),
    (dict(pair_costs=[1.0]), "cost array has wrong length"),
    (dict(pair_costs=[1.0, math.nan]), "running costs must be non-negative"),
    # before any array of n * m entries is checked
    (dict(n=2**16, m=2**15, G=np.zeros(2**16), trans_ptr=[0]), "65536 states x 32768 inputs exceed the int32 pair ids"),
    (dict(trans_succ=np.array([[0], [0]])), "successor indices must be a 1-D array, not one of shape (2, 1)"),
])
def test_finite_problem_validation_names_the_first_fault(change, message):
    FiniteProblem(**VALID_PROBLEM)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        FiniteProblem(**{**VALID_PROBLEM, **change})


@pytest.mark.parametrize("make, message", [
    (lambda v: FiniteProblem(1, 1, [0], [0.0, v], [0], edge_costs=[1]), "transition index entry {} is not an integer"),
    (lambda v: ControllerTable([v, -1]), "controller entry {} is not an integer"),
    (lambda v: Relation([(0, 1), (v, 1.0)]), "relation state {} is not an integer"),
])
def test_index_arrays_refuse_values_the_int64_conversion_changes(make, message):
    # a fraction, NaN or inf would be truncated or wrapped; an integral
    # float, an int array, a list of ints and an empty input pass
    for value in (1.7, 0.5, -0.25, math.nan, math.inf, -math.inf, 2.0**63):
        with pytest.raises(InputError, match=f"^{re.escape(message.format(value))}$"):
            make(value)
    make(1.0)
    make(1)
    assert len(ControllerTable([])) == len(Relation([])) == 0
    assert FiniteProblem(1, 1, [0], np.array([0, 1], dtype=np.int32), [0], edge_costs=[1]).trans_ptr.dtype == np.int64


def problem_lists(rng, repeats):
    """(n, m, trans_ptr, trans_succ) of a random problem whose pairs list
    1 to 8 successors, rising, falling or shuffled; with ``repeats`` about
    one pair in five lists one of its successors again, at a random place."""
    n, m = int(rng.integers(1, 30)), int(rng.integers(1, 4))
    lists = []
    for _ in range(n * m):
        succ = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False)
        succ = [np.sort(succ), np.sort(succ)[::-1], succ][int(rng.integers(3))].tolist()
        if repeats and rng.random() < 0.2:
            succ.insert(int(rng.integers(len(succ) + 1)), succ[int(rng.integers(len(succ)))])
        lists.append(succ)
    ptr = np.append(0, np.cumsum([len(succ) for succ in lists]))
    return n, m, ptr, np.array([q for succ in lists for q in succ], dtype=np.int32)


def first_repeat(m, ptr, succ):
    """(pair id, message) of the first repeat in pair order, then list
    order, by a loop over the lists, or None."""
    for pid in range(len(ptr) - 1):
        seen = set()
        for k in range(ptr[pid], ptr[pid + 1]):
            if succ[k] in seen:
                return pid, f"duplicate transition ({pid // m},{pid % m},{succ[k]})"
            seen.add(succ[k])
    return None


def random_costs(rng, m, n, ptr, per_edge):
    """G and the costs keywords: about a third of the pairs inert (a cost inf)."""
    G = np.where(rng.random(n) < 0.3, 0.0, INF)
    inert = rng.random(n * m) < 0.3
    if per_edge:
        costs = np.round(rng.uniform(0, 2, size=ptr[-1]), 3)
        costs[ptr[:-1][inert]] = INF
        return G, inert, dict(edge_costs=costs)
    return G, inert, dict(pair_costs=np.where(inert, INF, np.round(rng.uniform(0, 2, size=n * m), 3)))


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_constructor_names_the_first_repeated_successor(monkeypatch, chunk):
    # every cost mode, live and inert pairs, the repeat next to its first
    # occurrence or not: the first repeat in pair order, then list order, is
    # named; chunks of 1 and 3 edges put a problem's pairs in many chunks
    if chunk is not None:
        monkeypatch.setattr(symoc.core, "CHECK_EDGES", chunk)
    rng = np.random.default_rng(31)
    seen = set()
    for case in range(400):
        n, m, ptr, succ = problem_lists(rng, repeats=True)
        G, inert, costs = random_costs(rng, m, n, ptr, case % 2 == 0)
        want = first_repeat(m, ptr, succ)
        if want is None:
            FiniteProblem(n, m, G, ptr, succ, **costs)
            continue
        with pytest.raises(InputError) as exc:
            FiniteProblem(n, m, G, ptr, succ, **costs)
        pid, message = want
        assert str(exc.value) == message, case
        list_ = succ[ptr[pid] : ptr[pid + 1]].tolist()
        q = int(message.rstrip(")").rsplit(",", 1)[1])
        k = list_.index(q)
        seen.add((case % 2 == 0, bool(inert[pid]), list_[k + 1] == q))  # per edge, inert, adjacent
    assert seen == {(e, i, a) for e in (True, False) for i in (True, False) for a in (True, False)}


def test_focp_text_of_every_constructible_problem_reads_back():
    # a problem the constructor accepts is written and read back to equal
    # arrays; one listing a successor twice is refused when it is made, so
    # no written problem fails to read back
    rng = np.random.default_rng(32)
    accepted = refused = 0
    for case in range(300):
        n, m, ptr, succ = problem_lists(rng, repeats=case % 2 == 0)
        G, _, costs = random_costs(rng, m, n, ptr, case % 3 == 0)
        try:
            problem = FiniteProblem(n, m, G, ptr, succ, **costs)
        except InputError as exc:
            assert str(exc).startswith("duplicate transition"), case
            refused += 1
            continue
        assert_same_problem(FiniteProblem.from_focp_text(problem.to_focp_text()), problem)
        accepted += 1
    assert accepted > 150 and refused > 30


def test_constructing_a_shuffled_problem_holds_no_array_per_edge():
    # 3.0 M edges, each pair's list shuffled, so every chunk of the repeat
    # check is sorted: beyond the given arrays the constructor holds
    # O(CHECK_EDGES) per chunk and O(n m) pair data, never a byte per edge
    rng = np.random.default_rng(33)
    n, m = 6000, 3
    sizes = rng.integers(100, 236, size=n * m)
    ptr = np.append(0, np.cumsum(sizes))
    owner = np.arange(n * m).repeat(sizes)
    succ = (rng.integers(0, n - 250, size=n * m)[owner] + np.arange(ptr[-1]) - ptr[owner]).astype(np.int32)
    succ = succ[np.lexsort((rng.random(ptr[-1]), owner))]
    del owner
    G = np.where(rng.random(n) < 0.3, 0.0, INF)
    bound = 32 * symoc.core.CHECK_EDGES + 16 * n * m
    assert ptr[-1] >= 3_000_000 > bound
    for costs in (dict(edge_costs=rng.uniform(0.5, 1.5, ptr[-1])), dict(pair_costs=rng.uniform(0.5, 1.5, n * m))):
        FiniteProblem(n, m, G, ptr, succ, **costs)  # numpy's first sorts allocate once
        _, peak = traced_peak(lambda: FiniteProblem(n, m, G, ptr, succ, **costs))
        assert peak <= bound, peak


def test_ranges_expand_every_range_in_order():
    owner, index = ranges(np.array([5, 2, 7, 0]), np.array([8, 2, 7, 1]))  # [2, 2) and [7, 7) are empty
    assert owner.tolist() == [0, 0, 0, 3] and index.tolist() == [5, 6, 7, 0]
    owner, index = ranges(0, np.array([0, 2, 0, 1]))
    assert owner.tolist() == [1, 1, 3] and index.tolist() == [0, 1, 0]
    for owner_index in ranges(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)):
        assert len(owner_index) == 0


def test_chunks_cut_runs_of_whole_items():
    rng = np.random.default_rng(25)
    for _ in range(200):
        sizes = rng.integers(0, 12, size=int(rng.integers(1, 60)))
        sizes[rng.random(len(sizes)) < 0.1] = rng.integers(20, 40)  # some items of more than size elements
        size = int(rng.integers(1, 25))
        ptr = np.append(0, np.cumsum(sizes))
        cuts = chunks(ptr, size)
        # the runs cover every item in order, each of whole items
        assert cuts[0] == 0 and cuts[-1] == len(sizes) and all(a < b for a, b in zip(cuts, cuts[1:]))
        for a, b in zip(cuts, cuts[1:]):
            assert ptr[b] - ptr[a] < size + sizes.max()
            assert b - a == 1 or sizes[a:b].max() <= size  # an oversized item is a run of its own
    assert chunks(np.zeros(6, dtype=np.int64), 4) == [0, 5]  # zero-size items still lie in a run
    assert chunks(np.zeros(1, dtype=np.int64), 4) == [0]  # no items, no runs


def test_offsets_of_sorted_keys():
    keys = np.array([0, 0, 2, 2, 2, 5])
    assert offsets(keys, 6).tolist() == [0, 2, 2, 5, 5, 5, 6]  # keys 1, 3 and 4 have no run
    assert offsets(keys, 8).tolist() == [0, 2, 2, 5, 5, 5, 6, 6, 6]  # n above the largest key
    assert offsets(np.zeros(0, dtype=np.int32), 3).tolist() == [0, 0, 0, 0]
    assert offsets(keys.astype(np.int32), 6).tolist() == offsets(keys, 6).tolist()


def test_cost_of_totalization():
    problem = from_lists([0.0, 0.0], [[[(1, 2.0)]], [[(1, 0.0)]]])
    assert cost_of(problem, 0, 1, 0) == 2.0
    assert cost_of(problem, 0, 0, 0) == INF  # not a transition


def test_validate_run_against_problem():
    problem = from_lists([0.0, 0.0], [[[(1, 2.0)]], [[(1, 0.0)]]])
    validate_run(problem, Run(x=(0, 1), u=(0,), v=(0, 1)))
    with pytest.raises(InputError):
        validate_run(problem, Run(x=(0, 0), u=(0,), v=(0, 1)))


def test_record_writers_match_the_per_record_references(monkeypatch):
    # the array writers of value, controller and relation files against the
    # per-line writers, byte for byte, and write -> read -> write; values
    # mixing the specials and 17-digit costs, and values of decimals only
    rng = np.random.default_rng(29)
    specials = np.array([INF, 0.0, -0.0, 5e-324, 1e300, 1e-05, 1e16, 0.1 + 0.2, 1.7976931348623157e308])
    sizes = [0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, *rng.integers(1, 3000, size=8)]
    keyed = spy_decimal_keys(monkeypatch)

    def write_read_write(W):
        """Per write, whether it keyed W's tokens by decimal, once checked."""
        keyed.clear()
        text = values_to_text(W)
        assert text == reference_values_to_text(W)
        back = values_from_text(text)
        assert np.array_equal(back.view(np.uint64), W.view(np.uint64))  # -0.0 keeps its sign
        assert values_to_text(back) == text
        return keyed

    for n in sizes:
        W = np.concatenate([specials, np.round(rng.uniform(0, 50, size=n), 3), rng.uniform(0, 1e3, size=n)])
        write_read_write(W[rng.integers(0, len(W), size=n)])
        pool = decimal_pool(rng)
        W = pool[rng.integers(0, len(pool), size=n)]
        assert write_read_write(W) == [True, True] or not np.isfinite(W).any()

        m = int(rng.choice([1, 2, 10, 11, 100, 101, 1001]))
        stops = rng.choice([0.0, 0.3, 1.0])  # no STOP, some, all
        choice = np.where(rng.random(n) < stops, STOP, rng.integers(0, m, size=n))
        text = ControllerTable(choice).to_text()
        assert text == reference_controller_to_text(choice)
        assert ControllerTable.from_text(text).to_text() == text

        digits = rng.integers(1, 19, size=(n, 2))  # indices of 1 to 18 digits, the longest an index has
        pairs = rng.integers(0, 10**digits)
        pairs[:1] = [10**18 - 1, 0]  # the largest index
        rel = Relation(pairs)
        text = rel.to_text()
        assert text == reference_relation_to_text(relation_pairs(rel))
        back = Relation.from_text(text)
        assert relation_pairs(back) == relation_pairs(rel) and back.to_text() == text

    # exact decimals of one scale whose keys span at most _SPAN_ROWS per cost are keyed by
    # decimal; a sign bit (-0.0 and 0.0 would share a key), a cost of 2**53 or more (1e300
    # overflows at 10**k), a 17-digit cost or a wider span fall back to the binary search
    cents, top = [0.01, 0.02, 0.05, 0.1, INF], [2.0**53 - 3, 2.0**53 - 2, 2.0**53 - 1]
    for table, decimal in ((cents, True), (cents[:-1], True), (cents + [-0.0], False), (cents + [1e300], False),
                           (cents + [2.0**53], False), (cents + [0.5], False), (cents + [0.1 + 0.2], False),
                           (top, True), (top + [2.0**53], False), ([0.0, 0.5, 10.0, 12.5], False), ([INF], False)):
        W = np.concatenate([table, np.array(table)[rng.integers(0, len(table), size=50)]])
        assert write_read_write(W) == [decimal] * 2, table


def test_tables_that_cannot_be_written_are_rejected():
    # each would write a record that its reader rejects
    with pytest.raises(InputError, match="controller state 1 chooses input -5, neither an index nor STOP"):
        ControllerTable([0, -5, STOP])
    with pytest.raises(InputError, match="relation pair '-1 0' has a negative state"):
        Relation([(0, 0), (-1, 0)])
    # a table of the wrong shape, which would be read as other entries or fail on writing
    with pytest.raises(InputError, match=re.escape("a controller must be a 1-D array, not one of shape (2, 2)")):
        ControllerTable(np.array([[0, 1], [1, -1]]))
    for pairs, shape in (([(0, 1, 2), (3, 4, 5)], (2, 3)), (np.arange(6).reshape(2, 3), (2, 3)),
                         ([(0, 1, 2)], (1, 3)), (np.arange(4), (4,))):
        with pytest.raises(InputError, match=re.escape(f"relation pairs must form a (k, 2) array, not one of shape {shape}")):
            Relation(pairs)
    with pytest.raises(InputError, match="^relation state array is ragged$"):
        Relation([(0, 1), (2,)])
    with pytest.raises(InputError, match="^controller entry array is ragged$"):
        ControllerTable([[0], [1, 2]])
    assert len(ControllerTable([])) == len(Relation([])) == 0


def test_value_writer_accepts_exactly_the_costs_the_value_reader_accepts():
    for token, cost in (("0.0", 0.0), ("-0.0", -0.0), ("2.5", 2.5), ("inf", INF)):
        text = f"0 1.0\n1 {token}\n"
        assert values_to_text(np.array([1.0, cost])) == text
        back = values_from_text(text)
        assert back[1] == cost and math.copysign(1.0, back[1]) == math.copysign(1.0, cost)
    for token, cost in (("-1.0", -1.0), ("nan", math.nan), ("-inf", -INF)):
        with pytest.raises(InputError, match="malformed value record"):
            values_from_text(f"0 1.0\n1 {token}\n")
        # the first such state is named
        with pytest.raises(InputError, match=re.escape(f"value state 1 has cost {cost!r}, neither non-negative nor inf")):
            values_to_text(np.array([1.0, cost, -2.0]))


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
