import hashlib
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import symoc.focp
from symoc.analysis import HYPO_MAX_POINTS
from symoc.cli import main
from symoc.config import load_config, parse_set
from symoc.core import INF, ControllerTable, FiniteProblem, values_from_text
from symoc.errors import InputError
from symoc.grid import GridCover
from symoc.relations import Relation
from symoc.sets import Box, Complement, EmptySet, QuadraticSublevel, UnionSet
from symoc.systems import get_system

from oracles import NON_GRAMMAR_BYTES, NON_GRAMMAR_INDICES, from_lists, quoted

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")

# pinned from the first run of the logistic N=40 pipeline (golden files)
GOLDEN = {
    "a.values": "dbaa06a18ccfb77b8af5257cc3a370c9ce85737e18a979e9b3626334a2e51c03",
    "a.controller": "07f7ef9b6b05fcd75de79829ec8c46f008acf57e5360cb4d4713477638d5077c",
    "a.sidecar": "2fa7cdbb23d62434834ffc31473c6556141559aad73e87bae94adb8110b90d74",
    "s.traj000.csv": "f084976453715203b2a4ff7e4e8447989570abf1fbafcb86d66b7cc07c546658",
    "s.report": "0ca447ad2725e3b6c7b09e536d46df85b25a6c4cba4d92871b9c7a27070cc4b6",
}


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_config_loads_shipped_presets():
    cfg = load_config(os.path.join(CONFIGS, "pendulum_p1.ini"))
    assert cfg.name == "pendulum"
    assert cfg.cover.counts.tolist() == [158, 76]
    assert len(cfg.inputs) == 21
    assert cfg.k == 1 and cfg.gamma == 6.3e-7
    cfg = load_config(os.path.join(CONFIGS, "chauffeur_p1.ini"))
    assert cfg.cover.counts.tolist() == [334, 334]
    assert len(cfg.inputs) == 11
    assert cfg.theta == 2.0


def test_config_overrides_and_rejections(tmp_path):
    good = tmp_path / "ok.ini"
    good.write_text(
        "[system]\ndynamics = logistic\n[grid]\neta = 0.01\n[inputs]\nmu = 1.0\n"
        "[costs]\ntarget = interval 0.4 ; 0.7\n"
    )
    cfg = load_config(good)
    assert cfg.cover.counts.tolist() == [101]
    assert isinstance(cfg.model.target, Box) and cfg.model.target.open

    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\ndynamics = logistic\n[grid]\nzeta = 0.01\n")
    with pytest.raises(InputError):
        load_config(bad)
    bad.write_text("[system]\ndynamics = warp_drive\n")
    with pytest.raises(InputError):
        load_config(bad)
    bad.write_text("[grid]\neta = 0.1\n")
    with pytest.raises(InputError):
        load_config(bad)
    with pytest.raises(InputError):
        load_config(tmp_path / "missing.ini")
    for section, key, value in (("reach", "theta", "abc"), ("reach", "k", "x"),
                                ("reach", "k", "1.5"), ("reach", "substeps", "0"),
                                ("reach", "substeps", "-2"), ("system", "A1", "1 2 3")):
        header = "" if section == "system" else f"[{section}]\n"
        bad.write_text(f"[system]\ndynamics = pendulum\npreset = p1\n{header}{key} = {value}\n")
        with pytest.raises(InputError, match=rf"\[{section}\] {key} = '{value}'"):
            load_config(bad)


def test_parse_set_primitives():
    dom = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert isinstance(parse_set("none", dom), EmptySet)
    comp = parse_set("complement_domain", dom)
    assert isinstance(comp, Complement)
    assert comp.cell_inside_batch([[2.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]).tolist() == [True, False]
    quad = parse_set("quadratic 1 0 0 1 ; 0 0 ; 0.9", dom)
    assert isinstance(quad, QuadraticSublevel) and quad.cell_inside_batch([0.0, 0.0], [0.0, 0.0])[0]
    # a singular semi-definite form is convex too
    assert isinstance(parse_set("quadratic 0.1 0.3 0.3 0.9 ; 0 0 ; 1", dom), QuadraticSublevel)
    union = parse_set("interval -1 ; 0 | box 0.5 ; 1", (np.array([-1.0]), np.array([1.0])))
    assert isinstance(union, UnionSet)
    with pytest.raises(InputError):
        parse_set("blob 1 2", dom)
    with pytest.raises(InputError):
        parse_set("quadratic 1 0 ; 0 0 ; 1", dom)


def test_cli_solve_finite_round_trip(tmp_path):
    problem = from_lists(
        [INF, 0.0],
        [[[(1, 1.0)]], [[(1, 0.0)]]],
    )
    focp = tmp_path / "p.focp"
    focp.write_text(problem.to_focp_text())
    rc = main(["solve-finite", str(focp), "--out-prefix", str(tmp_path / "out")])
    assert rc == 0
    W = values_from_text((tmp_path / "out.values").read_text())
    assert W.tolist() == [1.0, 0.0]
    assert (tmp_path / "out.controller").read_text() == "0 0\n1 STOP\n"
    # re-import of the exported problem reproduces the in-memory structure
    back = FiniteProblem.from_focp_text(focp.read_text())
    assert back.to_focp_text() == problem.to_focp_text()


def test_cli_golden_logistic_pipeline(tmp_path):
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    rc = main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")])
    assert rc == 0
    rc = main([
        "simulate", cfg,
        "--controller", str(tmp_path / "a.controller"),
        "--values", str(tmp_path / "a.values"),
        "--x0", "0.2", "--x0", "0.9",
        "--policy", "zero", "--seed", "0", "--verify-samples", "20",
        "--out-prefix", str(tmp_path / "s"),
    ])
    assert rc == 0
    for name, want in GOLDEN.items():
        assert sha(tmp_path / name) == want, f"golden mismatch for {name}"


def _simulate_report(tmp_path, *argv):
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    if not (tmp_path / "a.values").exists():
        assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    rc = main([
        "simulate", cfg, "--controller", str(tmp_path / "a.controller"),
        "--values", str(tmp_path / "a.values"), *argv, "--out-prefix", str(tmp_path / "s"),
    ])
    lines = (tmp_path / "s.report").read_text().splitlines()
    return rc, dict(line.replace(" ", "").split("=", 1) for line in lines)


def test_simulate_from_a_cell_face_raises_no_alarm(tmp_path):
    # 0.6875 is the face of cells 27 (W = 0) and 28 (W = 2); the quantizer
    # runs cell 28, so the bound must read 2, not 0
    rc, report = _simulate_report(
        tmp_path, "--x0", "0.6875", "--policy", "zero", "--samples", "0", "--verify-samples", "0",
    )
    assert rc == 0
    assert report == {"runs": "1", "non_stopping": "0", "max_cost_bound_ratio": "1.0",
                      "worst_gap": "0.0", "violations": "0"}


def test_simulate_report_counts_written_and_verify_runs(tmp_path):
    rc, report = _simulate_report(tmp_path, "--samples", "3", "--verify-samples", "4", "--seed", "5")
    assert rc == 0 and report["runs"] == "7"
    assert len(list(tmp_path.glob("s.traj*.csv"))) == 3
    rc, report = _simulate_report(tmp_path, "--x0", "0.2", "--x0", "0.9", "--verify-samples", "0")
    assert rc == 0 and report["runs"] == "2"


def test_cli_hypo_logistic(tmp_path):
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    rc = main([
        "hypo", cfg, "--values", str(tmp_path / "a.values"),
        "--samples", "800", "--out-prefix", str(tmp_path / "h"),
    ])
    assert rc == 0
    text = (tmp_path / "h.hypo").read_text()
    assert text.startswith("eps = ")
    assert (tmp_path / "h.hypo_w.csv").read_text().splitlines()[0] == "x,W"


def test_cli_check_relation(tmp_path):
    p = from_lists([0.0, 1.0], [[[(1, 1.0)]], [[(1, 0.5)]]])
    (tmp_path / "p.focp").write_text(p.to_focp_text())
    (tmp_path / "rel.txt").write_text(Relation([(0, 0), (1, 1)]).to_text())
    rc = main([
        "check-relation", str(tmp_path / "p.focp"), str(tmp_path / "p.focp"),
        str(tmp_path / "rel.txt"), "--mode", "vfrr",
        "--out", str(tmp_path / "verdict.txt"),
    ])
    assert rc == 0
    assert (tmp_path / "verdict.txt").read_text().startswith("verdict: true")
    rc = main([
        "check-relation", str(tmp_path / "p.focp"), str(tmp_path / "p.focp"),
        str(tmp_path / "rel.txt"), "--mode", "vasr", "--eps", "0.5",
    ])
    assert rc == 0


def test_cli_exit_codes(tmp_path, capsys):
    # malformed config -> input error -> exit 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\ndynamics = nope\n")
    assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) == 1
    # reach parameters out of range -> input error, not a crash, an alarm or
    # a cover sent wholesale to overflow
    for line in ("k = 0", "theta = 0", "theta = -1", "gamma = -1", "theta = abc", "k = x"):
        bad.write_text(
            "[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 0.8 0.6\n"
            f"[reach]\n{line}\n"
        )
        assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) == 1, line
        assert "input error:" in capsys.readouterr().err
    # non-finite system parameters pass every sign test, so they are input
    # errors by name rather than a diverged integration (exit 2)
    for line in ("tau = nan", "eps = nan", "K = -1 -1 ; nan 1", "w = 0 inf"):
        bad.write_text(f"[system]\ndynamics = pendulum\npreset = p1\n{line}\n")
        assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) == 1, line
        err = capsys.readouterr().err
        assert "input error:" in err and "Traceback" not in err, line

    # a key nothing reads is unknown, like any other
    bad.write_text("[system]\ndynamics = logistic\npreset = N40\n[solve]\nworkers = 2\n")
    assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) == 1
    assert "unknown key 'workers'" in capsys.readouterr().err
    # usage errors are input errors too: exit 2 is reserved for soundness alarms
    for argv in (
        ["solve-finite", "x", "--queue", "bad", "--out-prefix", "y"],
        ["simulate", "c.ini", "--controller", "a", "--values", "b", "--samples", "x", "--out-prefix", "y"],
        ["synthesize", "c.ini", "--out-prefix", "y", "--workers", "2"],
        [],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("input error: "), argv
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()

    # corrupting the value file downwards makes simulate flag violations -> exit 2
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    W = values_from_text((tmp_path / "a.values").read_text())
    finite = np.isfinite(W)
    W[finite] = 0.0  # claim everything winning is free
    lines = [f"{p} {'inf' if v == INF else repr(float(v))}" for p, v in enumerate(W)]
    (tmp_path / "a.values").write_text("\n".join(lines) + "\n")
    rc = main([
        "simulate", cfg,
        "--controller", str(tmp_path / "a.controller"),
        "--values", str(tmp_path / "a.values"),
        "--samples", "10", "--policy", "zero", "--seed", "1",
        "--out-prefix", str(tmp_path / "s"),
    ])
    assert rc == 2


def test_non_utf8_inputs_are_input_errors(tmp_path, capsys):
    # a config that is not UTF-8 text is named in an input error, not a
    # traceback; in the ASCII record files a byte outside the grammar makes
    # its line malformed, and the error quotes that line
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    focp = tmp_path / "bad.focp"
    focp.write_bytes(b"focp 1 1\nG 0 0\nT 0 0 0 1.0\xff\n")
    config = tmp_path / "bad.ini"
    config.write_bytes(b"[system]\ndynamics = logistic\npreset = N40\n# \xff\n")
    values = tmp_path / "bad.values"
    values.write_bytes((tmp_path / "a.values").read_bytes() + b"\xff")
    controller = tmp_path / "bad.controller"
    controller.write_bytes(b"\xfe" + (tmp_path / "a.controller").read_bytes())
    simulate = ["simulate", cfg, "--samples", "1", "--out-prefix", str(tmp_path / "s")]
    for bad, argv, message in (
        (focp, ["solve-finite", str(focp), "--out-prefix", str(tmp_path / "f")],
         "malformed focp record: 'T 0 0 0 1.0\\xff'"),
        (config, ["synthesize", str(config), "--out-prefix", str(tmp_path / "c")],
         f"cannot read config {config}: not UTF-8 text"),
        (values, simulate + ["--controller", str(tmp_path / "a.controller"), "--values", str(values)],
         "malformed value record: '\\xff'"),
        (controller, simulate + ["--controller", str(controller), "--values", str(tmp_path / "a.values")],
         "malformed controller record: '\\xfe0 STOP'"),
    ):
        assert main(argv) == 1, bad
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {message}"), err
        assert "Traceback" not in err


def test_controller_inputs_outside_the_input_grid_are_input_errors(tmp_path, capsys):
    # only STOP stops, and an input index must name one of the config's inputs
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a.controller").read_text().splitlines()
    controller = tmp_path / "bad.controller"
    for line, message in (
        ("6 -1", "neither an index nor STOP"),
        ("6 99999999999999999999", "neither an index nor STOP"),
        ("6 7", "controller state 6 chooses input 7"),
    ):
        controller.write_text("\n".join(lines[:6] + [line] + lines[7:]) + "\n")
        capsys.readouterr()
        rc = main([
            "simulate", cfg, "--controller", str(controller), "--values", str(tmp_path / "a.values"),
            "--out-prefix", str(tmp_path / "s"),
        ])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("input error: ") and message in err, (line, err)


@pytest.mark.parametrize("key, value, message", [
    ("target", "box 0.6 ; 0.4", "box has a lower corner above its upper corner"),
    ("target", "box 0.4 0.4 ; 0.6 0.6", "box of dimension 2 on a 1-dimensional domain"),
    ("target", "quadratic 1 ; 0 ; nan", "expected finite numbers, got 'nan'"),
    ("obstacle", "interval 0 ; inf", "expected finite numbers, got 'inf'"),
    ("target", "quadratic -1 ; 0 ; -1", "quadratic form is not positive semi-definite"),
])
def test_bad_set_primitives_are_input_errors(tmp_path, capsys, key, value, message):
    config = tmp_path / "bad.ini"
    config.write_text(f"[system]\ndynamics = logistic\npreset = N40\n[costs]\n{key} = {value}\n")
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == f"input error: [costs] {key} = {value!r}: {message}\n"


def test_substeps_below_one_are_input_errors_for_simulate(tmp_path, capsys):
    config = tmp_path / "c.ini"
    # a cover with winning cells, so that simulate has runs to make
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 0.4 0.3\n")
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "a")]) == 0
    assert np.isfinite(values_from_text((tmp_path / "a.values").read_text())).any()
    for value in ("0", "-2"):
        config.write_text(
            f"[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 0.4 0.3\n[reach]\nsubsteps = {value}\n"
        )
        capsys.readouterr()
        rc = main([
            "simulate", str(config), "--controller", str(tmp_path / "a.controller"),
            "--values", str(tmp_path / "a.values"), "--samples", "1", "--verify-samples", "1",
            "--out-prefix", str(tmp_path / "s"),
        ])
        err = capsys.readouterr().err
        assert rc == 1 and err == f"input error: [reach] substeps = {value!r}: need at least 1\n"


def test_focp_with_fewer_t_records_than_pairs_stops_before_the_pair_index(tmp_path):
    # 2e9 pairs: their index alone is 15 GiB, so under a 3 GiB address-space
    # limit of the child process only a check made before it exits 1 cleanly
    focp = tmp_path / "big.focp"
    focp.write_text("focp 1000000 2000\nG 0 0\n")
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    out = subprocess.run(
        [sys.executable, "-m", "symoc", "solve-finite", str(focp), "--out-prefix", str(tmp_path / "o")],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")), preexec_fn=limit,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    assert out.stderr == "input error: every (state, input) pair needs a successor (F strict): (0,0) has none\n"


def test_covers_of_2_31_pairs_or_more_are_input_errors(tmp_path, capsys):
    # the pair ids are int32: the config is rejected before any per-cell array
    config = tmp_path / "huge.ini"
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 1e-12 1e-12\n")
    spec = get_system("pendulum")
    cover = GridCover(spec.k_lower, spec.k_upper, [1e-12, 1e-12])
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"input error: {cover.n_states} states x 21 inputs: need fewer than 2**31 pairs\n"
    )


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = os.path.join(CONFIGS, "logistic_n400.ini")
    for tag in ("one", "two"):
        assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / tag)]) == 0
        assert main([
            "simulate", cfg,
            "--controller", str(tmp_path / f"{tag}.controller"),
            "--values", str(tmp_path / f"{tag}.values"),
            "--samples", "6", "--policy", "uniform", "--seed", "9",
            "--out-prefix", str(tmp_path / f"{tag}.sim"),
        ]) == 0
    for suffix in (".values", ".controller", ".sidecar", ".sim.traj000.csv", ".sim.report"):
        assert sha(tmp_path / ("one" + suffix)) == sha(tmp_path / ("two" + suffix))


def test_malformed_tokens_are_input_errors(tmp_path, capsys, monkeypatch):
    focp = "focp 2 1\nG 0 0\nT 0 0 1 1.0\nT 1 0 1 0.0\n"
    cases = [
        (FiniteProblem.from_focp_text, focp + "G x 0\n", "G x 0"),
        (FiniteProblem.from_focp_text, focp + "G 1 abc\n", "G 1 abc"),
        (FiniteProblem.from_focp_text, focp + "T 0 0 y 1.0\n", "T 0 0 y 1.0"),
        (values_from_text, "0 0.0\n1 x\n", "1 x"),
        (values_from_text, "z 0.0\n", "z 0.0"),
        (values_from_text, "0 0.0 1\n", "0 0.0 1"),
        (ControllerTable.from_text, "0 STOP\n1 x\n", "1 x"),
        (ControllerTable.from_text, "x STOP\n", "x STOP"),
        (ControllerTable.from_text, "0\n", "0"),
        (Relation.from_text, "0 0\n0 x\n", "0 x"),
        (Relation.from_text, "0 0 1\n", "0 0 1"),
        # a state listed twice would silently keep its last line
        (values_from_text, "0 0.0\n0 1.0\n1 2.0\n", "0 1.0"),
        (ControllerTable.from_text, "0 STOP\n1 0\n1 STOP\n", "1 STOP"),
    ]
    # what int(), float() and str.split accept beyond the ASCII grammar
    for reader, good, record in (
        (values_from_text, b"0 0.0\n", b"1 2.0"),
        (ControllerTable.from_text, b"0 STOP\n", b"1 0"),
        (Relation.from_text, b"0 0\n", b"1 1"),
    ):
        lines = [index + record[1:] for index in NON_GRAMMAR_INDICES]
        lines += [record.replace(b" ", byte) for byte in NON_GRAMMAR_BYTES]
        lines += [record + byte for byte in NON_GRAMMAR_BYTES]
        cases += [(reader, good + line + b"\nx y z\n", line) for line in lines]
    for read_bytes in (symoc.focp._READ_BYTES, 16):  # 16: blocks end inside records
        monkeypatch.setattr(symoc.focp, "_READ_BYTES", read_bytes)
        for reader, text, line in cases:
            with pytest.raises(InputError) as exc:
                reader(text)
            assert str(exc.value).endswith(": " + (quoted(line) if isinstance(line, bytes) else repr(line)))
    good = tmp_path / "good.focp"
    good.write_text(focp)
    (tmp_path / "bad.focp").write_text(focp + "G x 0\n")
    (tmp_path / "rel.txt").write_text("0 0\n0 x\n")
    prefix = str(tmp_path / "out")
    assert main(["solve-finite", str(tmp_path / "bad.focp"), "--out-prefix", prefix]) == 1
    assert main(["check-relation", str(good), str(good), str(tmp_path / "rel.txt")]) == 1
    # relation pairs index both problems: out of range names the pair; a
    # negative index, which numpy would read from the end, is not an index
    for pair, message in (("5 1", "relation pair '5 1'"), ("-1 1", "malformed relation record: '-1 1'"),
                          ("0 2", "relation pair '0 2'")):
        (tmp_path / "rel.txt").write_text(f"0 0\n{pair}\n")
        for mode in ("vfrr", "vasr"):
            argv = ["check-relation", str(good), str(good), str(tmp_path / "rel.txt"), "--mode", mode]
            assert main(argv) == 1, (pair, mode)
            assert message in capsys.readouterr().err, (pair, mode)
    # option values: not numbers, out of range, or of the wrong dimension
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    prefix = str(tmp_path / "a")
    assert main(["synthesize", cfg, "--out-prefix", prefix]) == 0
    simulate = ["simulate", cfg, "--controller", prefix + ".controller", "--values", prefix + ".values",
                "--verify-samples", "2", "--out-prefix", str(tmp_path / "s")]
    hypo = ["hypo", cfg, "--values", prefix + ".values", "--out-prefix", str(tmp_path / "h")]
    (tmp_path / "rel.txt").write_text("0 0\n1 1\n")
    for argv in (
        simulate + ["--x0", "abc"],
        simulate + ["--x0", "0.5 0.5"],  # the logistic plant is 1-D
        simulate + ["--samples", "-1"],
        simulate + ["--verify-samples", "-2"],
        simulate + ["--max-steps", "0"],
        simulate + ["--seed", "-1"],
        simulate + ["--tol", "-1"],  # would turn every run into a violation (exit 2)
        hypo + ["--eps-grid", "0"],
        hypo + ["--eps-grid", "-1"],
        hypo + ["--eps-grid", "nan"],
        hypo + ["--eps-grid", "1e-300"],  # a reference grid of 1e300 points
        hypo + ["--eps-grid", "1e-320"],
        hypo + ["--samples", "0"],
        ["check-relation", str(good), str(good), str(tmp_path / "rel.txt"), "--mode", "vasr", "--eps", "nan"],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv[-2:]
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err, argv[-2:]
    assert main(hypo + ["--eps-grid", "1e-6"]) == 1
    assert f"--eps-grid 1e-06 needs 1e+06 reference points; the limit is {HYPO_MAX_POINTS}" in capsys.readouterr().err
    # the smallest accepted values still run
    assert main(simulate + ["--x0", "0.5", "--samples", "0", "--verify-samples", "0", "--seed", "0"]) == 0
    assert main(hypo + ["--samples", "1", "--eps-grid", "0.5"]) == 0


def test_benchmark_span_hooks_install():
    # the benchmark's traced run wraps these symoc names; renaming or deleting
    # one must fail here rather than only in the benchmark
    script = (
        "import symoc.abstraction, symoc.cli, symoc.config, symoc.simulate\n"
        "from spans import Tracer\n"
        "from workloads import install_spans\n"
        "install_spans(Tracer())\n"
        "assert symoc.cli.load_config is symoc.config.load_config\n"
        "assert symoc.cli.abstract_costs is symoc.abstraction.abstract_costs\n"
        "assert symoc.cli.build_abstraction is symoc.abstraction.build_abstraction\n"
        "assert symoc.cli.run_closed_loop is symoc.simulate.run_closed_loop\n"
        "assert symoc.cli.batch_verify is symoc.simulate.batch_verify\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src"), os.path.join(REPO, "perfbench")]
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr


def test_importing_the_command_line_does_not_load_the_record_reader():
    # the readers import symoc.focp on first use, so start-up does not pay for it
    script = "import sys, symoc.cli\nassert 'symoc.focp' not in sys.modules, sorted(sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_python_m_symoc_runs_the_command_line():
    # an uninstalled checkout: PYTHONPATH=src python -m symoc ...
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "symoc", *argv], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
        )

    out = run("--help")
    assert out.returncode == 0 and "solve-finite" in out.stdout
    out = run()
    assert out.returncode == 1 and out.stderr.startswith("input error: ")
