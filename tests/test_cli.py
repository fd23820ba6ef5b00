import hashlib
import json
import os
import resource
import string
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import symoc.abstraction
import symoc.focp
from symoc.analysis import HYPO_MAX_INTERVALS, HYPO_MAX_POINTS
from symoc.cli import main
from symoc.config import _KEYS, _ODE_KEYS, load_config, parse_set
from symoc.core import INF, ControllerTable, FiniteProblem, values_from_text
from symoc.errors import InputError
from symoc.grid import GridCover
from symoc.relations import Relation
from symoc.sets import Box, Complement, EmptySet, QuadraticSublevel, UnionSet
from symoc.systems import get_system

from oracles import NON_GRAMMAR_BYTES, NON_GRAMMAR_INDICES, each_source, from_lists, quoted

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
    assert cfg.reach.k == 1 and cfg.reach.gamma == 6.3e-7
    cfg = load_config(os.path.join(CONFIGS, "chauffeur_p1.ini"))
    assert cfg.cover.counts.tolist() == [334, 334]
    assert len(cfg.inputs) == 11
    assert cfg.reach.theta == 2.0


def test_config_overrides_and_rejections(tmp_path):
    good = tmp_path / "ok.ini"
    good.write_text(
        "[system]\ndynamics = logistic\n[grid]\neta = 0.01\n[inputs]\nmu = 1.0\n"
        "[costs]\ntarget = interval 0.4 ; 0.7\n"
    )
    cfg = load_config(good)
    assert cfg.cover.counts.tolist() == [101]
    assert isinstance(cfg.model.target, Box) and cfg.model.target.open
    # the map's input set is a point, one input for any mu; the map ignores
    # its input, so an input set U would only copy every edge
    assert len(cfg.inputs) == 1
    good.write_text(good.read_text().replace("[inputs]\n", "[inputs]\nU = -1 ; 1\n"))
    with pytest.raises(InputError, match=r"^\[inputs\] U does not apply to the map dynamics 'logistic'$"):
        load_config(good)

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
                                ("reach", "k", "1.5"), ("system", "A1", "1 2 3")):
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
    # a FIFO, like <(cat p.focp), cannot seek: it is read whole, to the same files
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)
    feeder = threading.Thread(target=fifo.write_bytes, args=(focp.read_bytes(),), daemon=True)
    feeder.start()
    assert main(["solve-finite", str(fifo), "--out-prefix", str(tmp_path / "fifo")]) == 0
    feeder.join(timeout=60)
    assert not feeder.is_alive()
    for suffix in (".values", ".controller"):
        assert sha(tmp_path / ("fifo" + suffix)) == sha(tmp_path / ("out" + suffix))


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


def test_hypo_ends_on_values_far_above_the_exact_levels(tmp_path):
    # one value of 1e12 (or near the float limit) asks for that many exact
    # levels; on the shipped target level 39 is all of (0, 1) and level 40
    # repeats it, so the levels stop there.  A child process with a timeout
    # fails this test instead of hanging it.
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a.values").read_text().splitlines()
    p = int(np.flatnonzero(np.isfinite(values_from_text("\n".join(lines))))[0])
    argv = []
    for big in ("1e12", "1.7e308"):
        (tmp_path / f"{big}.values").write_text("\n".join(lines[:p] + [f"{p} {big}"] + lines[p + 1:]) + "\n")
        argv.append(["hypo", cfg, "--values", str(tmp_path / f"{big}.values"), "--samples", "400",
                     "--out-prefix", str(tmp_path / big)])
    script = f"import sys\nfrom symoc.cli import main\nsys.exit(max(main(argv) for argv in {argv!r}))\n"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], cwd=REPO, capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    assert (out.returncode, out.stderr) == (0, "")
    for big in ("1e12", "1.7e308"):
        assert (tmp_path / f"{big}.sublevels.csv").read_text().splitlines()[-1] == "39,0.0,1.0"
    assert "cap = 1.7976931348623157e+308" in (tmp_path / "1.7e308.hypo").read_text()


def test_hypo_caps_the_intervals_of_one_exact_level(tmp_path, capsys):
    # a narrow target's levels double in intervals: the first one past the
    # cap is an input error, not minutes of work
    config = tmp_path / "narrow.ini"
    config.write_text("[system]\ndynamics = logistic\npreset = N40\n[costs]\ntarget = interval 0.6 ; 0.6001\n")
    values = tmp_path / "w.values"
    values.write_text("".join(f"{p} 20.0\n" for p in range(42)))
    rc = main(["hypo", str(config), "--values", str(values), "--out-prefix", str(tmp_path / "h")])
    assert (rc, capsys.readouterr().err) == (
        1, f"input error: exact sublevel set 16 has 131007 intervals; the limit is {HYPO_MAX_INTERVALS}\n"
    )


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

    # cost slack keys are unknown: the cost abstraction is exact
    for key in ("A2", "A3"):
        bad.write_text(f"[system]\ndynamics = logistic\npreset = N40\n{key} = 0.0\n")
        assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"input error: unknown key '{key.lower()}' in section [system]\n"
    # a zero field bound and input steps too fine to count are no crash
    bad.write_text("[system]\ndynamics = pendulum\npreset = p1\nA0 = 0 0\n[grid]\neta = 0.8 0.6\n")
    assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    for mu in ("1e-308", "1e-9"):
        bad.write_text(f"[system]\ndynamics = pendulum\npreset = p1\n[inputs]\nmu = {mu}\n")
        assert main(["synthesize", str(bad), "--out-prefix", str(tmp_path / "x")]) == 1, mu
        assert capsys.readouterr().err.startswith(f"input error: mu = {float(mu)!r} needs "), mu

    # a key nothing reads is unknown, like any other
    bad.write_text("[system]\ndynamics = logistic\npreset = N40\n[reach]\nworkers = 2\n")
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
    # an output that cannot be written is an input error naming it, the FOCP dump's too
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    (tmp_path / "d.focp").mkdir()
    for prefix, path in ((tmp_path / "missing" / "x", tmp_path / "missing" / "x.sidecar"),
                         (tmp_path / "d", tmp_path / "d.focp")):
        assert main(["synthesize", cfg, "--out-prefix", str(prefix), "--dump-focp"]) == 1
        assert capsys.readouterr().err.startswith(f"input error: cannot write {path}: "), prefix

    # corrupting the value file downwards makes simulate flag violations -> exit 2
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
    # reach.SUBSTEPS is a constant: a config naming substeps is refused
    config = tmp_path / "c.ini"
    # a cover with winning cells, so that simulate has runs to make
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 0.4 0.3\n")
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "a")]) == 0
    assert np.isfinite(values_from_text((tmp_path / "a.values").read_text())).any()
    for value in ("0", "-2", "5"):
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
        assert rc == 1 and err == "input error: unknown key 'substeps' in section [reach]\n"


def test_max_splits_below_one_is_an_input_error(tmp_path, capsys):
    # reach.MAX_SPLITS is a constant: a config naming max_splits is refused
    config = tmp_path / "c.ini"
    for value in ("-5", "64"):
        config.write_text(f"[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 0.4 0.3\n[reach]\nmax_splits = {value}\n")
        rc = main(["synthesize", str(config), "--out-prefix", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 1 and err == "input error: unknown key 'max_splits' in section [reach]\n"
        assert not (tmp_path / "a.values").exists()


def test_solve_section_is_not_a_config_section(tmp_path, capsys):
    # synthesize always solves with the auto queue: a [solve] section is refused
    config = tmp_path / "c.ini"
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 0.4 0.3\n[solve]\nqueue = auto\n")
    rc = main(["synthesize", str(config), "--out-prefix", str(tmp_path / "a")])
    assert (rc, capsys.readouterr().err) == (1, "input error: unknown config section [solve]\n")
    assert not (tmp_path / "a.values").exists()


def config_text(entries):
    """Config text setting each ``(section, key): value`` of ``entries``."""
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


PENDULUM_P1 = {("system", "dynamics"): "pendulum", ("system", "preset"): "p1", ("grid", "eta"): "0.4 0.3"}
LOGISTIC_N40 = {("system", "dynamics"): "logistic", ("system", "preset"): "N40"}


STATE_2, MAP_DOMAIN = "expected the state dimension 2, got", "the map 'logistic' is defined on K = 0 ; 1 only"
INVERTED = "the lower corner is at or above the upper corner"
WRONG_DIMENSIONS = [
    (PENDULUM_P1, {("system", "K"): "-1 -1 -1 ; 1 1 1", ("grid", "eta"): "0.4 0.3 0.3"}, f"{STATE_2} 3"),
    (PENDULUM_P1, {("system", "K"): "-1 ; 1"}, f"{STATE_2} 1"),
    ({("system", "dynamics"): "chauffeur", ("system", "preset"): "p1"}, {("system", "K"): "-5 -5 -5 ; 5 5 5"},
     f"{STATE_2} 3"),
    (LOGISTIC_N40, {("system", "K"): "0 ; 2"}, MAP_DOMAIN),
    (LOGISTIC_N40, {("system", "K"): "-1 ; 1"}, MAP_DOMAIN),
    (LOGISTIC_N40, {("system", "K"): "0 0 ; 1 1"}, "expected the state dimension 1, got 2"),
    (PENDULUM_P1, {("inputs", "U"): "-2 -1 ; 2 1", ("inputs", "mu"): "1 1"}, "expected the input dimension 1, got 2"),
    (PENDULUM_P1, {("inputs", "U"): "-2 ; 2 | -2 -1 ; 2 1"}, "expected the input dimension 1, got 2"),
    (PENDULUM_P1, {("system", "A0"): "4 2.5 1"}, f"{STATE_2} 3"),
    (PENDULUM_P1, {("system", "w"): "0 0.1 0"}, f"{STATE_2} 3"),
    (PENDULUM_P1, {("grid", "eta"): "0.4"}, f"{STATE_2} 1"),
    (PENDULUM_P1, {("inputs", "mu"): "0.2 0.2"}, "expected the input dimension 1, got 2"),
    (PENDULUM_P1, {("system", "K"): "1 1 ; -1 -1"}, INVERTED),
    (PENDULUM_P1, {("system", "K"): "-1 1 ; 1 1", ("grid", "eta"): "0.4 0.3"}, INVERTED),
    (LOGISTIC_N40, {("system", "K"): "1 ; 0"}, INVERTED),
]


@pytest.mark.parametrize("base, entries, message", WRONG_DIMENSIONS, ids=[
    f"{base[('system', 'dynamics')]}-{key}={value}" for base, entries, _ in WRONG_DIMENSIONS
    for (_, key), value in list(entries.items())[:1]
])
def test_config_vectors_take_the_dimensions_of_the_dynamics(tmp_path, capsys, base, entries, message):
    # K, eta, w and A0 have the state's dimension, each piece of U and mu the
    # input's, K's lower corner lies below its upper one on every axis, and
    # the map's K lies within [0, 1], where its images are exact; the first
    # key in load order that breaks this is named
    (section, key), value = next(iter(entries.items()))
    config = tmp_path / "c.ini"
    config.write_text(config_text({**base, **entries}))
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err == f"input error: [{section}] {key} = {value!r}: {message}\n"
    assert not (tmp_path / "a.values").exists()


def test_config_overrides_do_not_leak_into_the_next_load(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text(config_text({**PENDULUM_P1, ("system", "w"): "0 0.2", ("system", "tau"): "0.1"}))
    assert load_config(config).plant.w.tolist() == [0.0, 0.2]
    config.write_text(config_text(PENDULUM_P1))
    plant = load_config(config).plant
    assert plant.w.tolist() == [0.0, 0.1] and plant.tau == 0.2
    assert get_system("pendulum").ode["w"].tolist() == [0.0, 0.1]


def hostile_values(dim, rng):
    """Config values that no key may turn into a traceback: the fixed table
    and a seeded far-from-one number, each also repeated as a ``dim``-vector,
    then wrong arity, garbage, an inverted box, boxes in valid order of
    ``dim - 1`` and ``dim + 1`` coordinates and a seeded printable token.
    No value makes a mid-size cover (eta = 1e-3, say): such a cover allocates
    for real and is slow rather than hostile, so those stay out."""
    exponent = int(rng.choice([-1, 1]) * rng.integers(20, 300))
    numbers = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", repr(float(rng.uniform(1.0, 10.0) * 10.0**exponent))]
    if dim > 1:
        numbers += [" ".join([v] * dim) for v in numbers]
    ones, neg = " ".join(["1"] * dim), " ".join(["-1"] * dim)
    boxes = [f"{' '.join(['-1'] * n)} ; {' '.join(['1'] * n)}" for n in (dim - 1, dim + 1)]
    return numbers + [f"{ones} 1", "garbage", f"{ones} ; {neg}", f"box {ones} ; {neg}", *boxes,
                      "".join(rng.choice(list(string.printable.strip()), size=8))]


def test_config_fuzz_keeps_the_exit_code_contract(tmp_path, capsys):
    # every config key (and each removed one) set to each hostile value, on a
    # small pendulum p1 cover and on logistic N40 (which also tries K = 0 ; 2,
    # outside the map's domain): the exit is 0 or 1, an exit 1 is an input
    # error, and nothing escapes main as an exception; no config is a
    # soundness alarm.  The map refuses every key of a sampled ODE plant and
    # an input set by name, and an infinite error budget is refused rather
    # than escaping every cell
    rng = np.random.default_rng(2018)
    bases = ((PENDULUM_P1, 2, []), (LOGISTIC_N40, 1, ["0 ; 2"]))
    removed = [("reach", "substeps"), ("reach", "max_splits"), ("solve", "queue")]
    config = tmp_path / "fuzz.ini"
    failures = []
    for base, dim, extra in bases:
        for section, key in [(sec, k) for sec in sorted(_KEYS) for k in sorted(_KEYS[sec])] + removed:
            for value in hostile_values(dim, rng) + extra:
                config.write_text(config_text({**base, (section, key): value}))
                case = (base[("system", "dynamics")], section, key, value)
                try:
                    rc = main(["synthesize", str(config), "--out-prefix", str(tmp_path / "out")])
                except Exception as exc:  # a traceback at the command line
                    failures.append((*case, f"raised {type(exc).__name__}: {exc}"))
                    continue
                err = capsys.readouterr().err
                if (section, key) in removed:
                    ok = rc == 1 and err.startswith("input error: unknown")
                elif case[0] == "logistic" and (section, key) in [*_ODE_KEYS, ("inputs", "U")]:
                    ok = rc == 1 and err == f"input error: [{section}] {key} does not apply to the map dynamics 'logistic'\n"
                elif case == ("pendulum", "reach", "gamma", "inf"):
                    ok = rc == 1 and err.startswith("input error: need k >= 1, theta > 0, 0 <= gamma < inf")
                else:
                    ok = rc in (0, 1) and "Traceback" not in err and (rc == 0 or err.startswith("input error:"))
                if not ok:
                    failures.append((*case, rc, err))
    assert failures == [], "\n".join(map(repr, failures))


OPTION_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "garbage", "missing/x")  # the last: no such directory

# runs each argv of a JSON list on stdin through main(), as a command line
# would, and prints one (exit code, stderr) pair per argv as JSON
_FUZZ_CHILD = """
import contextlib, io, json, sys
from symoc.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # a traceback at the command line
        rc, err = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
    results.append((rc, err.getvalue()))
print(json.dumps(results))
"""


def _one_option_changed(argv):
    """``argv`` with each argument after the subcommand (a positional or an
    option's value) set in turn to each of OPTION_VALUES."""
    for i in range(1, len(argv)):
        if not argv[i].startswith("--"):
            for value in OPTION_VALUES:
                yield argv[:i] + [value] + argv[i + 1:]


def _flips_and_cuts(data, rng, count):
    """``count`` copies of ``data`` with one byte set to a seeded random
    value, then ``count`` seeded truncations of it."""
    for _ in range(count):
        flipped = bytearray(data)
        flipped[rng.integers(len(data))] = rng.integers(256)
        yield bytes(flipped)
    for _ in range(count):
        yield data[: rng.integers(len(data))]


def test_option_and_file_fuzz_keeps_the_exit_code_contract(tmp_path, monkeypatch):
    # every argument of synthesize, solve-finite, simulate, hypo and
    # check-relation set to each hostile value (a path in a missing directory
    # among them), and byte flips and truncations of the FOCP,
    # value, controller and relation files of logistic N40: the exit is 0, 1
    # or 2, a non-zero exit names its kind, and no traceback appears.  The
    # cases run in one child process under an address-space limit and a
    # timeout, so a hang (hypo once built as many exact levels as a value
    # file asked for) fails the test instead of stalling it.
    monkeypatch.chdir(tmp_path)  # an output prefix like "nan" writes here
    rng = np.random.default_rng(2019)
    cfg = os.path.join(CONFIGS, "logistic_n40.ini")
    assert main(["synthesize", cfg, "--out-prefix", "a", "--dump-focp"]) == 0
    n = len((tmp_path / "a.values").read_text().splitlines())
    (tmp_path / "a.relation").write_text(Relation([(p, p) for p in range(n)]).to_text())
    bases = {
        "synthesize": ["synthesize", cfg, "--out-prefix", "o", "--dump-focp"],
        "solve-finite": ["solve-finite", "a.focp", "--queue", "auto", "--out-prefix", "o"],
        "simulate": ["simulate", cfg, "--controller", "a.controller", "--values", "a.values", "--x0", "0.3",
                     "--samples", "2", "--verify-samples", "2", "--policy", "uniform", "--seed", "0",
                     "--max-steps", "50", "--tol", "1e-9", "--out-prefix", "o"],
        "hypo": ["hypo", cfg, "--values", "a.values", "--samples", "50", "--eps-grid", "0.01", "--out-prefix", "o"],
        "check-relation": ["check-relation", "a.focp", "a.focp", "a.relation", "--mode", "vasr",
                           "--eps", "0.5", "--out", "o.verdict"],
    }
    cases = [argv for base in bases.values() for argv in _one_option_changed(base)]
    for name, uses in (
        ("a.focp", [bases["solve-finite"], bases["check-relation"]]),
        ("a.values", [bases["simulate"], bases["hypo"]]),
        ("a.controller", [bases["simulate"]]),
        ("a.relation", [bases["check-relation"]]),
    ):
        for i, data in enumerate(_flips_and_cuts((tmp_path / name).read_bytes(), rng, 12)):
            bad = f"bad{i}.{name}"
            (tmp_path / bad).write_bytes(data)
            cases += [[bad if arg == name else arg for arg in argv] for argv in uses]
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FUZZ_CHILD], input=json.dumps(cases), cwd=tmp_path,
        preexec_fn=limit, env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout)
    failures = [
        (argv, rc, err) for argv, (rc, err) in zip(cases, results)
        if rc not in (0, 1, 2) or "Traceback" in err
        or (rc != 0 and not err.startswith(("input error:", "soundness alarm:")))
    ]
    assert failures == [], "\n".join(map(repr, failures))
    assert len(results) == len(cases) > 300


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


def test_running_out_of_memory_is_an_input_error(tmp_path):
    # chauffeur p1 at eta 0.002 has 25 M cells, whose float boxes alone
    # overrun a 1 GiB address-space limit of the child process
    config = tmp_path / "fine.ini"
    config.write_text("[system]\ndynamics = chauffeur\npreset = p1\n[grid]\neta = 0.002 0.002\n")
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    out = subprocess.run(
        [sys.executable, "-m", "symoc", "synthesize", str(config), "--out-prefix", str(tmp_path / "o")],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")), preexec_fn=limit,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("input error: out of memory: ")
    assert "Traceback" not in out.stderr


def test_pair_limit_is_checked_before_the_inputs_are_built(tmp_path, capsys):
    # mu = 1e-6 gives 4,000,001 inputs, within the representative limit, but
    # 12,009 states x 4,000,001 inputs are too many pairs: the 32 MB of
    # representatives (and their meshgrid copies) are never built
    config = tmp_path / "fine_inputs.ini"
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[inputs]\nmu = 1e-6\n")
    tracemalloc.start()
    try:
        code = main(["synthesize", str(config), "--out-prefix", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == "input error: 12009 states x 4000001 inputs: need fewer than 2**31 pairs\n"
    assert peak < 8 << 20


def test_covers_of_2_31_pairs_or_more_are_input_errors(tmp_path, capsys):
    # the pair ids are int32: the config is rejected before any per-cell array
    config = tmp_path / "huge.ini"
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 1e-4 1e-4\n")
    spec = get_system("pendulum")
    cover = GridCover(spec.k_lower, spec.k_upper, [1e-4, 1e-4])
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"input error: {cover.n_states} states x 21 inputs: need fewer than 2**31 pairs\n"
    )
    # a cover of 2**63 cells or more is rejected by the cover itself
    config.write_text("[system]\ndynamics = pendulum\npreset = p1\n[grid]\neta = 1e-12 1e-12\n")
    assert main(["synthesize", str(config), "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.endswith(" cells: a flat cell index needs fewer than 2**63\n")


PENDULUM_P1_FOCP = "1eed93c6d03856ba7af52988c0c1605fa9f5c71f9d631c4ffbf4d258ada4118e"  # as pinned in CI


def test_synthesize_builds_the_successor_array_only_for_the_dump(tmp_path, monkeypatch):
    # the solve reads the abstraction's rows from its reach blocks, so
    # without --dump-focp the successor array is never built; the dump builds
    # it, and the values and controller are the same either way
    cfg = os.path.join(CONFIGS, "pendulum_p1.ini")
    write = symoc.abstraction._write_successors

    def refuse(problem):
        raise AssertionError("trans_succ built")

    monkeypatch.setattr(symoc.abstraction, "_write_successors", refuse)
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(symoc.abstraction, "_write_successors", write)
    assert main(["synthesize", cfg, "--out-prefix", str(tmp_path / "b"), "--dump-focp"]) == 0
    assert sha(tmp_path / "b.focp") == PENDULUM_P1_FOCP
    for ext in ("values", "controller", "sidecar"):
        assert sha(tmp_path / f"a.{ext}") == sha(tmp_path / f"b.{ext}"), ext


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
            for way, source in each_source(text, tmp_path / "records.txt"):
                with pytest.raises(InputError) as exc:
                    reader(source)
                assert str(exc.value).endswith(": " + (quoted(line) if isinstance(line, bytes) else repr(line))), way
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
        simulate + ["--x0", "inf"],
        simulate + ["--x0", "nan"],
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
    assert main(simulate + ["--x0", "nan"]) == 1
    assert "input error: --x0 'nan': expected finite numbers" in capsys.readouterr().err
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
        [sys.executable, "-B", "-c", script], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
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
