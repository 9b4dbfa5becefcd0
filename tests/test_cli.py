import hashlib
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import roughbound
from roughbound import (ConstantBoundary, LinearDrift, LinearTrace,
                        SmoothBoundedDrift, default_trace_weights)
from roughbound.cli import run
from roughbound.config import (build_driver_from, build_problem, parse_config,
                               parse_levels)
from roughbound.errors import ConfigError
from roughbound.spectral_scale import NEUMANN


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughbound.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would cost every CLI run
    code = ("import sys, roughbound, roughbound.cli, roughbound.studies; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_config_parsing_and_rejection(tmp_path):
    cfg = parse_config(_write(tmp_path, "ok.cfg",
                              "study = solve\nH = 0.45\nn = 128  # comment\n"))
    assert cfg["study"] == "solve" and cfg["n"] == 128
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "bad1.cfg", "nonsense = 3\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "bad2.cfg", "n = 128\nn = 256\n"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "bad3.cfg", "just a line\n"))
    with pytest.raises(ConfigError):
        parse_levels("10..4")


def test_sample_deterministic_and_metadata(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "study = sample\nH = 0.45\nn = 128\nseed = 7\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
    h1 = _digest(out / "driver.csv")
    assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert _digest(out / "driver.csv") == h1
    meta = (out / "driver.meta").read_text()
    assert "H,0.45" in meta and "lift,geometric" in meta

    # --seed override changes the artifact
    assert run(["sample", "--config", cfg, "--seed", "8", "--out", str(out)]) == 0
    assert _digest(out / "driver.csv") != h1


def test_exit_codes(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    bad_h = _write(tmp_path, "h.cfg", "study = sample\nH = 1.2\n")
    assert run(["sample", "--config", bad_h, "--out", str(out)]) == 2
    ok = _write(tmp_path, "ok.cfg", "study = sample\nn = 64\n")
    assert run(["sample", "--config", ok, "--out", str(tmp_path / "missing")]) == 11
    blocked = tmp_path / "blocked"
    (blocked / "driver.csv").mkdir(parents=True)   # cannot be opened for writing
    assert run(["sample", "--config", ok, "--out", str(blocked)]) == 11
    dirichlet_rough = _write(tmp_path, "d.cfg",
                             "study = solve\nbc = dirichlet\nH = 0.6\nn = 128\n"
                             "delta = 0.005\n")
    assert run(["solve", "--config", dirichlet_rough, "--out", str(out)]) == 9
    assert run(["solve", "--config", ok]) == 2                # no --out
    missing = str(tmp_path / "missing.cfg")
    assert run(["sample", "--config", missing, "--out", str(out)]) == 11
    conv = _write(tmp_path, "c.cfg", "study = convergence\nn = 64\n")
    assert run(["convergence", "--config", conv, "--out", str(out),
                "--levels", "4..x"]) == 2
    assert run(["sample", "--config", ok, "--out", str(out),
                "--seed", "-3"]) == 2


def _no_draw(*args, **kwargs):
    raise AssertionError("the setting should be rejected before any draw")


@pytest.mark.parametrize("study", ["sample", "solve", "convergence", "cocycle",
                                   "stability", "invariants"])
def test_an_unusable_out_exits_11_before_any_draw(tmp_path, monkeypatch, capsys,
                                                  study):
    monkeypatch.setattr("roughbound.config.sample_fbm", _no_draw)
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    cfg = _write(tmp_path, "ok.cfg", "n = 256\n")
    for out in (tmp_path / "missing", tmp_path / "ok.cfg"):
        assert run([study, "--config", cfg, "--out", str(out)]) == 11
        assert capsys.readouterr().err == (
            f"error: --out {out} is not an existing directory\n")


# a Dirichlet problem in the Young regime
_YOUNG = "bc = dirichlet\nH = 0.8\ngamma = 0.77\ndelta = 0.005"


@pytest.mark.parametrize("study, line", [
    ("cocycle", "resolutions = 0,64"),
    ("cocycle", "resolutions = 64"),
    ("cocycle", "seeds = 0"),
    ("convergence", "seeds = 0"),
    ("convergence", "levels = -2..3"),
    ("stability", "lambdas ="),
    ("stability", "eps0 ="),
    ("solve", "tol = nan"),
    ("solve", "tol = -1"),
    ("solve", "out_stride = 0"),
    ("solve", "out_stride = -2"),
    ("solve", "delta = nan"),
    ("solve", "a = nan"),
    ("solve", "b = -inf"),
    ("solve", "diffusion_gain = nan"),
    ("solve", "T = inf"),
    ("cocycle", "t = nan"),
    ("cocycle", "tau = nan"),
    ("cocycle", "t = 0"),
    ("cocycle", "t = -0.25"),
    ("cocycle", "tau = 0"),
    ("cocycle", "tau = -0.25"),
    ("convergence", "levels = 4..4"),
    ("invariants", "seeds = 0"),
    ("invariants", "seeds = -2"),
    ("cocycle", "tau = 0.8"),   # t + tau > T = 1
    # 48 does not divide the 64 steps of t = tau = 0.25 at n = 256
    ("cocycle", "K = 8\nseeds = 2\nresolutions = 32,64,48"),
    ("cocycle", "t = 0.3"),     # t and t + tau are off the n = 256 grid
    # the problem's rules and the rough regime's Neumann rule need no driver
    ("solve", f"{_YOUNG}\ndrift = linear"),   # a drift needs gamma < 1/2
    ("cocycle", f"{_YOUNG}\ndrift = linear\nresolutions = 16,32"),
    ("stability", f"{_YOUNG}\ndrift = linear"),
    ("cocycle", f"{_YOUNG}\nresolutions = 16,32"),   # Dirichlet, not Neumann
    ("stability", _YOUNG),
    # an fBm path is gamma-Hoelder only for gamma < H
    ("solve", "bc = dirichlet\nH = 0.45\ngamma = 0.77\ndelta = 0.005"),
    ("solve", "H = 0.35\ngamma = 0.45"),
])
def test_unusable_settings_exit_with_a_config_error(tmp_path, monkeypatch,
                                                    study, line):
    monkeypatch.setattr("roughbound.config.sample_fbm", _no_draw)
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    cfg = _write(tmp_path, "bad.cfg", f"study = {study}\nn = 256\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run([study, "--config", cfg, "--out", str(out)]) == 2


@pytest.mark.parametrize("line, option", [
    ("levels = 0..3000000\n", []),
    ("", ["--levels", "0..3000000"]),
])
def test_a_wide_level_range_exits_3_before_it_is_listed(tmp_path, monkeypatch,
                                                        line, option):
    # listing 3,000,001 levels takes over 100 MiB; the range's ends alone show
    # that the level-3000001 partition does not fit 8192 steps
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    cfg = _write(tmp_path, "wide.cfg", f"study = convergence\nn = 8192\n{line}")
    tracemalloc.start()
    try:
        code = run(["convergence", "--config", cfg, "--out", str(tmp_path)]
                   + option)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 2 ** 20


@pytest.mark.parametrize("line", [
    "delta = nan", "T = inf", "b = -inf", "lambdas = 1,x",
    "eps0 = 0.1,nan", "y0_coeffs = inf", "resolutions = 64,x", "levels = 9..4",
    "levels = 4..x",
    "study = bogus", "bc = robin", "drift = bogus", "diffusion = bogus",
    "y0 = nope", "seed = -1", "gamma = 0.45",
])
def test_malformed_values_are_rejected_at_load_naming_file_and_line(
        tmp_path, capsys, line):
    cfg = _write(tmp_path, "bad.cfg", f"# any subcommand\n{line}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert str(err.value).startswith(f"{cfg}:2: bad value")
    for study in ("sample", "invariants"):
        assert run([study, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: bad value")


def test_the_p_key_is_unknown(tmp_path, capsys):
    # p = 2 is the only supported exponent, so the key no longer exists
    cfg = _write(tmp_path, "p.cfg", "study = solve\np = 2\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown key 'p'\n"


def test_the_gamma_slack_key_is_unknown(tmp_path, capsys):
    # gamma defaults to H - 0.05, as in sample_fbm; set gamma to pin it
    cfg = _write(tmp_path, "s.cfg", "study = solve\ngamma_slack = 0.2\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}:2: unknown key "
                                       "'gamma_slack'\n")


@pytest.mark.parametrize("line", ["diffusion_delta2 = 2.5", "drift_delta1 = 0.9"])
def test_the_index_gap_keys_are_unknown(tmp_path, capsys, line):
    # every admissible delta1 or delta2 gives the same numbers, so config
    # passes the defaults max(2 gamma, 0.8) and eta + 2 and has no such keys
    cfg = _write(tmp_path, "d.cfg", f"study = solve\n{line}\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    key = line.split(" ")[0]
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown key {key!r}\n"


def test_a_dirichlet_drift_names_the_gamma_bound(tmp_path, capsys):
    cfg = _write(tmp_path, "d.cfg",
                 "study = solve\nbc = dirichlet\nH = 0.8\ngamma = 0.77\n"
                 "delta = 0.005\ndrift = linear\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "a drift needs gamma < 1/2" in capsys.readouterr().err


def _problem(tmp_path, text):
    return build_problem(parse_config(_write(tmp_path, "problem.cfg", f"n = 64\n{text}")))


@pytest.mark.parametrize("text, kind, delta1, attr, value", [
    ("drift = linear\ndrift_c = -0.5\n", LinearDrift, 0.8, "c", -0.5),
    ("drift = linear\nH = 0.5\ngamma = 0.45\n", LinearDrift, 0.9, "c", -1.0),
    ("drift = smooth_bounded\ndrift_amp = 2.0\n", SmoothBoundedDrift, 0.8,
     "amp", 2.0),
    ("drift = smooth_bounded\nH = 0.5\ngamma = 0.45\n", SmoothBoundedDrift, 0.9,
     "amp", 1.0),
])
def test_drift_selectors_build_their_maps(tmp_path, text, kind, delta1, attr,
                                          value):
    # delta1 defaults to max(2 gamma, 0.8)
    drift = _problem(tmp_path, text).drift
    assert type(drift) is kind and drift.delta1 == delta1
    assert getattr(drift, attr) == value


def test_diffusion_selectors_build_their_maps(tmp_path):
    zero = _problem(tmp_path, "diffusion = zero\n")
    assert type(zero.diffusion) is ConstantBoundary
    assert zero.diffusion.g.tolist() == [0.0, 0.0]
    assert zero.diffusion.delta2 == zero.scale.eta + 2.0
    assert zero.diffusion.domain_alpha == zero.solution_alpha
    const = _problem(tmp_path, "diffusion = constant\ng0 = 0.7\ng1 = -0.3\n")
    assert type(const.diffusion) is ConstantBoundary
    assert const.diffusion.g.tolist() == [0.7, -0.3]
    lin = _problem(tmp_path, "diffusion = linear_trace\ndiffusion_gain = 0.5\n")
    assert type(lin.diffusion) is LinearTrace
    w0, w1 = default_trace_weights(lin.scale, 0.5)
    assert np.array_equal(lin.diffusion.w, np.stack([w0, w1], axis=1))
    assert lin.diffusion.domain_alpha == lin.solution_alpha


@pytest.mark.parametrize("text, expected", [
    ("y0 = zero\n", [0.0] * 16),
    ("y0 = coeffs\ny0_coeffs = 1,2,3\n", [1.0, 2.0, 3.0] + [0.0] * 13),
    ("y0 = coeffs\nK = 4\ny0_coeffs = 1,2,3,4,5,6\n", [1.0, 2.0, 3.0, 4.0]),
])
def test_y0_selectors_pad_or_truncate_to_k(tmp_path, text, expected):
    assert _problem(tmp_path, text).y0.tolist() == expected


@pytest.mark.parametrize("study", ["sample", "solve", "cocycle", "stability",
                                   "invariants"])
def test_levels_is_an_option_of_convergence_only(tmp_path, study):
    cfg = _write(tmp_path, "ok.cfg", "n = 64\n")
    with pytest.raises(SystemExit) as exit_:
        run([study, "--config", cfg, "--out", str(tmp_path), "--levels", "4..9"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("study, line", [
    ("stability", ""),
    ("cocycle", "resolutions = 32,64"),
])
def test_picard_settings_reach_the_studies(tmp_path, study, line):
    # as for `solve`, max_iter = 0 leaves no window that can contract
    cfg = _write(tmp_path, "p.cfg", f"n = 256\nK = 8\nseeds = 1\nmax_iter = 0\n{line}\n")
    assert run([study, "--config", cfg, "--out", str(tmp_path)]) == 8


def _no_solve(*args, **kwargs):
    raise AssertionError("the setting should be rejected before any solve")


@pytest.mark.parametrize("module, study, line, code", [
    ("roughbound.cli", "solve", "out_stride = 3", 3),
    ("roughbound.cli", "solve", "out_stride = 512", 3),
    ("roughbound.studies", "stability", "gamma_prime = 0.40", 2),
    ("roughbound.studies", "stability", "gamma_prime = 0.30", 2),
    # a fit through the origin needs a nonzero predictor
    ("roughbound.studies", "stability", "lambdas = 1.0", 2),
    ("roughbound.studies", "stability", "eps0 = 0.0", 2),
    # the level-9 partition needs 512 steps, the grid has 256
    ("roughbound.studies", "convergence", "levels = 4..8", 3),
])
def test_unusable_settings_are_rejected_before_solving(tmp_path, monkeypatch,
                                                       module, study, line, code):
    monkeypatch.setattr(f"{module}.solve_global", _no_solve)
    monkeypatch.setattr("roughbound.config.sample_fbm", _no_draw)
    monkeypatch.setattr("roughbound.studies.sample_fbm", _no_draw)
    cfg = _write(tmp_path, "bad.cfg", f"study = {study}\nn = 256\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run([study, "--config", cfg, "--out", str(out)]) == code


def test_solve_writes_solution_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "solve.cfg",
                 "study = solve\nH = 0.45\nn = 256\nK = 8\nseed = 3\n"
                 "out_stride = 32\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "time,mode,coefficient"
    assert len(lines) == 1 + 9 * 8     # 9 output times x 8 modes
    summary = (out / "summary.txt").read_text()
    assert "CHECK solve_completed PASS" in summary
    captured = capsys.readouterr().out
    assert "CHECK solve_completed PASS" in captured


@pytest.mark.parametrize("n, K, stride", [
    (64, 4, 1),
    (1024, 16, 1),    # 1025 rows: four full blocks of 256 and one row
    (1024, 16, 4),    # 257 rows
    (256, 8, 1),      # n + 1 one more than the block
    (511, 2, 1),      # n + 1 two whole blocks
    (64, 1, 1),
])
def test_solution_csv_bytes_match_per_value_formatting(tmp_path, n, K, stride):
    cfg = _write(tmp_path, "solve.cfg",
                 f"study = solve\nH = 0.45\nn = {n}\nK = {K}\nseed = 5\n"
                 f"out_stride = {stride}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
    path = roughbound.solve_global(build_problem(parse_config(cfg))).path
    path = path.restricted(stride) if stride > 1 else path
    expected = "time,mode,coefficient\n" + "".join(
        f"{t:.17g},{k},{v:.17g}\n"
        for t, row in zip(path.times, path.y) for k, v in enumerate(row))
    assert (out / "solution.csv").read_bytes() == expected.encode()


def test_driver_csv_lines_match_per_value_formatting(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "study = sample\nn = 1024\nseed = 3\n")
    assert run(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
    D = build_driver_from(parse_config(cfg))
    lines = (tmp_path / "driver.csv").read_bytes().decode().split("\n")
    assert lines[0] == "time,X" and lines[-1] == ""
    assert lines[1:-1] == [f"{t:.17g},{x:.17g}" for t, x in zip(D.times, D.X)]


def test_writing_a_solution_holds_under_a_mebibyte(tmp_path, monkeypatch):
    # a (4097, 16) solution is 0.5 MiB of doubles and 2.3 MiB of text; trace
    # every allocation from the end of the solve to the end of the run
    n, K = 4096, 16
    times = np.linspace(0.0, 1.0, n + 1)
    y = np.random.default_rng(0).standard_normal((n + 1, K))
    result = SimpleNamespace(path=SimpleNamespace(times=times, y=y),
                             iterations=1, window_ends=(1.0,),
                             apriori_m1=1.0, apriori_m2=0.0)
    spec = SimpleNamespace(driver=SimpleNamespace(n=n), horizon=1.0,
                           solution_alpha=0.0,
                           scale=SimpleNamespace(bc=NEUMANN,
                                                 norm=lambda y, alpha: y[:1, 0]))

    def solve(_spec):
        tracemalloc.start()
        return result

    monkeypatch.setattr("roughbound.cli.build_problem", lambda cfg: spec)
    monkeypatch.setattr("roughbound.cli.solve_global", solve)
    cfg = _write(tmp_path, "solve.cfg", f"study = solve\nn = {n}\nK = {K}\n")
    try:
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "solution.csv").stat().st_size > 2 * 2 ** 20
    assert peak < 2 ** 20


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_that_fails_mid_file_exits_11(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", "study = solve\nn = 256\nK = 8\n")
    os.symlink("/dev/full", tmp_path / "solution.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "roughbound.cli", "solve", "--config", cfg,
         "--out", str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 11
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_solve_dirichlet_young_path(tmp_path):
    cfg = _write(tmp_path, "young.cfg",
                 "study = solve\nbc = dirichlet\nH = 0.8\ngamma = 0.77\n"
                 "delta = 0.005\nn = 256\nK = 8\ny0 = lift\nseed = 1\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["solve", "--config", cfg, "--out", str(out)]) == 0


def test_solve_dirichlet_derives_delta2(tmp_path):
    # without the key, delta2 = eta + 2 clears the floor eta + 3/2
    cfg = _write(tmp_path, "young.cfg",
                 "study = solve\nbc = dirichlet\nH = 0.8\ngamma = 0.77\n"
                 "delta = 0.005\nn = 256\nK = 8\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    spec = build_problem(parse_config(cfg))
    assert spec.diffusion.delta2 == spec.scale.eta + 2.0


def test_convergence_csv_and_levels_override(tmp_path):
    cfg = _write(tmp_path, "conv.cfg",
                 "study = convergence\nH = 0.45\nn = 512\nK = 8\nseeds = 3\n"
                 "levels = 3..6\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["convergence", "--config", cfg, "--out", str(out),
                "--levels", "3..5"]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "level,defect,beta"
    assert len(rows) == 4              # levels 3,4,5
    defects = [float(r.split(",")[1]) for r in rows[1:]]
    assert defects[0] > defects[-1]    # monotone decreasing overall


def test_invariants_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.cfg",
                 "study = invariants\nK = 8\nH = 0.45\nn = 64\nseeds = 3\n"
                 "gamma = 0.40\n")
    assert run(["invariants", "--config", cfg]) == 0
    out_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("CHECK")]
    assert len(out_lines) >= 5
    assert all(" PASS " in l for l in out_lines)


def test_invariants_on_a_dirichlet_scale(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.cfg",
                 "bc = dirichlet\nH = 0.8\ngamma = 0.77\ndelta = 0.005\n")
    assert run(["invariants", "--config", cfg]) == 0
    assert "CHECK dirichlet_linearity PASS" in capsys.readouterr().out


def test_invariants_out_writes_the_checks_it_prints(tmp_path, capsys):
    cfg = _write(tmp_path, "inv.cfg", "K = 8\nn = 64\nseeds = 3\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["invariants", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(l.startswith("CHECK ") for l in printed)
    assert (out / "invariants.txt").read_text().splitlines() == ["line", *printed]


def test_convergence_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, "conv.cfg",
                 "study = convergence\nH = 0.45\nn = 512\nK = 8\nseeds = 4\n"
                 "levels = 3..6\n")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    out1.mkdir()
    out2.mkdir()
    assert run(["convergence", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["convergence", "--config", cfg, "--out", str(out2)]) == 0
    assert _digest(out1 / "convergence.csv") == _digest(out2 / "convergence.csv")


def test_stability_and_cocycle_smoke(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    stab = _write(tmp_path, "stab.cfg",
                  "study = stability\nH = 0.45\nn = 256\nK = 8\nseed = 0\n"
                  "lambdas = 0.95,1.05\neps0 = -0.05,0.05\n")
    assert run(["stability", "--config", stab, "--out", str(out)]) == 0
    rows = (out / "stability.csv").read_text().splitlines()
    assert rows[0] == "kind,predictor,response" and len(rows) == 5

    coc = _write(tmp_path, "coc.cfg",
                 "study = cocycle\nH = 0.5\ngamma = 0.45\nn = 1024\nK = 8\n"
                 "T = 0.5\nseeds = 2\nresolutions = 256,512\n")
    rc = run(["cocycle", "--config", coc, "--out", str(out)])
    rows = (out / "cocycle.csv").read_text().splitlines()
    assert rows[0] == "resolution,defect" and len(rows) == 3
    assert rc in (0, 1)  # tiny smoke study; the calibrated run is acceptance #11


def test_parse_config_fills_gamma_from_h(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.cfg", "H = 0.6\n"))
    assert cfg["gamma"] == 0.6 - 0.05     # H - DEFAULT_GAMMA_SLACK: 0.55
    cfg = parse_config(_write(tmp_path, "b.cfg", "H = 0.6\ngamma = 0.55\n"))
    assert cfg["gamma"] == 0.55


def test_cocycle_runs_on_its_defaults(tmp_path):
    # n = 1024, T = 1 and t = tau = 0.25: every resolution must divide 256
    cfg = _write(tmp_path, "coc.cfg", "study = cocycle\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["cocycle", "--config", cfg, "--out", str(out)]) == 0
