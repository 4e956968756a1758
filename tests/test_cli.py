"""End-to-end checks of the command line driver.

These tests care about the command surface: exit codes, output files,
column schemas, and rerun determinism.  The numerics behind each command
are covered by the unit modules, so a small zero table and a coarse
quadrature keep this module fast.
"""
import json
import math
import os
import re

import numpy as np
import pytest

import fbhardy.cli
from fbhardy.cli import main
from fbhardy.config import load_config
from fbhardy.covers import FAMILY_ONE_END, FAMILY_TWO_END, DyadicCover
from fbhardy.hardy import atomic_decompose, random_atoms
from fbhardy.kernels import LEMMA_IDS, EstimateReport
from fbhardy.quadrature import MEASURE_LEBESGUE, MEASURE_MU, make_quadrature

from test_atom_check import ref_validate_atom


def grid_size(measure: str) -> int:
    return len(make_quadrature("unit_interval", 64, measure=measure,
                               nu=0.5).nodes)

SMALL_CFG = """\
# fast settings for driver tests
n_zeros = 64
quad_nodes_per_unit = 64
t_min = 1e-3
t_max = 2.0
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run(args, cfg=None, out=None):
    argv = []
    if cfg is not None:
        argv += ["--config", cfg]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv + args)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        body = [line.strip().split(",") for line in fh if line.strip()]
    return header, body


# ---------------------------------------------------------------------------
# happy paths and file schemas


def test_zeros_writes_table(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run(["zeros"], cfg=small_cfg, out=out) == 0
    header, body = read_csv(out / "zeros.csv")
    assert header == "x,value"
    assert len(body) == 64
    # order one half has equally spaced zeros
    assert float(body[0][1]) == pytest.approx(math.pi, rel=1e-12)
    assert float(body[9][1]) == pytest.approx(10 * math.pi, rel=1e-12)


def test_kernel_csv_schema(tmp_path, small_cfg):
    out = tmp_path / "out"
    rc = run(["kernel", "--which", "poisson-mu", "--t", "0.4", "--grid", "5"],
             cfg=small_cfg, out=out)
    assert rc == 0
    header, body = read_csv(out / "kernel_poisson-mu.csv")
    assert header == "t,x,y,value"
    assert len(body) == 25
    vals = np.array([float(r[3]) for r in body])
    assert np.all(np.isfinite(vals))
    assert np.all(vals > 0)


def test_kernel_halfline_closed_form(tmp_path, small_cfg):
    out = tmp_path / "out"
    rc = run(["kernel", "--which", "bessel-poisson", "--t", "0.2",
              "--grid", "4"], cfg=small_cfg, out=out)
    assert rc == 0
    assert (out / "kernel_bessel-poisson.csv").exists()


def test_estimates_write_one_report_per_lemma(tmp_path, small_cfg):
    out = tmp_path / "out"
    rc = run(["estimates", "--lemma", "all", "--grid", "4"],
             cfg=small_cfg, out=out)
    assert rc == 0
    for lemma in LEMMA_IDS:
        with open(out / f"estimates_{lemma}.json") as fh:
            rep = json.load(fh)
        assert rep["lemma"] == lemma
        assert rep["ratio_min"] is not None and rep["ratio_min"] > 0
        assert rep["ratio_max"] is not None
        assert rep["n_samples"] > 0


def test_failed_estimate_exits_one(tmp_path, small_cfg, monkeypatch):
    def failing(lemma, **kwargs):
        return EstimateReport(
            lemma=lemma, kind="upper", nu=0.5, t_range=(0.1, 1.0),
            n_samples=4, n_masked=0, ratio_min=0.5, ratio_max=2.0,
            refined_min=0.5, refined_max=3.0, drift_min=0.0, drift_max=0.5,
            passed=False)

    monkeypatch.setattr(fbhardy.cli, "check_sharp_estimate", failing)
    out = tmp_path / "out"
    rc = run(["estimates", "--lemma", "grad-P", "--grid", "4"],
             cfg=small_cfg, out=out)
    assert rc == 1
    with open(out / "estimates_grad-P.json") as fh:
        assert not json.load(fh)["passed"]


def test_estimate_json_writes_booleans(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run(["estimates", "--lemma", "grad-P", "--grid", "4"],
               cfg=small_cfg, out=out) == 0
    text = (out / "estimates_grad-P.json").read_text()
    assert '"passed": true' in text
    assert json.loads(text)["passed"] is True


def test_json_conversion_keeps_booleans_apart_from_integers():
    got = fbhardy.cli._py({"a": True, "b": np.bool_(False), "c": 1,
                           "d": np.int64(2), "e": np.array([True, False]),
                           "f": (np.float64(0.5), False)})
    assert got == {"a": True, "b": False, "c": 1, "d": 2, "e": [True, False],
                   "f": [0.5, False]}
    assert [type(v) for v in (got["a"], got["b"], got["c"], got["d"])] \
        == [bool, bool, int, int]
    assert [type(v) for v in got["e"] + got["f"]] == [bool, bool, float, bool]


def test_maximal_outputs(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run(["maximal"], cfg=small_cfg, out=out) == 0
    with open(out / "maximal.json") as fh:
        summary = json.load(fh)
    assert summary["l1_norm"] > 0
    assert summary["sup"] > 0
    assert summary["n_times"] > 10
    header, body = read_csv(out / "maximal.csv")
    assert header == "x,value"
    assert len(body) == grid_size(MEASURE_MU)


def test_duhamel_report(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run(["duhamel", "--t", "0.3"], cfg=small_cfg, out=out) == 0
    with open(out / "duhamel.json") as fh:
        summary = json.load(fh)
    assert summary["t"] == 0.3
    assert math.isfinite(summary["closure_max_error"])
    for key in ("r1", "r2", "r3"):
        assert math.isfinite(summary["residual_sup"][key])


def test_uchiyama_full_zero_table(tmp_path):
    # the deepest pieces need the full zero table to certify their floors
    out = tmp_path / "out"
    assert run(["uchiyama", "--grid", "4", "--n-r", "3"], out=out) == 0
    with open(out / "uchiyama.json") as fh:
        summary = json.load(fh)
    labels = [r["label"] for r in summary["reports"]]
    assert any(lbl.startswith("unit-mu") for lbl in labels)
    assert any(lbl.startswith("unit-flat") for lbl in labels)
    assert "halfline-0" in labels
    assert summary["spread_unit_mu"] < 5
    assert summary["spread_unit_flat"] < 5
    for rep in summary["reports"]:
        assert rep["A"] > 0 and math.isfinite(rep["A"])


def test_atoms_validate(tmp_path, small_cfg):
    out = tmp_path / "out"
    rc = run(["atoms", "validate", "--family", "mu", "--count", "12"],
             cfg=small_cfg, out=out)
    assert rc == 0
    with open(out / "atoms_validate_mu.json") as fh:
        payload = json.load(fh)
    assert payload["count"] == 12
    assert payload["n_valid"] == 12


@pytest.mark.parametrize("family,measure",
                         [("mu", MEASURE_MU), ("lebesgue", MEASURE_LEBESGUE)])
def test_atoms_decompose(tmp_path, small_cfg, family, measure):
    out = tmp_path / "out"
    rc = run(["atoms", "decompose", "--family", family],
             cfg=small_cfg, out=out)
    assert rc == 0
    with open(out / f"atoms_decompose_{family}.json") as fh:
        summary = json.load(fh)
    assert summary["residual_rel"] < 1e-6
    assert summary["n_details"] > 0
    assert summary["n_closers"] > 0
    assert summary["closure_l1"] < summary["coeff_l1"]
    header, body = read_csv(out / f"reconstruction_{family}.csv")
    assert header == "x,value"
    assert len(body) == grid_size(measure)


def test_atoms_batch(tmp_path, small_cfg):
    out = tmp_path / "out"
    rc = run(["atoms", "batch", "--family", "lebesgue", "--count", "5"],
             cfg=small_cfg, out=out)
    assert rc == 0
    with open(out / "atoms_batch_lebesgue.json") as fh:
        payload = json.load(fh)
    assert payload["count"] == 5
    assert math.isfinite(payload["max_norm"])
    assert all(r["valid"] for r in payload["rows"])


@pytest.mark.parametrize("family", ["mu", "lebesgue"])
@pytest.mark.parametrize("nu", ["-0.3", "1"])
def test_atoms_reports_equal_the_per_atom_reference(tmp_path, small_cfg, family, nu):
    """atoms validate writes the per-atom reference report of every seeded
    atom, byte for byte, and atoms batch its label, kind and validity."""
    out = tmp_path / "out"
    for action in ("validate", "batch"):
        assert run(["--nu", nu, "atoms", action, "--family", family, "--count", "30"],
                   cfg=small_cfg, out=out) == 0
    cfg = load_config(small_cfg, overrides={"nu": float(nu)})
    measure = fbhardy.cli._FAMILY_ALIASES[family]
    atoms = random_atoms(np.random.default_rng(cfg.seed), measure, cfg.nu, 30,
                         scale_max=cfg.atom_scale_max, zeta=cfg.zeta)
    cover = DyadicCover(FAMILY_ONE_END if measure == MEASURE_MU else FAMILY_TWO_END,
                        zeta=cfg.zeta, j_max=max(cfg.atom_scale_max, 8))
    want = [ref_validate_atom(a, cover, cfg.cancel_tol) for _, a in atoms]
    payload = {"count": 30, "n_valid": sum(r["valid"] for r in want), "reports": want}
    assert (out / f"atoms_validate_{family}.json").read_text() == \
        json.dumps(fbhardy.cli._py(payload), sort_keys=True, indent=1) + "\n"
    with open(out / f"atoms_batch_{family}.json") as fh:
        rows = json.load(fh)["rows"]
    assert [(r["label"], r["kind"], r["valid"]) for r in rows] == [
        (a.label, a.kind, ref_validate_atom(a, cancel_tol=cfg.cancel_tol)["valid"])
        for _, a in atoms]


def test_h1_report_decomposes_with_the_config(tmp_path):
    """zeta and reconstruct_tol from the config reach the decomposition: the
    report's atomic numbers are those of a direct call with the same
    settings, and differ from those at the defaults."""
    path = tmp_path / "h1.cfg"
    path.write_text(SMALL_CFG + "zeta = 0.05\nreconstruct_tol = 1e-4\n")
    out = tmp_path / "out"
    assert run(["h1-report"], cfg=str(path), out=out) == 0
    with open(out / "h1_report.json") as fh:
        payload = json.load(fh)
    session = fbhardy.cli._Session(load_config(path))
    for measure, tag in ((MEASURE_MU, "mu"), (MEASURE_LEBESGUE, "lebesgue")):
        f = fbhardy.cli._sampled(session, fbhardy.cli._twobar_profile(measure), measure)
        summary = atomic_decompose(f, nu=0.5, reconstruct_tol=1e-4, zeta=0.05).summary(f)
        assert payload[tag]["coeff_l1"] == summary["coeff_l1"]
        assert payload[tag]["n_details"] == summary["n_details"]
        assert payload[tag]["residual_rel"] == summary["residual_rel"]
        assert payload[tag]["n_details"] != atomic_decompose(f, nu=0.5).summary()["n_details"]


def test_h1_report(tmp_path, small_cfg):
    out = tmp_path / "out"
    assert run(["h1-report"], cfg=small_cfg, out=out) == 0
    with open(out / "h1_report.json") as fh:
        payload = json.load(fh)
    for tag in ("mu", "lebesgue"):
        assert 0 < payload[tag]["ratio"] < math.inf
        assert payload[tag]["residual_rel"] < 1e-6


def test_dirichlet_traces(tmp_path, small_cfg):
    out = tmp_path / "out"
    rc = run(["dirichlet", "--grid", "9", "--n-t", "3"],
             cfg=small_cfg, out=out)
    assert rc == 0
    with open(out / "dirichlet.json") as fh:
        manifest = json.load(fh)["traces"]
    assert len(manifest) == 3
    for entry in manifest:
        header, body = read_csv(out / entry["file"])
        assert header == "x,value"
        assert len(body) == 9


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path, small_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["atoms", "decompose", "--family", "mu"],
                   cfg=small_cfg, out=out) == 0
        assert run(["zeros"], cfg=small_cfg, out=out) == 0
    for name in ("atoms_decompose_mu.json", "reconstruction_mu.csv",
                 "zeros.csv"):
        with open(out1 / name, "rb") as fh:
            b1 = fh.read()
        with open(out2 / name, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_uncertified_time_exits_one(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    rc = run(["kernel", "--which", "poisson-mu", "--t", "1e-7", "--grid", "4"],
             cfg=small_cfg, out=out)
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "numerics"
    assert report["operation"] == "poisson_kernel"


def test_small_zero_table_fails_uchiyama(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    rc = run(["uchiyama", "--grid", "4", "--n-r", "3"],
             cfg=small_cfg, out=out)
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "numerics"
    assert report["operation"] == "uchiyama"


@pytest.mark.parametrize("nu, zero_tol, tol_text", [("9", None, "1.0e-12"),
                                                     ("0", "1e-300", "1.0e-300")])
def test_zero_table_refusal_names_its_inputs(tmp_path, nu, zero_tol, tol_text, capsys):
    """A zero table that misses its residual tolerance (at nu = 9, where J is
    off; at nu = 0, under a tolerance no float meets) is refused with nu,
    the worst zero, n_zeros and zero_tol named, and no table written."""
    cfg = tmp_path / "zeros.cfg"
    cfg.write_text("n_zeros = 64\n" + (f"zero_tol = {zero_tol}\n" if zero_tol else ""))
    out = tmp_path / "out"
    rc = run(["--nu", nu, "zeros"], cfg=str(cfg), out=out)
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["operation"]) == ("numerics", "bessel_zeros")
    assert re.fullmatch(rf"residual above zero_tol = {tol_text} at nu = {nu}, n_zeros = 64: "
                        r"zero \d+ has residual \d\.\d{3}e[-+]\d+", report["detail"])
    assert not (out / "zeros.csv").exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_zeros = 64\nmystery_knob = 3\n")
    rc = run(["zeros"], cfg=str(bad), out=tmp_path / "out")
    assert rc == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "config"
    assert "mystery_knob" in report["detail"]


def test_missing_config_file_exits_two(tmp_path, capsys):
    rc = run(["zeros"], cfg=str(tmp_path / "nope.cfg"), out=tmp_path / "out")
    assert rc == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "config"


def test_invalid_config_value_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("t_ratio = 2.0\n")
    rc = run(["zeros"], cfg=str(bad), out=tmp_path / "out")
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("args, flag, value", [
    (["dirichlet", "--t-min", "-1", "--t-max", "-0.5"], "--t-min", "-1.0"),
    (["dirichlet", "--t-min", "0.5", "--t-max", "0.1"], "--t-max", "0.1"),
    (["dirichlet", "--grid", "0"], "--grid", "0"),
    (["dirichlet", "--n-t", "0"], "--n-t", "0"),
    (["kernel", "--t", "0.1", "--t", "-1"], "--t", "-1.0"),
    (["kernel", "--grid", "0"], "--grid", "0"),
    (["atoms", "batch", "--count", "0"], "--count", "0"),
    (["atoms", "validate", "--count", "0"], "--count", "0"),
    (["estimates", "--grid", "0"], "--grid", "0"),
    (["duhamel", "--t", "0"], "--t", "0.0"),
    (["uchiyama", "--grid", "0"], "--grid", "0"),
    (["uchiyama", "--n-r", "-2"], "--n-r", "-2"),
])
def test_invalid_flag_exits_two_naming_it(tmp_path, small_cfg, capsys, args,
                                          flag, value):
    out = tmp_path / "out"
    assert run(args, cfg=small_cfg, out=out) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "config"
    assert report["detail"].startswith(f"{flag} must be ")
    assert report["detail"].endswith(f"got {value}")
    assert not out.exists()
