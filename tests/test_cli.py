import hashlib
import json
import math
import os
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
import yaml
from jsonschema.validators import validator_for

import cocyclelab
from cocyclelab._util import CSV_BLOCK, csv_text, fmt17
from cocyclelab.cli import (
    _TRIGPOLY_DEFS,
    EXPERIMENTS,
    PARAM_SCHEMAS,
    SCHEMA,
    ConfigError,
    build_trigpoly,
    load_config,
    main,
)
from cocyclelab.cocycle import TrigPoly

GOLDEN = 0.6180339887


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run_cli(tmp_path, cfg, subcommand=None, extra=()):
    path = write_config(tmp_path, "cfg.yaml", cfg)
    out = tmp_path / "out"
    sub = subcommand or cfg["experiment"]
    rc = main([sub, "--config", path, "--out", str(out), *extra])
    return rc, out


LE_CONSTANT = {
    "experiment": "le",
    "cocycle": {"kind": "constant", "diag": [2.0, 0.5]},
    "frequency": [0.5],
    "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
    "params": {"N_list": [1, 2, 4]},
}


class TestRunnerBasics:
    def test_le_constant_gives_log2_rows(self, tmp_path):
        rc, out = run_cli(tmp_path, LE_CONSTANT)
        assert rc == 0
        data = json.loads((out / "le.json").read_text())
        for row in data["rows"]:
            assert row["value"] == pytest.approx(math.log(2.0), abs=1e-15)
        lines = (out / "le.csv").read_text().splitlines()
        assert lines[0].startswith("# cocyclelab=")
        assert "config_sha256=" in lines[0]
        assert lines[1] == "N,value,excised_mass,stderr"
        assert len(lines) == 5

    def test_json_meta_fields(self, tmp_path):
        rc, out = run_cli(tmp_path, LE_CONSTANT)
        data = json.loads((out / "le.json").read_text())
        assert data["experiment"] == "le"
        assert data["seed"] == 0
        assert len(data["config_sha256"]) == 64
        assert data["cocyclelab"]

    def test_example_discontinuity_resonant_value(self, tmp_path):
        cfg = {
            "experiment": "example-discontinuity",
            "frequency": [0.0],
            "params": {"k": [1], "N_list": [1, 10], "M": 4096},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "example-discontinuity.json").read_text())
        assert data["resonant"] is True
        ref = data["resonant_reference"]
        assert ref == pytest.approx((2.0 / math.pi) * math.exp(-2.0 * math.pi))
        for row in data["rows"]:
            assert row["value"] == pytest.approx(ref, abs=1e-6)

    def test_cov_matched_grid_difference(self, tmp_path):
        cfg = {
            "experiment": "cov",
            "cocycle": {"kind": "schrodinger",
                        "v": [{"cos": [1, 0]}, {"cos": [0, 1]}],
                        "E": 0.5},
            "frequency": [GOLDEN, 2**0.5 - 1],
            "params": {"B": [[2, 3], [1, 2]], "N": 50, "M": 64},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "cov.json").read_text())
        assert data["difference"] <= 1e-10


class TestExitCodes:
    def test_schema_violation_exits_2(self, tmp_path, capsys):
        cfg = dict(LE_CONSTANT, params={"N_list": [0]})
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "N_list" in record["message"]

    def test_unknown_top_level_key_exits_2(self, tmp_path):
        cfg = dict(LE_CONSTANT, surprise=1)
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2

    def test_experiment_mismatch_exits_2(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, LE_CONSTANT, subcommand="ap")
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["config_sha256"] is not None

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["le", "--config", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_cocycle_block_exits_2(self, tmp_path):
        cfg = {"experiment": "le", "frequency": [0.5],
               "params": {"N_list": [1]}}
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2

    def test_numerical_failure_exits_3_with_record(self, tmp_path, capsys):
        # these liouville parameters fail their hypothesis gate
        cfg = {
            "experiment": "ladder",
            "frequency": [GOLDEN],
            "params": {"kind": "liouville", "N0": 10000, "q0": 8,
                       "rho": 0.5, "kappa": 0.2, "C": 5.0},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "GateFailed"
        on_disk = json.loads((out / "error.json").read_text())
        assert on_disk["error"] == "GateFailed"
        assert "eq:" in on_disk["message"]

    # The pair products of chains with these mu have norms near mu^2, past
    # the 1e77 where the closed form's f^2 overflowed. all_within is not
    # asserted: the bound C n / mu lies below the rounding of the residual.
    @pytest.mark.parametrize("mu", [1.0e40, 1.0e78])
    @pytest.mark.parametrize("variant", [False, True])
    def test_ap_with_huge_mu_stays_finite(self, tmp_path, mu, variant):
        cfg = {"experiment": "ap", "seed": 1,
               "params": {"chains": 20, "n_max": 30, "mu": mu,
                          "variant": variant}}
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        lines = (out / "ap.csv").read_text().splitlines()
        assert lines[1] == "n,mu,max_gap,residual,bound"
        assert len(lines) == 22
        for line in lines[2:]:
            n, mu_i, max_gap, residual, bound = map(float, line.split(","))
            assert math.isfinite(max_gap) and math.isfinite(residual)
        assert math.isfinite(json.loads((out / "ap.json").read_text())["worst_ratio"])


class TestDeterminism:
    def test_bytes_identical_across_runs_and_threads(self, tmp_path):
        path = write_config(tmp_path, "cfg.yaml", dict(LE_CONSTANT, plot=True))
        outs = []
        for tag, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
            out = tmp_path / tag
            assert main(["le", "--config", path, "--out", str(out),
                         *extra]) == 0
            outs.append(out)
        for name in ("le.json", "le.csv", "le.svg"):
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"experiment": "ap", "seed": 7,
               "params": {"chains": 10, "mu": 1000.0, "n_max": 20}}
        path = write_config(tmp_path, "cfg.yaml", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ap", "--config", path, "--out", str(a)]) == 0
        assert main(["ap", "--config", path, "--out", str(b),
                     "--seed", "99"]) == 0
        ja = json.loads((a / "ap.json").read_text())
        jb = json.loads((b / "ap.json").read_text())
        assert ja["seed"] == 7 and jb["seed"] == 99
        assert ja["worst_ratio"] != jb["worst_ratio"]

    def test_induction_ladder_replay_identical(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "induction", "omega1": None,
                       "omega2": [GOLDEN], "q0": 1, "K0": 2, "delta0": 0.2,
                       "eps0": 0.0, "N0": 16, "rho": 0.95, "c": 0.1},
        }
        path = write_config(tmp_path, "cfg.yaml", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ladder", "--config", path, "--out", str(a)]) == 0
        assert main(["ladder", "--config", path, "--out", str(b),
                     "--threads", "3"]) == 0
        assert (a / "ladder.json").read_bytes() == (b / "ladder.json").read_bytes()
        data = json.loads((a / "ladder.json").read_text())
        assert data["ladder"]["halt"] == "ScanTooLarge"


class TestLadderSubcommand:
    def test_liouville_with_verify(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "cocycle": {"kind": "constant", "diag": [2.0, 0.5]},
            "frequency": [0.5],
            "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
            "params": {"kind": "liouville", "N0": 16, "q0": 2, "rho": 1.0,
                       "kappa": 0.5, "C": 2.0, "max_scale": 128,
                       "verify": {"C_prime": 10.0}},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "ladder.json").read_text())
        assert data["ladder"]["scales"] == [16, 128]
        pairs = data["verification"]["pairs"]
        assert all(p["difference"] == 0.0 for p in pairs)
        assert data["verification"]["all_passed"] is True

    def test_mixed_reports_gate_flags(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "mixed", "N0": 20000000, "q0": 2, "K0": 50,
                       "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                       "kappa": 0.2, "delta": 0.013, "C": 5.0},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        flags = json.loads((out / "ladder.json").read_text())["gate"]["flags"]
        assert set(flags) == {"eq:Mixed:hyp1", "eq:Mixed:hyp2",
                              "eq:Mixed:hyp3"}

    def test_mixed_with_verify_rejected(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                       "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                       "kappa": 0.2, "delta": 0.01, "verify": {}},
        }
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2


class TestDeviationSubcommands:
    def test_loja_sin_power_law(self, tmp_path):
        cfg = {
            "experiment": "loja",
            "params": {"g": {"sin": [1]},
                       "t_grid": [0.5, 0.25, 0.125, 0.0625], "M": 65536},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "loja.json").read_text())
        assert 0.9 <= data["b"] <= 1.1
        lines = (out / "loja.csv").read_text().splitlines()
        assert lines[1] == "threshold,measured_fraction"

    def test_ldt_fractions_grow_as_kappa_shrinks(self, tmp_path):
        cfg = {
            "experiment": "ldt",
            "cocycle": {"kind": "amo", "lam": 3.0, "E": 0.0},
            "frequency": [GOLDEN],
            "params": {"N": 100, "M": 256, "kappas": [0.05, 0.02, 0.01]},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        fr = [e["measured_fraction"] for e in
              json.loads((out / "ldt.json").read_text())["estimates"]]
        assert fr[0] <= fr[1] <= fr[2]

    def test_fourier_scalars_present(self, tmp_path):
        cfg = {
            "experiment": "fourier",
            "cocycle": {"kind": "amo", "lam": 3.0, "E": 0.0},
            "frequency": [GOLDEN],
            "params": {"N": 16, "M": 256, "K0": 8},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "fourier.json").read_text())
        assert abs(data["parseval_lhs"] - data["parseval_rhs"]) <= 1e-10
        lines = (out / "fourier.csv").read_text().splitlines()
        assert lines[1] == "k1,re,im,abs"
        assert len(lines) == 2 + 256


class TestPlotting:
    def test_svg_written_with_stamp(self, tmp_path):
        rc, out = run_cli(tmp_path, dict(LE_CONSTANT, plot=True))
        assert rc == 0
        svg = (out / "le.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<polyline" in svg
        assert "config_sha256=" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_no_svg_without_plot_flag(self, tmp_path):
        rc, out = run_cli(tmp_path, LE_CONSTANT)
        assert rc == 0
        assert not (out / "le.svg").exists()


class TestConfigHelpers:
    def test_trigpoly_sum_and_shorthand(self):
        p = build_trigpoly([{"cos": [1, 0]}, {"cos": [0, 1]}, 0.25], 2)
        q = (TrigPoly.cosine((1, 0)) + TrigPoly.cosine((0, 1))
             + TrigPoly.constant(2, 0.25))
        assert p.coeffs == q.coeffs

    def test_trigpoly_explicit_coeffs(self):
        p = build_trigpoly({"coeffs": [{"k": [2], "re": 0.5, "im": -1.0}]}, 1)
        assert p.coeffs == {(2,): complex(0.5, -1.0)}

    def test_trigpoly_bad_spec(self):
        with pytest.raises(ValueError):
            build_trigpoly({"unknown": 1}, 1)

    def test_load_config_hash_is_file_hash(self, tmp_path):
        path = write_config(tmp_path, "cfg.yaml", LE_CONSTANT)
        cfg, digest = load_config(path)
        expect = hashlib.sha256((tmp_path / "cfg.yaml").read_bytes()).hexdigest()
        assert digest == expect
        assert cfg["experiment"] == "le"

    def test_load_config_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


# Configs that pass the schema but cannot be built or do not fit their
# experiment: each must exit 2 with a ConfigError record and no error.json.
AMO = {"kind": "amo", "lam": 3.0, "E": 0.0}
GRID16 = {"kind": "uniform-grid", "points_per_dim": 16}
LIOUVILLE = {"kind": "liouville", "N0": 16, "q0": 2, "rho": 1.0,
             "kappa": 0.5, "C": 2.0, "max_scale": 128}
INDUCTION = {"kind": "induction", "omega1": None, "omega2": [GOLDEN],
             "q0": 1, "K0": 2, "delta0": 0.2, "N0": 16, "rho": 0.95}
COV = {"experiment": "cov",
       "cocycle": {"kind": "schrodinger",
                   "v": [{"cos": [1, 0]}, {"cos": [0, 1]}], "E": 0.5},
       "frequency": [GOLDEN, 2**0.5 - 1],
       "params": {"B": [[2, 3], [1, 2]], "N": 3, "M": 8}}
CONFIG_ERRORS = {
    "continuity-non-trig-cocycle": {
        "experiment": "continuity",
        "cocycle": {"kind": "discontinuity", "k": [1]},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N": 2, "amplitudes": [0.1]}},
    "mixed-with-verify": {
        "experiment": "ladder",
        "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                   "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                   "kappa": 0.2, "delta": 0.01, "verify": {}}},
    "liouville-without-frequency": {
        "experiment": "ladder", "params": LIOUVILLE},
    "verify-without-cocycle": {
        "experiment": "ladder", "frequency": [0.5],
        "params": dict(LIOUVILLE, verify={})},
    "cocycle-dimension-mismatch": {
        "experiment": "le",
        "cocycle": {"kind": "schrodinger",
                    "v": [{"cos": [1, 0]}, {"cos": [0, 1]}], "E": 0.0},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
    "nan-frequency": {
        "experiment": "le", "cocycle": AMO, "frequency": [math.nan],
        "quadrature": GRID16, "params": {"N_list": [1]}},
    "infinite-frequency": {
        "experiment": "le", "cocycle": AMO, "frequency": [math.inf],
        "quadrature": GRID16, "params": {"N_list": [1]}},
    "monte-carlo-with-points-per-dim": {
        "experiment": "le", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": {"kind": "monte-carlo", "points_per_dim": 16},
        "params": {"N_list": [1]}},
    "2d-index-in-1d-matrix": {
        "experiment": "le",
        "cocycle": {"kind": "matrix",
                    "entries": [{"cos": [1, 0]}, -1.0, 1.0, 0.0]},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
    "induction-nan-omega2": {
        "experiment": "ladder",
        "params": dict(INDUCTION, omega2=[math.nan])},
    "mixed-nan-omega2": {
        "experiment": "ladder",
        "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                   "omega1": [0.5], "omega2": [math.nan], "rho": 0.5,
                   "kappa": 0.2, "delta": 0.01}},
    "induction-infinite-omega1": {
        "experiment": "ladder",
        "params": dict(INDUCTION, omega1=[math.inf])},
    "fourier-M-not-power-of-two": {
        "experiment": "fourier", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 100, "K0": 4}},
    "ldt-M-not-power-of-two": {
        "experiment": "ldt", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 24, "kappas": [0.1]}},
    "cdt-M-not-power-of-two": {
        "experiment": "cdt", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 24, "kappa": 0.1, "shifts": [[0.1]]}},
    "drift-M-not-power-of-two": {
        "experiment": "drift", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 24, "a_exponent": 0.5}},
    "loja-M-not-power-of-two": {
        "experiment": "loja",
        "params": {"g": {"sin": [1]}, "t_grid": [0.5], "M": 24}},
    "l2-M-not-power-of-two": {
        "experiment": "l2", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N_list": [2], "M": 24}},
    "cov-M-not-power-of-two": dict(COV, params=dict(COV["params"], M=12)),
    "cov-non-square-B": dict(
        COV, params=dict(COV["params"], B=[[1, 1], [0, 1], [0, 0]])),
    "cov-non-unimodular-B": dict(
        COV, params=dict(COV["params"], B=[[2, 0], [0, 1]])),
    "cov-B-dimension-mismatch": dict(
        COV, params=dict(COV["params"],
                         B=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
    "le-limit-schedule-not-increasing": {
        "experiment": "le-limit", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": GRID16, "params": {"schedule": [10, 5]}},
    "example-discontinuity-zero-k": {
        "experiment": "example-discontinuity", "frequency": [0.0],
        "params": {"k": [0], "N_list": [1], "M": 64}},
    "fourier-K0-not-below-half-M": {
        "experiment": "fourier", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 32, "K0": 16}},
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2_without_error_json(tmp_path, capsys, case):
    cfg = CONFIG_ERRORS[case]
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 2
    assert not (out / "error.json").exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["experiment"] == cfg["experiment"]
    assert len(record["config_sha256"]) == 64


def test_strip_norm_grid_past_the_guard_exits_3(tmp_path):
    # continuity on T^3 samples each strip face on a 256^3 grid: 2^24 nodes,
    # four times MAX_NODES. The guard must refuse it before allocating.
    cfg = {"experiment": "continuity",
           "cocycle": {"kind": "schrodinger", "E": 0.3,
                       "v": {"cos": [1, 0, 0], "amp": 3.0}},
           "frequency": [GOLDEN, 2**0.5 - 1, 10**0.5 - 3],
           "quadrature": {"kind": "low-discrepancy", "total_points": 64},
           "params": {"N": 2, "amplitudes": [0.1]}}
    path = write_config(tmp_path, "cfg.yaml", cfg)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cocyclelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # 2 GiB of address space: a grid built past the guard fails with
    # MemoryError instead of exhausting the host
    limited_main = ("import resource, sys; "
                    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                    "from cocyclelab.cli import main; sys.exit(main(sys.argv[1:]))")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", limited_main, "continuity", "--config", path,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 30
    assert proc.returncode == 3, proc.stderr
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ScanTooLarge"
    assert record["message"] == "16777216 grid nodes exceeds guard 4194304"


# One small run per subcommand: (config, CSV header line or None).
SUBCOMMANDS = {
    "le": (LE_CONSTANT, "N,value,excised_mass,stderr"),
    "le-limit": ({"experiment": "le-limit", "cocycle": AMO,
                  "frequency": [GOLDEN], "quadrature": GRID16,
                  "params": {"schedule": [1, 2]}},
                 "N,value,excised_mass,stderr"),
    "continuity": ({"experiment": "continuity", "cocycle": AMO,
                    "frequency": [GOLDEN], "quadrature": GRID16,
                    "params": {"N": 3, "amplitudes": [0.1, 0.01]}},
                   "delta,diff,envelope"),
    "ap": ({"experiment": "ap", "params": {"chains": 3, "n_max": 5}},
           "n,mu,max_gap,residual,bound"),
    "ldt": ({"experiment": "ldt", "cocycle": AMO, "frequency": [GOLDEN],
             "params": {"N": 3, "M": 32, "kappas": [0.1]}},
            "threshold,measured_fraction"),
    "cdt": ({"experiment": "cdt", "cocycle": AMO, "frequency": [GOLDEN],
             "params": {"N": 3, "M": 32, "kappa": 0.1, "shifts": [[0.1]]}},
            "a_norm,measured_fraction,threshold,predicted_bound"),
    "drift": ({"experiment": "drift", "cocycle": AMO, "frequency": [GOLDEN],
               "params": {"N": 3, "M": 32, "a_exponent": 0.5}}, None),
    "loja": ({"experiment": "loja",
              "params": {"g": {"sin": [1]}, "t_grid": [0.5, 0.25],
                         "M": 256}},
             "threshold,measured_fraction"),
    "l2": ({"experiment": "l2", "cocycle": AMO, "frequency": [GOLDEN],
            "params": {"N_list": [2, 4], "M": 32}},
           "N,rms,excised_mass"),
    "fourier": ({"experiment": "fourier", "cocycle": AMO,
                 "frequency": [GOLDEN],
                 "params": {"N": 3, "M": 32, "K0": 4}},
                "k1,re,im,abs"),
    "ladder": ({"experiment": "ladder", "params": INDUCTION}, None),
    "cov": (COV, None),
    "example-discontinuity": ({"experiment": "example-discontinuity",
                               "frequency": [0.0],
                               "params": {"k": [1], "N_list": [1],
                                          "M": 64}},
                              "N,value"),
}


def test_subcommand_cases_cover_every_experiment():
    assert sorted(SUBCOMMANDS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_subcommand_runs(tmp_path, name):
    cfg, header = SUBCOMMANDS[name]
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 0
    data = json.loads((out / f"{name}.json").read_text())
    assert data["experiment"] == name
    assert data["seed"] == 0
    assert len(data["config_sha256"]) == 64
    assert data["cocyclelab"]
    csv_path = out / f"{name}.csv"
    if header is None:
        assert not csv_path.exists()
    else:
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (f"# cocyclelab={data['cocyclelab']} "
                            f"config_sha256={data['config_sha256']}")
        assert lines[1] == header
        assert len(lines) > 2


def test_csv_text_cell_formats():
    rows = iter([(1, np.int64(-7), 0.1, math.inf),
                 (2**70, np.int32(3), -math.inf, math.nan),
                 (0, np.uint8(0), np.float64(2.5), 1.0)])
    assert csv_text(("a", "b", "c", "d"), rows) == (
        "a,b,c,d\n"
        "1,-7,0.10000000000000001,inf\n"
        "1180591620717411303424,3,-inf,nan\n"
        "0,0,2.5,1\n")
    assert csv_text(["x"], []) == "x\n"


def csv_text_per_cell(header, rows) -> str:
    """The per-cell writer csv_text used before its row templates, kept as
    the byte reference."""
    lines = [",".join(header)]
    lines.extend(",".join([str(int(v)) if isinstance(v, (int, np.integer))
                           else fmt17(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


CSV_CELLS = [0, -7, 2**53 + 1, 2**70, True, np.int64(-3), np.int32(5),
             np.uint8(255), np.uint64(2**64 - 1), 0.1, -0.0, 5e-324, 1e308,
             math.inf, -math.inf, math.nan, np.float64(2.5),
             np.float32(0.1), np.float32(-math.inf), np.float16(0.3),
             np.float64(-0.0), np.bool_(True), np.longdouble(1) / 3]


class TestCsvTextBytes:
    def test_every_cell_kind_matches_per_cell_writer(self):
        rows = [tuple(CSV_CELLS), tuple(reversed(CSV_CELLS))]
        header = [f"c{i}" for i in range(len(CSV_CELLS))]
        assert csv_text(header, iter(rows)) == csv_text_per_cell(header, rows)

    def test_a_float_in_an_integer_column_is_not_truncated(self):
        rows = [(1, 2.5), (2.75, 3), (np.float32(4.5), np.int64(2**62 + 1)),
                (5, 6.0)]
        text = csv_text(("n", "x"), (r for r in rows))
        assert text == csv_text_per_cell(("n", "x"), rows)
        assert text.splitlines()[2] == "2.75,3"

    def test_list_rows_and_generator_rows_agree(self):
        rows = [[1, 0.5], [2, math.nan]]
        assert csv_text(("a", "b"), rows) == csv_text(
            ("a", "b"), (tuple(r) for r in rows)) == "a,b\n1,0.5\n2,nan\n"

    @pytest.mark.parametrize("n", [CSV_BLOCK - 2, CSV_BLOCK - 1, CSV_BLOCK,
                                   2 * CSV_BLOCK + 1])
    def test_tables_across_join_blocks(self, n):
        rows = [(i, i / 7.0) for i in range(n)]
        text = csv_text(("i", "x"), iter(rows))
        assert text == csv_text_per_cell(("i", "x"), rows)
        assert text.count("\n") == n + 1

    def test_random_columns_match_per_cell_writer(self):
        rng = np.random.default_rng(7)
        ints = rng.integers(-2**62, 2**62, 500)
        floats = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        singles = rng.standard_normal(500).astype(np.float32)
        rows = [(int(i), np.int64(i), float(f), np.float64(f), s)
                for i, f, s in zip(ints, floats, singles)]
        header = ("a", "b", "c", "d", "e")
        assert csv_text(header, rows) == csv_text_per_cell(header, rows)


def _param_schema(name):
    return {**PARAM_SCHEMAS[name], "$defs": _TRIGPOLY_DEFS}


def _validate_message(cfg) -> str:
    """The ConfigError message from jsonschema.validate on the two schemas."""
    try:
        jsonschema.validate(cfg, SCHEMA)
        jsonschema.validate(cfg.get("params", {}),
                            _param_schema(cfg["experiment"]))
    except jsonschema.ValidationError as e:
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        return f"config schema violation at {loc}: {e.message}"
    raise AssertionError("config is valid")


INVALID_CONFIGS = {
    "root": {**LE_CONSTANT, "bogus": 1},
    "root-cocycle": {**LE_CONSTANT, "cocycle": {"kind": "amo", "lam": "3"}},
    "params": {**LE_CONSTANT, "params": {"N_list": [4, 0]}},
    "defs-trigpoly": {"experiment": "loja",
                      "params": {"g": [1.0, {"cos": [1], "bogus": 2}],
                                 "t_grid": [0.1], "M": 8}},
}


class TestCompiledSchemas:
    @pytest.mark.parametrize("name", ["<root>", *PARAM_SCHEMAS])
    def test_schema_passes_metaschema(self, name):
        schema = SCHEMA if name == "<root>" else _param_schema(name)
        validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_message_equals_jsonschema_validate(self, tmp_path, case):
        cfg = INVALID_CONFIGS[case]
        path = write_config(tmp_path, "bad.yaml", cfg)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == _validate_message(cfg)

    def test_load_config_never_checks_a_schema(self, tmp_path, monkeypatch):
        def refuse(cls, schema, *args, **kwargs):
            raise AssertionError("check_schema called while loading")

        for schema in (SCHEMA, *(_param_schema(n) for n in PARAM_SCHEMAS)):
            monkeypatch.setattr(validator_for(schema), "check_schema",
                                classmethod(refuse))
        path = write_config(tmp_path, "good.yaml", LE_CONSTANT)
        assert load_config(path)[0] == LE_CONSTANT
        for case, cfg in INVALID_CONFIGS.items():
            path = write_config(tmp_path, f"{case}.yaml", cfg)
            with pytest.raises(ConfigError):
                load_config(path)
