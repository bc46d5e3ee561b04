"""Experiment runner: subcommands over a declarative YAML config.

Usage:
    cocyclelab <subcommand> --config experiment.yaml [--out DIR]
                            [--threads N] [--seed S]

The config is a single YAML document; its "experiment" key must match the
subcommand. load_config validates it against SCHEMA and PARAM_SCHEMAS with
validators compiled once at import; build turns its frequency, cocycle and
quadrature blocks into library objects (an Inputs record); the experiment's
handler calls the library and returns a JSON payload and an optional CSV
body, which run writes to --out as <experiment>.json (always),
<experiment>.csv for tabular results, and <experiment>.svg when "plot: true"
and a CSV exists. Every CSV goes through _util.csv_text, which formats each
row with one %-template: %d for integer cells, %.17g (fmt17) for the rest.
Every output embeds the sha256 of the config file and the library version;
identical config + seed yields identical bytes regardless of --threads.
--threads N splits each node batch of the orbit-product kernel into N chunks
run on a thread pool, with N capped at the core count.

Exit codes: 0 success; 2 a ConfigError from loading, building (say a cocycle
whose dimension differs from the frequency's) or a handler (say a missing
block, a grid size M that is not a power of two, a ladder frequency that is
NaN or infinite, a cov matrix B that is not square, unimodular and of the
frequency's dimension, an le-limit schedule that is not strictly increasing,
a fourier K0 not below M/2, or an example-discontinuity k of zeros); 3 a
CocycleLabError, ValueError, ArithmeticError or KeyError raised while the
library runs. Both write a JSON record to stderr; exit 3 also writes it to
<out>/error.json.
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import yaml
from jsonschema import exceptions as schema_errors
from jsonschema.validators import validator_for

from . import __version__
from ._svg import plot_csv_text
from ._util import csv_text, set_max_workers, to_json_text
from .avalanche import ap_ensemble, ensemble_to_csv
from .cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    jacobi,
    jacobi_periodic,
    schrodinger,
)
from .deviation import (
    cdt_empirical,
    fourier_coeffs,
    l2_uniform_check,
    ldt_empirical,
    lojasiewicz_fit,
    profile,
    shift_drift_empirical,
    coeffs_to_csv,
)
from .errors import CocycleLabError, NotUnimodular
from .lyapunov import (
    # not called here; perfbench/tracer.py wraps these bindings by name
    L_N_renormalized,
    L_prime_N,
    QuadratureSpec,
    finite_scale_modulus,
    le_extrapolate,
    le_table,
    le_table_to_csv,
)
from .multiscale import (
    cov_invariance_check,
    induction_schedule,
    ladder_verify,
    liouville_ladder,
    mixed_gate,
)
from .torus import Automorphism, Frequency

EXPERIMENTS = (
    "le", "le-limit", "continuity", "ap", "ldt", "cdt", "drift", "loja",
    "l2", "fourier", "ladder", "cov", "example-discontinuity",
)


class ConfigError(Exception):
    """The config failed to load, validate or build; maps to exit code 2."""

    def __init__(self, message: str, digest: Optional[str] = None):
        super().__init__(message)
        self.digest = digest


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_TRIGPOLY = {"$ref": "#/$defs/trigpoly"}

_TRIGPOLY_DEFS = {
    "trigpoly": {
        "anyOf": [
            {"type": "number"},
            {"type": "array", "items": {"$ref": "#/$defs/trigpoly"}},
            {
                "type": "object",
                "properties": {
                    "const": {"type": "number"},
                    "cos": {"type": "array", "items": {"type": "integer"}},
                    "sin": {"type": "array", "items": {"type": "integer"}},
                    "amp": {"type": "number"},
                    "coeffs": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["k"],
                            "properties": {
                                "k": {"type": "array",
                                      "items": {"type": "integer"}},
                                "re": {"type": "number"},
                                "im": {"type": "number"},
                            },
                            "additionalProperties": False,
                        },
                    },
                },
                "additionalProperties": False,
            },
        ]
    }
}

_FREQ = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_NULLABLE_FREQ = {"anyOf": [{"type": "null"}, _FREQ]}
_INT_LIST = {"type": "array", "items": {"type": "integer", "minimum": 1},
             "minItems": 1}
_NUM_LIST = {"type": "array", "items": {"type": "number"}, "minItems": 1}

SCHEMA = {
    "$defs": _TRIGPOLY_DEFS,
    "type": "object",
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
        "plot": {"type": "boolean"},
        "frequency": _FREQ,
        "cocycle": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["constant", "schrodinger", "amo", "jacobi",
                                  "jacobi_periodic", "discontinuity",
                                  "matrix"]},
                "rho": {"type": "number", "exclusiveMinimum": 0},
                "diag": {"type": "array", "items": {"type": "number"},
                         "minItems": 2, "maxItems": 2},
                "v": _TRIGPOLY,
                "a": _TRIGPOLY,
                "E": {"type": "number"},
                "lam": {"type": "number"},
                "v_per": _NUM_LIST,
                "k": {"type": "array", "items": {"type": "integer"},
                      "minItems": 1},
                "entries": {"type": "array", "items": _TRIGPOLY,
                            "minItems": 4, "maxItems": 4},
            },
            "additionalProperties": False,
        },
        "quadrature": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["uniform-grid", "low-discrepancy",
                                  "monte-carlo"]},
                "points_per_dim": {"type": "integer", "minimum": 1},
                "total_points": {"type": "integer", "minimum": 1},
                "clip_floor": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "params": {"type": "object"},
    },
    "additionalProperties": False,
}

PARAM_SCHEMAS: Dict[str, dict] = {
    "le": {
        "type": "object",
        "required": ["N_list"],
        "properties": {"N_list": _INT_LIST,
                       "renormalized": {"type": "boolean"}},
        "additionalProperties": False,
    },
    "le-limit": {
        "type": "object",
        "required": ["schedule"],
        "properties": {"schedule": _INT_LIST},
        "additionalProperties": False,
    },
    "continuity": {
        "type": "object",
        "required": ["N", "amplitudes"],
        "properties": {
            "N": {"type": "integer", "minimum": 1},
            "amplitudes": _NUM_LIST,
            "entry": {"type": "array", "items": {"type": "integer",
                                                 "minimum": 0, "maximum": 1},
                      "minItems": 2, "maxItems": 2},
            "k": {"type": "array", "items": {"type": "integer"}},
        },
        "additionalProperties": False,
    },
    "ap": {
        "type": "object",
        "required": ["chains"],
        "properties": {
            "chains": {"type": "integer", "minimum": 1},
            "mu": {"type": "number", "exclusiveMinimum": 1},
            "n_max": {"type": "integer", "minimum": 3},
            "variant": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "ldt": {
        "type": "object",
        "required": ["N", "M", "kappas"],
        "properties": {
            "N": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 2},
            "kappas": _NUM_LIST,
            "renormalize_first": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "cdt": {
        "type": "object",
        "required": ["N", "M", "kappa", "shifts"],
        "properties": {
            "N": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 2},
            "kappa": {"type": "number", "exclusiveMinimum": 0},
            "shifts": {"type": "array", "items": _NUM_LIST, "minItems": 1},
            "C": {"type": "number", "exclusiveMinimum": 0},
            "renormalize_first": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "drift": {
        "type": "object",
        "required": ["N", "M", "a_exponent"],
        "properties": {
            "N": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 2},
            "a_exponent": {"type": "number", "exclusiveMinimum": 0,
                           "exclusiveMaximum": 1},
            "C": {"type": "number", "exclusiveMinimum": 0},
            "renormalize_first": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "loja": {
        "type": "object",
        "required": ["g", "t_grid", "M"],
        "properties": {
            "g": _TRIGPOLY,
            "d": {"type": "integer", "minimum": 1},
            "t_grid": _NUM_LIST,
            "M": {"type": "integer", "minimum": 2},
        },
        "additionalProperties": False,
    },
    "l2": {
        "type": "object",
        "required": ["N_list", "M"],
        "properties": {
            "N_list": _INT_LIST,
            "M": {"type": "integer", "minimum": 2},
            "renormalize_first": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "fourier": {
        "type": "object",
        "required": ["N", "M", "K0"],
        "properties": {
            "N": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 4},
            "K0": {"type": "integer", "minimum": 1},
            "renormalize_first": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "ladder": {
        "type": "object",
        "required": ["kind"],
        "properties": {
            "kind": {"enum": ["liouville", "mixed", "induction"]},
            "N0": {"type": "integer", "minimum": 1},
            "q0": {"type": "integer", "minimum": 1},
            "K0": {"type": "integer", "minimum": 1},
            "rho": {"type": "number", "exclusiveMinimum": 0},
            "kappa": {"type": "number"},
            "C": {"type": "number", "exclusiveMinimum": 0},
            "c": {"type": "number", "exclusiveMinimum": 0},
            "max_scale": {"type": "number", "exclusiveMinimum": 0},
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "delta0": {"type": "number", "exclusiveMinimum": 0},
            "eps0": {"type": "number", "minimum": 0},
            "omega1": _NULLABLE_FREQ,
            "omega2": _NULLABLE_FREQ,
            "verify": {
                "type": "object",
                "properties": {
                    "C_prime": {"type": "number", "exclusiveMinimum": 0},
                    "renormalized": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "cov": {
        "type": "object",
        "required": ["B", "N", "M"],
        "properties": {
            "B": {"type": "array",
                  "items": {"type": "array",
                            "items": {"type": "integer"}, "minItems": 1},
                  "minItems": 1},
            "N": {"type": "integer", "minimum": 1},
            "M": {"type": "integer", "minimum": 2},
        },
        "additionalProperties": False,
    },
    "example-discontinuity": {
        "type": "object",
        "required": ["k"],
        "properties": {
            "k": {"type": "array", "items": {"type": "integer"},
                  "minItems": 1},
            "N_list": _INT_LIST,
            "M": {"type": "integer", "minimum": 2},
        },
        "additionalProperties": False,
    },
}


def _compile(schema: dict):
    """A validator for schema, built once. The schemas are fixed, so they are
    checked against the metaschema by the tests, not on every load."""
    return validator_for(schema)(schema)


_VALIDATOR = _compile(SCHEMA)
_PARAM_VALIDATORS = {name: _compile({**schema, "$defs": _TRIGPOLY_DEFS})
                     for name, schema in PARAM_SCHEMAS.items()}

# experiments that run a cocycle need these top-level blocks
_NEEDS_COCYCLE = {"le", "le-limit", "continuity", "ldt", "cdt", "drift",
                  "l2", "fourier", "cov"}
_NEEDS_FREQUENCY = _NEEDS_COCYCLE | {"example-discontinuity"}


# ---------------------------------------------------------------------------
# Config interpretation
# ---------------------------------------------------------------------------

def load_config(path: str) -> tuple:
    """Read and validate a config file: returns (dict, sha256 hex)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}", digest) from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping", digest)
    # best_match picks the error jsonschema.validate would raise
    e = schema_errors.best_match(_VALIDATOR.iter_errors(cfg))
    name = cfg.get("experiment")
    if e is None:
        e = schema_errors.best_match(
            _PARAM_VALIDATORS[name].iter_errors(cfg.get("params", {})))
    if e is not None:
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {loc}: {e.message}",
                          digest) from e
    if name in _NEEDS_COCYCLE and "cocycle" not in cfg:
        raise ConfigError(f"experiment {name} requires a cocycle block", digest)
    if name in _NEEDS_FREQUENCY and "frequency" not in cfg:
        raise ConfigError(f"experiment {name} requires a frequency block",
                          digest)
    return cfg, digest


def build_trigpoly(spec, d: int) -> TrigPoly:
    """Interpret a trig-polynomial spec: number, sum list, or keyword form."""
    if isinstance(spec, (int, float)):
        return TrigPoly.constant(d, float(spec))
    if isinstance(spec, list):
        out = TrigPoly.constant(d, 0.0)
        for part in spec:
            out = out + build_trigpoly(part, d)
        return out
    if isinstance(spec, dict):
        amp = float(spec.get("amp", 1.0))
        if "const" in spec:
            return TrigPoly.constant(d, float(spec["const"]))
        if "cos" in spec:
            return TrigPoly.cosine(tuple(spec["cos"]), amp)
        if "sin" in spec:
            return TrigPoly.sine(tuple(spec["sin"]), amp)
        if "coeffs" in spec:
            coeffs = {tuple(int(v) for v in c["k"]):
                      complex(c.get("re", 0.0), c.get("im", 0.0))
                      for c in spec["coeffs"]}
            return TrigPoly(d, coeffs)
    raise ValueError(f"unrecognized trig polynomial spec: {spec!r}")


def build_cocycle(spec: dict, omega: Frequency) -> Cocycle:
    """Interpret a cocycle block over the frequency omega."""
    kind = spec["kind"]
    d = omega.d
    rho = float(spec.get("rho", 0.5))
    if kind == "constant":
        a, b = spec["diag"]
        A = TrigPolyMatrix.constant(d, [[a, 0.0], [0.0, b]], rho=rho)
    elif kind == "schrodinger":
        A = schrodinger(build_trigpoly(spec["v"], d), float(spec["E"]),
                        rho=rho, d=d)
    elif kind == "amo":
        A = amo(float(spec["lam"]), float(spec["E"]), rho=rho)
    elif kind == "jacobi":
        A = jacobi(build_trigpoly(spec.get("v", 0.0), d),
                   build_trigpoly(spec["a"], d), float(spec["E"]), omega,
                   rho=rho)
    elif kind == "jacobi_periodic":
        A = jacobi_periodic(build_trigpoly(spec.get("v", 0.0), d),
                            build_trigpoly(spec["a"], d),
                            [float(v) for v in spec["v_per"]],
                            float(spec["E"]), omega, rho=rho)
    elif kind == "discontinuity":
        A = DiscontinuityExample(tuple(spec["k"]))
    elif kind == "matrix":
        e = [build_trigpoly(s, d) for s in spec["entries"]]
        A = TrigPolyMatrix.from_entries(e[0], e[1], e[2], e[3], rho=rho)
    else:
        raise ValueError(f"unknown cocycle kind {kind!r}")
    return Cocycle(A, omega)


def _frequency(vals) -> Optional[Frequency]:
    return None if vals is None else Frequency(tuple(float(v) for v in vals))


def _param_frequency(p: dict, key: str) -> Optional[Frequency]:
    """A frequency given in params (a ladder's omega1/omega2)."""
    try:
        return _frequency(p.get(key))
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"params.{key}: {e}") from e


def _grid_size(p: dict) -> int:
    """params.M of an experiment that samples the integer grid i/M."""
    M = int(p["M"])
    if M & (M - 1):
        raise ConfigError(f"params.M = {M} is not a power of two")
    return M


@dataclass(frozen=True)
class Inputs:
    """Library objects built from a config; None where a block is absent."""

    p: dict
    seed: int
    omega: Optional[Frequency]
    C: Optional[Cocycle]
    quad: Optional[QuadratureSpec]


def build(cfg: dict, seed: int) -> Inputs:
    """Build stage: a block that cannot be constructed is a ConfigError."""
    try:
        omega = _frequency(cfg.get("frequency"))
        C = (build_cocycle(cfg["cocycle"], omega)
             if "cocycle" in cfg and omega is not None else None)
        q = cfg.get("quadrature")
        quad = None if q is None else QuadratureSpec(
            **{"kind": "uniform-grid", **q}, seed=seed)
    except (ValueError, OverflowError) as e:
        raise ConfigError(str(e)) from e
    return Inputs(cfg.get("params", {}), seed, omega, C, quad)


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (payload dict, csv text or None)
# ---------------------------------------------------------------------------

def _le_rows(table) -> List[dict]:
    return [{"N": r.N, "value": r.value, "excised_mass": r.excised_mass,
             "stderr": r.stderr} for r in table]


def _fractions_csv(estimates) -> str:
    return csv_text(("threshold", "measured_fraction"),
                    ((e.threshold, e.measured_fraction) for e in estimates))


def _run_le(inp: Inputs):
    renormalized = bool(inp.p.get("renormalized", False))
    table = le_table(inp.C, [int(N) for N in inp.p["N_list"]], inp.quad,
                     renormalized=renormalized)
    payload = {"renormalized": renormalized, "rows": _le_rows(table)}
    return payload, le_table_to_csv(table)


def _run_le_limit(inp: Inputs):
    schedule = inp.p["schedule"]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError(f"params.schedule = {schedule} is not strictly "
                          "increasing")
    res = le_extrapolate(inp.C, schedule, inp.quad)
    payload = {"limit": res.limit, "increments": list(res.increments),
               "rows": _le_rows(res.table)}
    return payload, le_table_to_csv(res.table)


def _run_continuity(inp: Inputs):
    p, A = inp.p, inp.C.A
    if not isinstance(A, TrigPolyMatrix):
        raise ConfigError("continuity needs a trig-polynomial cocycle")
    i, j = p.get("entry", [0, 0])
    k = tuple(p.get("k", [0] * A.d))
    entries = [A.entry(0, 0), A.entry(0, 1), A.entry(1, 0), A.entry(1, 1)]
    perturbed = []
    for amp in p["amplitudes"]:
        bumped = list(entries)
        bumped[2 * i + j] = bumped[2 * i + j] + TrigPoly(A.d, {k: float(amp)})
        perturbed.append(TrigPolyMatrix.from_entries(*bumped, rho=A.rho))
    table = finite_scale_modulus(inp.C, int(p["N"]), perturbed, inp.quad)
    env = {r.delta: r.diff for r in table.envelope}
    rows = ((r.delta, r.diff, env[r.delta])
            for r in sorted(table.rows, key=lambda r: r.delta))
    payload = {"N": table.N, "entry": [i, j], "k": list(k),
               "rows": [{"delta": r.delta, "diff": r.diff} for r in table.rows],
               "envelope": [{"delta": r.delta, "diff": r.diff}
                            for r in table.envelope]}
    return payload, csv_text(("delta", "diff", "envelope"), rows)


def _run_ap(inp: Inputs):
    p = inp.p
    payload = {"chains": int(p["chains"]), "mu": float(p.get("mu", 1e3)),
               "n_max": int(p.get("n_max", 100)),
               "variant": bool(p.get("variant", False))}
    res = ap_ensemble(seed=inp.seed, **payload)
    payload.update(worst_ratio=res.worst_ratio, all_within=res.all_within)
    return payload, ensemble_to_csv(res.reports)


def _run_ldt(inp: Inputs):
    p = inp.p
    M = _grid_size(p)
    prof = profile(inp.C, int(p["N"]), M,
                   renormalize_first=bool(p.get("renormalize_first", True)))
    ests = [ldt_empirical(prof, float(k)) for k in p["kappas"]]
    payload = {"N": int(p["N"]), "M": M, "mean": prof.mean,
               "excised_mass": prof.excised_mass,
               "estimates": [e.to_json_dict() for e in ests]}
    return payload, _fractions_csv(ests)


def _run_cdt(inp: Inputs):
    p = inp.p
    M = _grid_size(p)
    ests = [cdt_empirical(inp.C, int(p["N"]), [float(v) for v in a],
                          float(p["kappa"]), M,
                          C_const=float(p.get("C", 1.0)),
                          renormalize_first=bool(
                              p.get("renormalize_first", True)))
            for a in p["shifts"]]
    rows = ((e.parameters["a_norm"], e.measured_fraction, e.threshold,
             e.predicted_bound) for e in ests)
    payload = {"N": int(p["N"]), "M": M, "kappa": float(p["kappa"]),
               "estimates": [e.to_json_dict() for e in ests]}
    return payload, csv_text(("a_norm", "measured_fraction", "threshold",
                              "predicted_bound"), rows)


def _run_drift(inp: Inputs):
    p = inp.p
    est = shift_drift_empirical(inp.C, int(p["N"]), float(p["a_exponent"]),
                                _grid_size(p), C_const=float(p.get("C", 10.0)),
                                renormalize_first=bool(
                                    p.get("renormalize_first", True)))
    return {"estimate": est.to_json_dict()}, None


def _run_loja(inp: Inputs):
    p = inp.p
    M = _grid_size(p)
    g = build_trigpoly(p["g"], int(p.get("d", 1)))
    fit = lojasiewicz_fit(g, [float(t) for t in p["t_grid"]], M)
    payload = {"S": fit.S, "b": fit.b, "M": M,
               "estimates": [e.to_json_dict() for e in fit.estimates]}
    return payload, _fractions_csv(fit.estimates)


def _run_l2(inp: Inputs):
    p = inp.p
    rep = l2_uniform_check(inp.C, [int(n) for n in p["N_list"]],
                           _grid_size(p),
                           renormalize_first=bool(
                               p.get("renormalize_first", True)))
    payload = {"rows": [{"N": n, "rms": rms, "excised_mass": ex}
                        for n, rms, ex in rep.rows],
               "det_rms": rep.det_rms, "ratio": rep.ratio,
               "growth_flagged": rep.growth_flagged}
    return payload, csv_text(("N", "rms", "excised_mass"), rep.rows)


def _run_fourier(inp: Inputs):
    p = inp.p
    M, K0 = _grid_size(p), int(p["K0"])
    if K0 >= M // 2:
        raise ConfigError(f"params.K0 = {K0} is not below M/2 = {M // 2}")
    prof = profile(inp.C, int(p["N"]), M,
                   renormalize_first=bool(p.get("renormalize_first", True)))
    rep = fourier_coeffs(prof, K0)
    payload = {"N": int(p["N"]), "M": rep.M, "K0": rep.K0,
               "clip_level": rep.clip_level, "clipped_count": rep.clipped_count,
               "k0_coeff": rep.k0_coeff, "parseval_lhs": rep.parseval_lhs,
               "parseval_rhs": rep.parseval_rhs,
               "tail_energy_times_K0": rep.tail_energy_times_K0,
               "max_k_weighted": rep.max_k_weighted}
    return payload, coeffs_to_csv(rep)


def _run_ladder(inp: Inputs):
    p = inp.p
    kind = p["kind"]
    if kind == "mixed" and "verify" in p:
        raise ConfigError("mixed produces a gate report, not a ladder; "
                          "verify is not applicable")
    if kind == "liouville" and inp.omega is None:
        raise ConfigError("liouville ladder requires a frequency block")
    if "verify" in p and inp.C is None:
        raise ConfigError("verify requires cocycle and frequency blocks")
    omega1 = _param_frequency(p, "omega1")
    omega2 = _param_frequency(p, "omega2")
    if kind == "mixed":
        gate = mixed_gate(int(p["N0"]), int(p["q0"]), int(p["K0"]),
                          omega1, omega2,
                          rho=float(p["rho"]), kappa=float(p["kappa"]),
                          delta=float(p["delta"]),
                          C=float(p.get("C", 10.0)), c=p.get("c"))
        return {"gate": gate.to_json_dict()}, None
    if kind == "liouville":
        ladder = liouville_ladder(int(p["N0"]), int(p["q0"]), inp.omega,
                                  rho=float(p["rho"]), kappa=float(p["kappa"]),
                                  C=float(p.get("C", 10.0)),
                                  max_scale=p.get("max_scale"))
    else:
        ladder = induction_schedule(omega1, omega2,
                                    q0=int(p["q0"]), K0=int(p["K0"]),
                                    delta0=float(p["delta0"]),
                                    eps0=float(p.get("eps0", 0.0)),
                                    N0=int(p["N0"]), rho=float(p["rho"]),
                                    c=float(p.get("c", 0.1)))
    payload = {"ladder": ladder.to_json_dict()}
    if "verify" in p:
        v = ladder_verify(inp.C, ladder, quad=inp.quad,
                          C_prime=float(p["verify"].get("C_prime", 10.0)),
                          renormalized=bool(
                              p["verify"].get("renormalized", False)))
        payload["verification"] = v.to_json_dict()
    return payload, None


def _run_cov(inp: Inputs):
    p = inp.p
    M = _grid_size(p)
    try:
        B = Automorphism.from_entries(p["B"])
    except (ValueError, NotUnimodular) as e:
        raise ConfigError(f"params.B: {e}") from e
    if B.d != inp.C.d:
        raise ConfigError(f"params.B is {B.d}x{B.d} but the frequency has "
                          f"d={inp.C.d}")
    diff = cov_invariance_check(inp.C, B, N=int(p["N"]), M=M)
    return {"B": [list(row) for row in p["B"]], "N": int(p["N"]),
            "M": M, "difference": diff}, None


def _run_example_discontinuity(inp: Inputs):
    p, omega = inp.p, inp.omega
    k = tuple(int(v) for v in p["k"])
    if not any(k):
        raise ConfigError(f"params.k = {list(k)} must be nonzero")
    C = Cocycle(DiscontinuityExample(k), omega)
    M = int(p.get("M", 4096))
    quad = QuadratureSpec(kind="uniform-grid", points_per_dim=M)
    ests = le_table(C, [int(N) for N in p.get("N_list", [1, 10, 100])], quad)
    rows = [{"N": e.N, "value": e.value} for e in ests]
    dot = sum(ki * wi for ki, wi in zip(k, omega.components))
    resonant = abs(dot - round(dot)) < 1e-12
    reference = (2.0 / math.pi) * math.exp(-2.0 * math.pi * sum(k))
    payload = {"k": list(k), "omega": list(omega.components), "M": M,
               "resonant": resonant, "resonant_reference": reference,
               "rows": rows}
    return payload, csv_text(("N", "value"), ((e.N, e.value) for e in ests))


HANDLERS = {
    "le": _run_le,
    "le-limit": _run_le_limit,
    "continuity": _run_continuity,
    "ap": _run_ap,
    "ldt": _run_ldt,
    "cdt": _run_cdt,
    "drift": _run_drift,
    "loja": _run_loja,
    "l2": _run_l2,
    "fourier": _run_fourier,
    "ladder": _run_ladder,
    "cov": _run_cov,
    "example-discontinuity": _run_example_discontinuity,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(path)


def _error_record(exc: Exception, name: Optional[str],
                  digest: Optional[str]) -> str:
    return to_json_text({"error": type(exc).__name__, "message": str(exc),
                         "experiment": name, "config_sha256": digest})


def run(name: str, cfg: dict, digest: str, out_dir: str, seed: int) -> None:
    """Execute one experiment and write its outputs into out_dir."""
    payload, csv_body = HANDLERS[name](build(cfg, seed))
    meta = {"cocyclelab": __version__, "config_sha256": digest,
            "experiment": name, "seed": seed}
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, name)
    _write(base + ".json", to_json_text({**meta, **payload}))
    if csv_body is not None:
        stamp = f"# cocyclelab={__version__} config_sha256={digest}\n"
        _write(base + ".csv", stamp + csv_body)
        if cfg.get("plot", False):
            comment = f"cocyclelab={__version__} config_sha256={digest}"
            _write(base + ".svg", plot_csv_text(csv_body, title=name,
                                                comment=comment))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Deterministic experiment runner for 2x2 quasiperiodic "
                    "cocycles.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    digest: Optional[str] = None
    try:
        cfg, digest = load_config(args.config)
        if cfg["experiment"] != args.experiment:
            raise ConfigError(
                f"config is for experiment {cfg['experiment']!r} but the "
                f"subcommand is {args.experiment!r}", digest)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        set_max_workers(args.threads if args.threads is not None
                        else int(cfg.get("threads", 1)))
        run(args.experiment, cfg, digest, args.out, seed)
    except ConfigError as e:
        sys.stderr.write(_error_record(e, args.experiment, e.digest or digest))
        return 2
    except (CocycleLabError, ValueError, ArithmeticError, KeyError) as e:
        record = _error_record(e, args.experiment, digest)
        sys.stderr.write(record)
        try:
            os.makedirs(args.out, exist_ok=True)
            _write(os.path.join(args.out, "error.json"), record)
        except OSError:
            pass
        return 3
    finally:
        set_max_workers(1)
    return 0

if __name__ == "__main__":
    sys.exit(main())
