"""Experiment runner: subcommands over a declarative YAML config.

Usage:
    cocyclelab <subcommand> --config experiment.yaml [--out DIR]
                            [--threads N] [--seed S]

The config is a single YAML document; its "experiment" key must match the
subcommand. Outputs land in --out as <experiment>.json (always) plus
<experiment>.csv for tabular results and <experiment>.svg when "plot: true"
and a CSV exists. Every output embeds the sha256 of the config file and the
library version; identical config + seed yields identical bytes regardless
of --threads. --threads N splits each node batch of the orbit-product kernel
into N chunks run on a thread pool, with N capped at the core count.

Exit codes: 0 success, 2 config or schema problem, 3 numerical failure (a
machine-readable record goes to stderr and to <out>/error.json).
"""

import argparse
import hashlib
import math
import os
import sys
from typing import Dict, List, Optional

import jsonschema
import yaml

from . import __version__
from ._svg import plot_csv_text
from ._util import fmt17, set_max_workers, to_json_text
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
from .errors import CocycleLabError
from .lyapunov import (
    L_N_renormalized,
    L_prime_N,
    QuadratureSpec,
    finite_scale_modulus,
    le_extrapolate,
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
    """The config failed to load or validate; maps to exit code 2."""

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
    try:
        jsonschema.validate(cfg, SCHEMA)
        name = cfg["experiment"]
        params_schema = dict(PARAM_SCHEMAS[name])
        params_schema["$defs"] = _TRIGPOLY_DEFS
        jsonschema.validate(cfg.get("params", {}), params_schema)
    except jsonschema.ValidationError as e:
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


def build_cocycle(cfg: dict, omega: Frequency) -> Cocycle:
    spec = cfg["cocycle"]
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


def build_quadrature(cfg: dict, seed: int) -> Optional[QuadratureSpec]:
    q = cfg.get("quadrature")
    if q is None:
        return None
    kwargs = {"kind": q.get("kind", "uniform-grid"), "seed": seed}
    if "points_per_dim" in q:
        kwargs["points_per_dim"] = q["points_per_dim"]
    if "total_points" in q:
        kwargs["total_points"] = q["total_points"]
    if "clip_floor" in q:
        kwargs["clip_floor"] = q["clip_floor"]
    return QuadratureSpec(**kwargs)


def _frequency(vals) -> Optional[Frequency]:
    if vals is None:
        return None
    return Frequency(tuple(float(v) for v in vals))


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (payload dict, csv text or None)
# ---------------------------------------------------------------------------

def _le_rows(table) -> List[dict]:
    return [{"N": r.N, "value": r.value, "excised_mass": r.excised_mass,
             "stderr": r.stderr} for r in table]


def _run_le(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    quad = build_quadrature(cfg, seed)
    p = cfg.get("params", {})
    fn = L_N_renormalized if p.get("renormalized", False) else L_prime_N
    table = [fn(C, int(N), quad) for N in p["N_list"]]
    payload = {"renormalized": bool(p.get("renormalized", False)),
               "rows": _le_rows(table)}
    return payload, le_table_to_csv(table)


def _run_le_limit(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    quad = build_quadrature(cfg, seed)
    res = le_extrapolate(C, cfg["params"]["schedule"], quad)
    payload = {"limit": res.limit, "increments": list(res.increments),
               "rows": _le_rows(res.table)}
    return payload, le_table_to_csv(res.table)


def _run_continuity(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    quad = build_quadrature(cfg, seed)
    p = cfg["params"]
    A = C.A
    if not isinstance(A, TrigPolyMatrix):
        raise ValueError("continuity needs a trig-polynomial cocycle")
    i, j = p.get("entry", [0, 0])
    k = tuple(p.get("k", [0] * A.d))
    entries = [A.entry(0, 0), A.entry(0, 1), A.entry(1, 0), A.entry(1, 1)]
    perturbed = []
    for amp in p["amplitudes"]:
        bumped = list(entries)
        bumped[2 * i + j] = bumped[2 * i + j] + TrigPoly(A.d, {k: float(amp)})
        perturbed.append(TrigPolyMatrix.from_entries(*bumped, rho=A.rho))
    table = finite_scale_modulus(C, int(p["N"]), perturbed, quad)
    lines = ["delta,diff,envelope"]
    env = {(r.delta): r.diff for r in table.envelope}
    for r in sorted(table.rows, key=lambda r: r.delta):
        lines.append(",".join([fmt17(r.delta), fmt17(r.diff),
                               fmt17(env[r.delta])]))
    payload = {
        "N": table.N,
        "entry": [i, j], "k": list(k),
        "rows": [{"delta": r.delta, "diff": r.diff} for r in table.rows],
        "envelope": [{"delta": r.delta, "diff": r.diff}
                     for r in table.envelope],
    }
    return payload, "\n".join(lines) + "\n"


def _run_ap(cfg, seed):
    p = cfg["params"]
    res = ap_ensemble(chains=int(p["chains"]), seed=seed,
                      mu=float(p.get("mu", 1e3)),
                      n_max=int(p.get("n_max", 100)),
                      variant=bool(p.get("variant", False)))
    payload = {"chains": int(p["chains"]), "mu": float(p.get("mu", 1e3)),
               "n_max": int(p.get("n_max", 100)),
               "variant": bool(p.get("variant", False)),
               "worst_ratio": res.worst_ratio,
               "all_within": res.all_within}
    return payload, ensemble_to_csv(res.reports)


def _run_ldt(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    p = cfg["params"]
    prof = profile(C, int(p["N"]), int(p["M"]),
                   renormalize_first=bool(p.get("renormalize_first", True)))
    ests = [ldt_empirical(prof, float(k)) for k in p["kappas"]]
    lines = ["threshold,measured_fraction"]
    for e in ests:
        lines.append(",".join([fmt17(e.threshold),
                               fmt17(e.measured_fraction)]))
    payload = {"N": int(p["N"]), "M": int(p["M"]), "mean": prof.mean,
               "excised_mass": prof.excised_mass,
               "estimates": [e.to_json_dict() for e in ests]}
    return payload, "\n".join(lines) + "\n"


def _run_cdt(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    p = cfg["params"]
    ests = [cdt_empirical(C, int(p["N"]), [float(v) for v in a],
                          float(p["kappa"]), int(p["M"]),
                          C_const=float(p.get("C", 1.0)),
                          renormalize_first=bool(
                              p.get("renormalize_first", True)))
            for a in p["shifts"]]
    lines = ["a_norm,measured_fraction,threshold,predicted_bound"]
    for e in ests:
        lines.append(",".join([fmt17(e.parameters["a_norm"]),
                               fmt17(e.measured_fraction),
                               fmt17(e.threshold),
                               fmt17(e.predicted_bound)]))
    payload = {"N": int(p["N"]), "M": int(p["M"]), "kappa": float(p["kappa"]),
               "estimates": [e.to_json_dict() for e in ests]}
    return payload, "\n".join(lines) + "\n"


def _run_drift(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    p = cfg["params"]
    est = shift_drift_empirical(C, int(p["N"]), float(p["a_exponent"]),
                                int(p["M"]), C_const=float(p.get("C", 10.0)),
                                renormalize_first=bool(
                                    p.get("renormalize_first", True)))
    return {"estimate": est.to_json_dict()}, None


def _run_loja(cfg, seed):
    p = cfg["params"]
    d = int(p.get("d", 1))
    g = build_trigpoly(p["g"], d)
    fit = lojasiewicz_fit(g, [float(t) for t in p["t_grid"]], int(p["M"]))
    lines = ["threshold,measured_fraction"]
    for e in fit.estimates:
        lines.append(",".join([fmt17(e.threshold),
                               fmt17(e.measured_fraction)]))
    payload = {"S": fit.S, "b": fit.b, "M": int(p["M"]),
               "estimates": [e.to_json_dict() for e in fit.estimates]}
    return payload, "\n".join(lines) + "\n"


def _run_l2(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    p = cfg["params"]
    rep = l2_uniform_check(C, [int(n) for n in p["N_list"]], int(p["M"]),
                           renormalize_first=bool(
                               p.get("renormalize_first", True)))
    lines = ["N,rms,excised_mass"]
    for n, rms, ex in rep.rows:
        lines.append(",".join([str(n), fmt17(rms), fmt17(ex)]))
    payload = {"rows": [{"N": n, "rms": rms, "excised_mass": ex}
                        for n, rms, ex in rep.rows],
               "det_rms": rep.det_rms, "ratio": rep.ratio,
               "growth_flagged": rep.growth_flagged}
    return payload, "\n".join(lines) + "\n"


def _run_fourier(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    p = cfg["params"]
    prof = profile(C, int(p["N"]), int(p["M"]),
                   renormalize_first=bool(p.get("renormalize_first", True)))
    rep = fourier_coeffs(prof, int(p["K0"]))
    payload = {"N": int(p["N"]), "M": rep.M, "K0": rep.K0,
               "clip_level": rep.clip_level,
               "clipped_count": rep.clipped_count,
               "k0_coeff": rep.k0_coeff,
               "parseval_lhs": rep.parseval_lhs,
               "parseval_rhs": rep.parseval_rhs,
               "tail_energy_times_K0": rep.tail_energy_times_K0,
               "max_k_weighted": rep.max_k_weighted}
    return payload, coeffs_to_csv(rep)


def _run_ladder(cfg, seed):
    p = cfg["params"]
    kind = p["kind"]
    if kind == "mixed":
        gate = mixed_gate(int(p["N0"]), int(p["q0"]), int(p["K0"]),
                          _frequency(p.get("omega1")),
                          _frequency(p.get("omega2")),
                          rho=float(p["rho"]), kappa=float(p["kappa"]),
                          delta=float(p["delta"]),
                          C=float(p.get("C", 10.0)), c=p.get("c"))
        if "verify" in p:
            raise ValueError("mixed produces a gate report, not a ladder; "
                             "verify is not applicable")
        return {"gate": gate.to_json_dict()}, None
    if kind == "liouville":
        omega = _frequency(cfg.get("frequency"))
        if omega is None:
            raise ValueError("liouville ladder requires a frequency block")
        ladder = liouville_ladder(int(p["N0"]), int(p["q0"]), omega,
                                  rho=float(p["rho"]),
                                  kappa=float(p["kappa"]),
                                  C=float(p.get("C", 10.0)),
                                  max_scale=p.get("max_scale"))
    else:
        ladder = induction_schedule(_frequency(p.get("omega1")),
                                    _frequency(p.get("omega2")),
                                    q0=int(p["q0"]), K0=int(p["K0"]),
                                    delta0=float(p["delta0"]),
                                    eps0=float(p.get("eps0", 0.0)),
                                    N0=int(p["N0"]), rho=float(p["rho"]),
                                    c=float(p.get("c", 0.1)))
    payload = {"ladder": ladder.to_json_dict()}
    if "verify" in p:
        omega = _frequency(cfg.get("frequency"))
        if "cocycle" not in cfg or omega is None:
            raise ValueError("verify requires cocycle and frequency blocks")
        C = build_cocycle(cfg, omega)
        quad = build_quadrature(cfg, seed)
        v = ladder_verify(C, ladder, quad=quad,
                          C_prime=float(p["verify"].get("C_prime", 10.0)),
                          renormalized=bool(
                              p["verify"].get("renormalized", False)))
        payload["verification"] = v.to_json_dict()
    return payload, None


def _run_cov(cfg, seed):
    omega = _frequency(cfg["frequency"])
    C = build_cocycle(cfg, omega)
    p = cfg["params"]
    B = Automorphism.from_entries(p["B"])
    diff = cov_invariance_check(C, B, N=int(p["N"]), M=int(p["M"]))
    payload = {"B": [list(row) for row in p["B"]], "N": int(p["N"]),
               "M": int(p["M"]), "difference": diff}
    return payload, None


def _run_example_discontinuity(cfg, seed):
    omega = _frequency(cfg["frequency"])
    p = cfg.get("params", {})
    k = tuple(int(v) for v in p["k"])
    C = Cocycle(DiscontinuityExample(k), omega)
    M = int(p.get("M", 4096))
    quad = QuadratureSpec(kind="uniform-grid", points_per_dim=M)
    rows = []
    for N in p.get("N_list", [1, 10, 100]):
        est = L_prime_N(C, int(N), quad)
        rows.append({"N": est.N, "value": est.value})
    dot = sum(ki * wi for ki, wi in zip(k, omega.components))
    resonant = abs(dot - round(dot)) < 1e-12
    reference = (2.0 / math.pi) * math.exp(-2.0 * math.pi * sum(k))
    lines = ["N,value"]
    for r in rows:
        lines.append(",".join([str(r["N"]), fmt17(r["value"])]))
    payload = {"k": list(k), "omega": list(omega.components), "M": M,
               "resonant": resonant, "resonant_reference": reference,
               "rows": rows}
    return payload, "\n".join(lines) + "\n"


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
    payload, csv_body = HANDLERS[name](cfg, seed)
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
    except ConfigError as e:
        sys.stderr.write(_error_record(e, args.experiment, e.digest))
        return 2

    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    threads = args.threads if args.threads is not None \
        else int(cfg.get("threads", 1))
    set_max_workers(threads)
    try:
        run(args.experiment, cfg, digest, args.out, seed)
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
