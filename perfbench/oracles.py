"""Output checks for each benchmark experiment.

Every check reads the files an experiment wrote and returns a list of
problems; an empty list means the output is correct. Checks never raise: a
missing file or malformed JSON is a problem like any other. Tolerances are
those of tests/test_acceptance.py where that suite checks the same quantity,
and are not loosened.
"""
from __future__ import annotations

import json
import math
import os
from typing import Callable, Dict, List

HERMAN_FLOOR = math.log(3.0) - 0.05            # criterion 6, lambda = 3
RESONANT_VALUE = (2.0 / math.pi) * math.exp(-2.0 * math.pi)   # criterion 1


def _le_herman(out: dict, cfg: dict) -> List[str]:
    rows = out["rows"]
    probs = []
    if [r["N"] for r in rows] != cfg["params"]["N_list"]:
        probs.append(f"rows cover N={[r['N'] for r in rows]}")
    for r in rows:
        if not r["value"] >= HERMAN_FLOOR:
            probs.append(f"N={r['N']}: L'_N={r['value']} < ln 3 - 0.05")
        if r["excised_mass"] != 0:
            probs.append(f"N={r['N']}: excised_mass={r['excised_mass']}")
    return probs


def _le_renormalized(out: dict, cfg: dict) -> List[str]:
    probs = [] if out["renormalized"] is True else ["not renormalized"]
    return probs + [f"N={r['N']}: L_N={r['value']} < 0"
                    for r in out["rows"] if not r["value"] >= 0.0]


def _disc_resonant(out: dict, cfg: dict) -> List[str]:
    probs = [] if out["resonant"] is True else ["not flagged resonant"]
    return probs + [f"N={r['N']}: {r['value']} vs (2/pi)e^(-2pi)"
                    for r in out["rows"]
                    if not abs(r["value"] - RESONANT_VALUE) <= 1e-6]


def _disc_nonresonant(out: dict, cfg: dict) -> List[str]:
    probs = [] if out["resonant"] is False else ["flagged resonant"]
    vals = [r["value"] for r in out["rows"]]
    probs += [f"L'_N={v} > 1e-2" for v in vals if not v <= 1e-2]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        probs.append(f"not decreasing in N: {vals}")
    return probs


def _ladder_verified(out: dict, cfg: dict) -> List[str]:
    scales = out["ladder"]["scales"]
    est = out.get("verification", {}).get("estimates", {})
    if sorted(int(k) for k in est) != scales:
        return [f"verification estimates {sorted(est)} for scales {scales}"]
    return []


def _fourier_parseval(out: dict, cfg: dict) -> List[str]:
    lhs, rhs = out["parseval_lhs"], out["parseval_rhs"]
    # absolute 1e-10 (criterion 8) and relative 1e-10, whichever is tighter
    if not abs(lhs - rhs) <= 1e-10 * min(1.0, abs(rhs)):
        return [f"Parseval lhs={lhs} rhs={rhs}"]
    return []


def _ldt_monotone(out: dict, cfg: dict) -> List[str]:
    ests = sorted(out["estimates"], key=lambda e: e["threshold"])
    fr = [e["measured_fraction"] for e in ests]
    probs = [f"fraction {f} outside [0, 1]" for f in fr if not 0.0 <= f <= 1.0]
    if not all(b <= a for a, b in zip(fr, fr[1:])):
        probs.append(f"fractions increase with kappa: {fr}")
    return probs


def _ap_within(out: dict, cfg: dict) -> List[str]:
    """Every chain within the bound (criterion 5), and every chain run."""
    probs = [] if out["all_within"] is True else \
        [f"chains exceed the bound: worst={out['worst_ratio']}"]
    want = cfg["params"]["chains"]
    return probs + ([] if out["chains"] == want else [f"chains={out['chains']}"])


def _induction_halts(out: dict, cfg: dict) -> List[str]:
    halt = out["ladder"]["halt"]
    return [] if halt == "ScanTooLarge" else [f"halt={halt!r}"]


def _gate_scanned(out: dict, cfg: dict) -> List[str]:
    sd = out["gate"]["params"]["scan_delta"]
    ok = isinstance(sd, float) and math.isfinite(sd) and sd > 0.0
    return [] if ok else [f"scan_delta={sd!r}"]


CHECKS: Dict[str, Callable[[dict, dict], List[str]]] = {
    "le-amo": _le_herman,
    "le-amo-wide": _le_herman,
    "le-jacobi-renorm": _le_renormalized,
    "disc-resonant": _disc_resonant,
    "disc-nonresonant": _disc_nonresonant,
    "ladder-liouville-verify": _ladder_verified,
    "fourier-amo": _fourier_parseval,
    "ldt-schrodinger-2d": _ldt_monotone,
    "ap-interior": _ap_within,
    "ap-variant": _ap_within,
    "ladder-induction": _induction_halts,
    "gate-d1": _gate_scanned,
    "gate-d2": _gate_scanned,
    "gate-d3": _gate_scanned,
}


def check(label: str, cfg: dict, out_dir: str) -> List[str]:
    """Problems with the outputs one experiment wrote into out_dir."""
    name = cfg["experiment"]
    try:
        with open(os.path.join(out_dir, name + ".json"), encoding="utf-8") as fh:
            out = json.load(fh)
        if out.get("experiment") != name:
            return [f"{label}: JSON is for experiment {out.get('experiment')!r}"]
        return [f"{label}: {p}" for p in CHECKS[label](out, cfg)]
    except Exception as e:  # a malformed output is a failed check
        return [f"{label}: output unreadable or incomplete ({type(e).__name__}: {e})"]
