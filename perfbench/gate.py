"""Correctness gate: a run passes when it raises nothing, every one of its
`checks` is true, and, when its config is stored in reference.json, its
result values match the stored ones.

Result values are the numeric and string leaves of summary.json plus the
constants of sweep.csv. The L2 and sup constants are exact quantities and
get RTOL_EXACT. The L1 constant is an iteratively reweighted estimate whose
path moves with round-off (2e-6 between one and two BLAS threads), so it and
its fit get RTOL_ESTIMATE. Every other value gets RTOL. ATOL absorbs values
at round-off level (eigen residuals, terminal deficits), which move with the
BLAS thread count and carry no meaning below it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL_EXACT = 1e-9
RTOL_ESTIMATE = 1e-4
RTOL = 1e-6
ATOL = 1e-9
EXACT_NORMS = ("l2", "sup")
NOT_VALUES = ("checks", "all_checks_pass", "artifact_version", "config_hash")
REFERENCE = Path(__file__).with_name("reference.json")


def config_hash(cfg: dict) -> str:
    """The hash heatlab stores in summary.json, computed independently."""
    import hashlib
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _flatten(prefix, node, out):
    if isinstance(node, dict):
        for key, val in node.items():
            _flatten(f"{prefix}.{key}" if prefix else key, val, out)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _flatten(f"{prefix}[{i}]", val, out)
    else:
        out[prefix] = node


def result_values(summary: dict, out_dir: Path) -> dict:
    vals = {}
    _flatten("", {k: v for k, v in summary.items() if k not in NOT_VALUES}, vals)
    sweep = Path(out_dir) / "sweep.csv"
    if sweep.exists():
        with open(sweep, newline="") as fh:
            for row in csv.DictReader(fh):
                vals[f"sweep.{row['norm']}@{row['lambda']}"] = float(row["constant"])
    return vals


def _tolerance(key: str) -> float:
    if key.startswith("sweep.") and key[6:].split("@")[0] in EXACT_NORMS:
        return RTOL_EXACT
    if key.startswith(("sweep.l1@", "fits.l1.")):
        return RTOL_ESTIMATE
    return RTOL


def mismatches(values: dict, expected: dict) -> list:
    """Keys whose value leaves the reference, with both values."""
    bad = []
    for key in sorted(set(values) | set(expected)):
        got, want = values.get(key), expected.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)) \
                and not isinstance(got, bool):
            if math.isfinite(want) and math.isfinite(got):
                ok = abs(got - want) <= _tolerance(key) * abs(want) + ATOL
            else:
                ok = got == want or (math.isnan(got) and math.isnan(want))
        else:
            ok = got == want
        if not ok:
            bad.append((key, got, want))
    return bad


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["runs"]


def csv_differences(dir_a: Path, dir_b: Path) -> list:
    """Names of CSV files that are not byte-identical between two run outputs."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in Path(d).glob("*.csv")})
    return [n for n in names
            if not ((Path(dir_a) / n).exists() and (Path(dir_b) / n).exists()
                    and (Path(dir_a) / n).read_bytes() == (Path(dir_b) / n).read_bytes())]
