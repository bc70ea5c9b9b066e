"""``run.py compare A.jsonl B.jsonl``: two sets of runs, side by side.

One row per end-to-end metric x workload: both medians and quartiles,
B/A with its base, the fixed bound, and a verdict —

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  either side's own run-to-run spread (interquartile
                distance / median) is wider than the bound, so the runs
                cannot tell — fix the bound or the sample count.

Input files are what ``run.py --json-out`` appends: one object per run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats
from manifest import END_TO_END, UNGATED, WORKLOADS


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs in ``path``."""
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            for name, metric in run["result"]["metrics"].items():
                out[(run["workload"], name)].append(metric["value"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[str, float]:
    """(verdict, B/A ratio of medians)."""
    med_a, med_b = stats.median(a), stats.median(b)
    ratio = med_b / med_a if med_a else float("inf")
    if len(a) < 2 or len(b) < 2 \
            or stats.spread(a) > bound or stats.spread(b) > bound:
        return "unresolved", ratio
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ("regressed" if worse > bound else "ok"), ratio


def rows(a_runs, b_runs) -> list[dict]:
    out = []
    for workload in (*WORKLOADS, *UNGATED):
        for name, unit, better, bound in END_TO_END:
            a = a_runs.get((workload, name), [])
            b = b_runs.get((workload, name), [])
            if workload in UNGATED and not a and not b:
                continue
            if not a or not b:
                out.append({"workload": workload, "metric": name,
                            "verdict": "unresolved", "missing": True})
                continue
            word, ratio = verdict(a, b, better, bound)
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            out.append({
                "workload": workload, "metric": name, "unit": unit,
                "n": (len(a), len(b)), "a": qa, "b": qb, "ratio": ratio,
                "spread": (stats.spread(a), stats.spread(b)),
                "bound": bound, "verdict": word})
    return out


def render(table: list[dict]) -> str:
    """A GitHub-markdown table (it is committed to README.md)."""
    lines = [
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | "
        "B/A (base A) | spread A / B | bound | verdict |",
        "|---|---|---|---|---|---|---|---|"]
    for row in table:
        if row.get("missing"):
            lines.append(f"| {row['workload']} | {row['metric']} | - | - "
                         f"| - | - | - | unresolved (no runs) |")
            continue
        (a1, a2, a3), (b1, b2, b3) = row["a"], row["b"]
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) "
            f"| {a2:.4g} [{a1:.4g}, {a3:.4g}] "
            f"| {b2:.4g} [{b1:.4g}, {b3:.4g}] "
            f"| {row['ratio']:.3f} (A = {a2:.4g}) "
            f"| {100 * row['spread'][0]:.1f}% / "
            f"{100 * row['spread'][1]:.1f}% "
            f"| {100 * row['bound']:.0f}% | {row['verdict']} |")
    return "\n".join(lines)


def main(a_path: Path, b_path: Path) -> int:
    table = rows(load(a_path), load(b_path))
    print(render(table))
    bad = [r for r in table if r["verdict"] != "ok"]
    print(f"\n{len(table) - len(bad)} ok, "
          f"{sum(r['verdict'] == 'regressed' for r in bad)} regressed, "
          f"{sum(r['verdict'] == 'unresolved' for r in bad)} unresolved",
          file=sys.stderr)
    return 1 if bad else 0
