import json
from pathlib import Path

import compare
import manifest

ROOT = Path(__file__).resolve().parent.parent.parent


def test_generated_manifest_obeys_the_contract():
    assert manifest.validate(manifest.build(), ROOT) == []


def test_committed_manifest_is_the_generated_one():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest.build()


def test_validate_catches_what_the_driver_would_refuse():
    def broken(**changes):
        doc = manifest.build()
        doc.update(changes)
        return manifest.validate(doc, ROOT)

    assert broken(paths=["no/such/dir"])
    assert broken(paths=["../perf"])
    assert broken(command=["python3", "/abs/run.py"])
    assert broken(run_seconds=0) and broken(run_seconds=61)
    assert broken(workloads=[{"name": "only", "why": "one"}])
    assert broken(end_to_end=[{"name": "latency", "unit": "ms",
                               "better": "lower", "bound": 0.1}])  # no setup_s
    assert broken(end_to_end=[{"name": "setup_s", "unit": "s",
                               "better": "lower", "bound": 0.3}])
    assert broken(per_layer=[{"name": "bad name", "unit": "ms",
                              "better": "lower"}])
    doc = manifest.build()
    doc["per_layer"].append(dict(doc["per_layer"][0]))
    assert any("more than once" in e for e in manifest.validate(doc, ROOT))


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "ok"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict(steady, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "ok"
    assert compare.verdict(slower, steady, "higher", 0.1)[0] == "regressed"
    noisy = [60, 140, 75, 125, 90, 110, 100, 70, 130, 100.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    word, ratio = compare.verdict(steady, slower, "lower", 0.25)
    assert word == "ok" and abs(ratio - 1.2) < 1e-9
