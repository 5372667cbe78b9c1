"""Meta-test: the shipped tree must lint clean against its baseline.

This runs the full repro-lint pass in-process, so tier-1 guards the
concurrency/determinism invariants even if the CI lint
job's configuration drifts.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean_against_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    report = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
    assert report.parse_errors == []
    assert report.new == [], "\n".join(str(f) for f in report.new)


def test_tree_is_clean_under_the_flow_pass_too():
    # Same contract as CI: syntactic + RPL01x flow rules over src and
    # benchmarks, zero new findings.
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
        baseline=baseline,
        flow=True,
    )
    assert report.flow
    assert report.parse_errors == []
    assert report.new == [], "\n".join(str(f) for f in report.new)


def test_baseline_has_not_gone_stale():
    # Every baseline entry must still match a real finding: once a
    # grandfathered site is fixed, its entry comes out of the file so
    # the ratchet can never silently loosen again.
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    report = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
    total_grandfathered = sum(entry.count for entry in baseline.entries)
    assert len(report.baselined) == total_grandfathered, (
        "baseline entries no longer matched by findings — ratchet them out"
    )


def test_every_baseline_entry_carries_a_justification():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    for entry in baseline.entries:
        assert entry.note, f"{entry.file}:{entry.rule} needs a note saying why"
