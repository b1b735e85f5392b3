"""Docs-check: documented commands, paths, and references must resolve.

Runs ``tools/check_docs.py`` (the same script CI or a human can run
directly) as part of the tier-1 suite, so README.md and
docs/PERFORMANCE.md cannot drift from the code they describe.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_docs.py")


def test_docs_exist():
    assert os.path.exists(os.path.join(REPO_ROOT, "README.md"))
    assert os.path.exists(os.path.join(REPO_ROOT, "docs", "PERFORMANCE.md"))
    assert os.path.exists(os.path.join(REPO_ROOT, "docs", "ROBUSTNESS.md"))


def test_docs_check_passes():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, CHECKER], capture_output=True, text=True, env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"docs-check failed:\n{result.stdout}\n{result.stderr}"
    )


def test_readme_documents_tier1_command():
    """The README's verify command must be the ROADMAP's tier-1 command."""
    with open(os.path.join(REPO_ROOT, "README.md")) as handle:
        readme = handle.read()
    assert "python -m pytest -x -q" in readme


def test_performance_doc_covers_every_knob():
    """Each perf knob must be documented by its real, importable name."""
    with open(os.path.join(REPO_ROOT, "docs", "PERFORMANCE.md")) as handle:
        perf = handle.read()
    for knob in ("workers", "set_default_dtype", "clear_batch_cache",
                 "build_for", "warm"):
        assert knob in perf, f"PERFORMANCE.md does not document {knob!r}"


def test_hot_path_switches_are_gone():
    """Fused kernels, sparse masks and packed decode are the only paths:
    no process-global switch, module, or per-task/per-request copy of
    one survives (the per-step, dense and padded paths are test oracles,
    see tests/reference_paths.py)."""
    import dataclasses
    import importlib

    from repro import nn
    from repro.federated.runner import RoundTask
    from repro.serving import ServingFlags

    for kind in ("fused_kernels", "sparse_masks", "packed_decode"):
        for name in (f"{kind}_enabled", f"set_{kind}", f"use_{kind}"):
            assert not hasattr(nn, name), name
            assert name not in nn.__all__, name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.nn.fusion")
    for cls in (RoundTask, ServingFlags):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not fields & {"fused_kernels", "sparse_masks",
                             "packed_decode"}, cls
    assert {f.name for f in dataclasses.fields(ServingFlags)} == {
        "exchange_dtype", "compute_dtype"}


def test_robustness_doc_covers_every_knob():
    """Each fault-tolerance knob must be documented by its real name."""
    with open(os.path.join(REPO_ROOT, "docs", "ROBUSTNESS.md")) as handle:
        doc = handle.read()
    for knob in ("fault_plan", "task_retries", "task_deadline", "task_backoff",
                 "min_clients_per_round", "max_upload_norm", "checkpoint_every",
                 "checkpoint_dir", "resume_from", "validate_upload",
                 "REPRO_FAULT_PLAN", "fault_free", "FaultPlan",
                 "FederatedCheckpoint", "latest_checkpoint"):
        assert knob in doc, f"ROBUSTNESS.md does not document {knob!r}"
