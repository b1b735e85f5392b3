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


def test_python_blocks_resolve_what_they_use_of_repro(tmp_path):
    """A fenced python block that calls a missing ``repro`` name is
    reported, even though it compiles; the real docs stay clean."""
    sys.path.insert(0, os.path.dirname(CHECKER))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    doc = tmp_path / "stale.md"
    doc.write_text("```python\nfrom repro import nn\n\n"
                   "with nn.use_compute_dtype('float32'):\n"
                   "    nn.no_such_knob()\n```\n")
    assert check_docs.check_docs([str(doc)]) == [
        f"{doc}: python block uses 'repro.nn.no_such_knob', which does "
        f"not resolve"]
    assert check_docs.check_docs() == []


def test_python_block_calls_pass_only_accepted_keywords(tmp_path):
    """A call to a ``repro`` callable with a keyword its signature does
    not take (a renamed or removed config field) is reported."""
    sys.path.insert(0, os.path.dirname(CHECKER))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    doc = tmp_path / "stale.md"
    doc.write_text("```python\nfrom repro.federated import FederatedConfig\n"
                   "from repro import nn\n\n"
                   "config = FederatedConfig(rounds=10, "
                   "exchange_dtype='float32')\n"
                   "nn.set_compute_dtype(dtype='float32')\n```\n")
    assert check_docs.check_docs([str(doc)]) == [
        f"{doc}: python block passes exchange_dtype= to "
        f"'repro.federated.FederatedConfig', which does not accept it"]


def test_readme_documents_tier1_command():
    """The README's verify command must be the ROADMAP's tier-1 command."""
    with open(os.path.join(REPO_ROOT, "README.md")) as handle:
        readme = handle.read()
    assert "python -m pytest -x -q" in readme


def test_performance_doc_covers_every_knob():
    """Each perf knob must be documented by its real, importable name."""
    with open(os.path.join(REPO_ROOT, "docs", "PERFORMANCE.md")) as handle:
        perf = handle.read()
    for knob in ("workers", "exchange_codec", "clear_batch_cache",
                 "build_for", "warm"):
        assert knob in perf, f"PERFORMANCE.md does not document {knob!r}"


def test_hot_path_switches_are_gone():
    """Fused kernels, sparse masks and packed decode are the only paths,
    and the ``"float32"`` exchange codec is the only float32 wire: no
    process-global switch, module, or per-task/per-request copy of one
    survives (the per-step, dense and padded paths are test oracles,
    see tests/reference_paths.py)."""
    import dataclasses
    import importlib

    from repro import nn, serving
    from repro.federated.runner import RoundTask

    names = ["get_default_dtype", "set_default_dtype", "use_default_dtype"]
    for kind in ("fused_kernels", "sparse_masks", "packed_decode"):
        names += [f"{kind}_enabled", f"set_{kind}", f"use_{kind}"]
    for name in names:
        assert not hasattr(nn, name), name
        assert name not in nn.__all__, name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.nn.fusion")
    fields = {f.name for f in dataclasses.fields(RoundTask)}
    assert not fields & {"fused_kernels", "sparse_masks", "packed_decode",
                         "exchange_dtype"}
    assert not hasattr(serving, "ServingFlags")
    assert "ServingFlags" not in serving.__all__


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
