"""Untimed records written next to the results: run, static code, behaviour.

None of these is gated.  The behaviour record is the "same behaviour"
evidence for refactors: the sha256 of the exact bytes each deterministic
CLI command writes.  The bytes are hashed rather than parsed because the
JSON output may contain ``NaN`` and ``Infinity``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import subprocess
import tempfile
from pathlib import Path

# criterion 12's command set (jobs pinned to 1), plus max-curves at its
# default alphas
CLI_COMMANDS = {
    "sweep": ["sweep-binary", "--alphas", "0.3,0.7", "--pstar-step", "0.01",
              "--resolution", "1e-4", "--seed", "5"],
    "many": ["many-outcome", "--n", "4", "--trials", "10", "--seed", "5", "--jobs", "1"],
    "regret": ["regret", "--env", "affine:p1=0.7,alpha=0.5", "--policy", "sgd",
               "--T", "2000", "--seed", "5"],
    "market": ["market", "--rule", "quadratic", "--env", "affine:p1=0.7,alpha=0.5",
               "--weights", "0.25,0.25,0.25,0.25", "--format", "json"],
    "stake": ["stake-profile", "--rule", "exp:K=28.3", "--lf", "1.0", "--epsilon", "0.05",
              "--pl", "0.25", "--ph", "0.75"],
    "max-curves": ["max-curves"],
}

# A dispatch site is a comparison or membership test on a ``kind`` field.
# Counted per occurrence over src/**/*.py.  At the seed commit the patterns
# give: "kind ==" 76, adding "kind !=" 77, adding "kind in (" 79 (78 lines,
# one line holds two sites); "kind not in" (1, a validity check) is excluded.
DISPATCH_PATTERN = r"\bkind (?:==|!=|in \()"


def static_record(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    text = [f.read_text() for f in files]
    return {
        "src_files": len(files),
        "src_lines": sum(t.count("\n") for t in text),
        "dispatch_pattern": DISPATCH_PATTERN,
        "dispatch_sites": sum(len(re.findall(DISPATCH_PATTERN, t)) for t in text),
    }


def behaviour_record(scratch: Path) -> dict:
    """sha256 of each CLI command's output file, via perfscore.cli.main."""
    from perfscore.cli import main

    scratch.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, argv in CLI_COMMANDS.items():
            path = Path(tmp) / f"{name}.out"
            code = main(argv + ["--out", str(path)])
            digests[name] = {
                "argv": argv,
                "exit": code,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest() if code == 0 else None,
            }
    return digests


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def run_record(root: Path, blas_variables) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": {name: os.environ.get(name) for name in blas_variables},
        "machine": platform.machine(),
    }
