"""Run the Tier-1 workflow's shell steps locally, without installing anything.

    python tools/run_workflow.py

Every ``run:`` step of ``.github/workflows/tier1.yml`` runs from the
repository root under ``bash --noprofile --norc -eo pipefail``, except the
install step and the pytest step.  A ``cliffcent`` shim, ``PYTHONPATH=src
python -m cliffcent``, stands in for the installed console script.  The
steps before the install step expect a bare interpreter, so each runs once
on every ``python3.10``, ``python3.12`` and ``python3.13`` on PATH that
starts but cannot import numpy; the steps after it run on the interpreter
running this script.

Prints each step's name and exit code.  Exits 0 if every step passes, 1 if
any fails or a bare step finds no interpreter to run on, and 2 if PyYAML is
missing or the workflow has no install step.  PyYAML is not a dependency of
the package, so it is imported here only.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")
BARE_CANDIDATES = ("python3.10", "python3.12", "python3.13")
BASH = ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c"]


def _steps():
    """The (name, script) of every run step of every job, in order."""
    import yaml

    with open(WORKFLOW, encoding="utf-8") as handle:
        workflow = yaml.safe_load(handle)
    steps = []
    for job in (workflow or {}).get("jobs", {}).values():
        for step in job.get("steps", []):
            if "run" in step:
                steps.append((step.get("name", step["run"].splitlines()[0]),
                              step["run"]))
    return steps


def _bare_interpreters():
    """(name, path) of each candidate on PATH that starts but cannot import
    numpy.  A pyenv shim of a version that is not selected does not start."""
    found = []
    for command in BARE_CANDIDATES:
        if shutil.which(command) is None:
            continue
        probe = subprocess.run(
            [command, "-c", "import sys; print(sys.executable); import numpy"],
            capture_output=True, text=True, timeout=60)
        path = probe.stdout.strip()
        if probe.returncode != 0 and path:
            found.append((command, path))
    return found


def _shims(directory, python):
    """Write ``python`` and ``cliffcent`` into ``directory``."""
    src = os.path.join(ROOT, "src")
    for name, body in (
            ("python", f'exec "{python}" "$@"'),
            ("cliffcent", f'PYTHONPATH="{src}" exec python -m cliffcent "$@"')):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"#!/bin/bash\n{body}\n")
        os.chmod(path, 0o755)


def _run(name, script, python):
    """Run one step with ``python`` first on PATH; print and return its code."""
    with tempfile.TemporaryDirectory(prefix="run-workflow-") as shims:
        _shims(shims, python)
        # the package is importable from src, as the install step makes it
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PATH=shims + os.pathsep + os.environ.get("PATH", ""))
        code = subprocess.run(BASH + [script], cwd=ROOT, env=env).returncode
    print(f"exit {code}: {name}", flush=True)
    return code


def main():
    try:
        steps = _steps()
    except ImportError:
        print("run_workflow: PyYAML is needed to read the workflow", file=sys.stderr)
        return 2
    installs = [i for i, (_, script) in enumerate(steps) if "pip install" in script]
    if not installs:
        print(f"run_workflow: no install step in {WORKFLOW}", file=sys.stderr)
        return 2
    bare = _bare_interpreters()
    failed = 0
    for i, (name, script) in enumerate(steps):
        if i in installs or "pytest" in script:
            print(f"skipped: {name}", flush=True)
        elif i < installs[0]:
            if not bare:
                print(f"no interpreter without numpy: {name}", flush=True)
                failed += 1
            for command, path in bare:
                failed += _run(f"{name} ({command})", script, path) != 0
        else:
            failed += _run(name, script, sys.executable) != 0
    print(f"{'FAIL' if failed else 'PASS'}: {failed} failed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
