"""Run every pinned CLI run of tests/fixtures/runs.json; exit 1 naming each
mismatch. Standard library only: `python tools/fixture_runs.py`.

An entry gives its name, argv, exit status, the file its stdout must equal
byte for byte or null, substrings its stderr must and must not hold, and why
it is pinned; paths are relative to the repository root. Each entry runs as
`python -X dev -W error -m vocab_lint.cli ARGV`, with this checkout's src as
PYTHONPATH and no bytecode written, in the checkout and in a temporary copy
of tests/fixtures whose line ends are all "\\r\\n", where it must print the
same bytes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path("tests", "fixtures")
FIELDS = {"name", "argv", "exit", "stdout", "stderr_has", "stderr_lacks", "why"}


def run_module(argv: list[str], cwd: Path) -> tuple[int, bytes, str]:
    """The invoker: the exit status, stdout and stderr of one run in cwd."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "vocab_lint.cli",
                           *argv], cwd=cwd, env=env, capture_output=True, check=False)
    return done.returncode, done.stdout, done.stderr.decode("utf-8", "replace")


def load(root: Path) -> list[dict]:
    entries = json.loads((root / FIXTURES / "runs.json").read_text(encoding="utf-8"))
    for number, entry in enumerate(entries):
        if set(entry) != FIELDS:
            raise ValueError(f"runs.json entry {number}: fields must be {sorted(FIELDS)}")
    return entries


def crlf_copy(root: Path, dest: Path) -> Path:
    """Copy root's tests/fixtures under dest with each "\\n" written as "\\r\\n"."""
    shutil.copytree(root / FIXTURES, dest / FIXTURES)
    for path in (dest / FIXTURES).rglob("*"):
        if path.is_file():
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return dest


def mismatches(entry: dict, root: Path, crlf: Path, invoke=run_module) -> list[str]:
    """How the entry's runs in root and in its CRLF copy miss what it expects."""
    found = []
    for where, cwd in ((entry["name"], root), (f"{entry['name']} (CRLF)", crlf)):
        code, out, err = invoke(entry["argv"], cwd)
        if code != entry["exit"]:
            found.append(f"{where}: exit status {code}, expected {entry['exit']}")
        if entry["stdout"] is not None and out != (root / entry["stdout"]).read_bytes():
            found.append(f"{where}: stdout differs from {entry['stdout']}")
        found += [f"{where}: stderr lacks {s!r}" for s in entry["stderr_has"] if s not in err]
        found += [f"{where}: stderr holds {s!r}" for s in entry["stderr_lacks"] if s in err]
    return found


def check(root: Path, invoke=run_module) -> list[str]:
    """Every mismatch of every entry of root's manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        crlf = crlf_copy(root, Path(tmp))
        return [line for entry in load(root) for line in mismatches(entry, root, crlf, invoke)]


if __name__ == "__main__":
    found = check(ROOT)
    print("\n".join(found + [f"{len(found)} mismatch(es) in the pinned runs"]))
    sys.exit(1 if found else 0)
