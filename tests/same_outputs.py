"""Check that two source trees give the same command-line outputs.

    python tests/same_outputs.py A B

A and B are checkouts of this repository (``.`` for this one). For each
fixture in ``tests/fixtures`` (this script's own copy, so both trees read
the same inputs), the script runs seven commands through
``python -m fleetcharge.cli``, each in a fresh process with one BLAS thread
and only the tree's ``src/`` on ``PYTHONPATH``. Tree A runs under
``PYTHONHASHSEED=1`` and tree B under ``PYTHONHASHSEED=2``, each in its own
temporary directory laid out the same way, so every relative path an
output records is the same. Run against itself, the check also shows that
no output depends on hash order.

For each command it compares the exit code, stdout, stderr and every file
left in the run directory, byte for byte, with only the ``"wall_time_s"``
values masked. It prints one line per command and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
WALL_TIME = re.compile(rb'"wall_time_s": [-+.0-9eE]+')


def commands(doc: dict) -> dict[str, list[str]]:
    """The commands run on a fixture, by label, given its JSON document."""
    last_type = doc["chargers"][-1]["id"]
    return {
        "solve": ["solve", "--out", "out"],
        "solve --amortize-objective": ["solve", "--amortize-objective", "--out", "out"],
        "solve --trace": ["solve", "--trace", "--out", "out"],
        "solve --dump-lp": ["solve", "--dump-lp", "--out", "out"],
        "sweep alpha x slack": ["sweep", "--alpha", "0.5,1", "--slack-min", "0,15,30",
                                "--out", "out"],
        "sweep codesign,fixed": ["sweep", "--alpha", "1", "--slack-min", "0",
                                 "--design", "codesign,fixed", "--fixed-file", "design.json",
                                 "--out", "out"],
        f"compare peak-cover:{last_type}": ["compare", "--policy", f"peak-cover:{last_type}",
                                            "--out", "out/compare.json"],
    }


def design(doc: dict) -> dict:
    """A fixed design for the fixture: two of its first charger type at its
    first location."""
    return {doc["locations"][0]: {str(doc["chargers"][0]["id"]): 2}}


def start(tree: Path, hash_seed: str, workdir: Path, fixture: Path, doc: dict,
          argv: list[str]) -> subprocess.Popen:
    """Lay out ``workdir`` and start one command in it."""
    workdir.mkdir(parents=True)
    shutil.copyfile(fixture, workdir / "scenario.json")
    (workdir / "design.json").write_text(json.dumps(design(doc)))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-m", "fleetcharge.cli", argv[0], "--scenario", "scenario.json",
         *argv[1:]], cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def outputs(process: subprocess.Popen, workdir: Path) -> dict[str, bytes]:
    """What a finished command left: its exit code, stdout, stderr and the
    files in its directory, keyed by name, with wall times masked."""
    try:
        stdout, stderr = process.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        process.kill()
        raise
    found = {"exit code": str(process.returncode).encode(), "stdout": stdout,
             "stderr": stderr}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            found[path.relative_to(workdir).as_posix()] = path.read_bytes()
    return {name: WALL_TIME.sub(b'"wall_time_s": *', data) for name, data in found.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first checkout")
    parser.add_argument("b", type=Path, help="second checkout")
    args = parser.parse_args(argv)
    trees = [args.a.resolve(), args.b.resolve()]
    for tree in trees:
        if not (tree / "src" / "fleetcharge" / "cli.py").is_file():
            parser.error(f"{tree} has no src/fleetcharge/cli.py")

    differing = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted(FIXTURES.glob("*.json")):
            doc = json.loads(fixture.read_text())
            for label, command in commands(doc).items():
                total += 1
                runs = []
                for side, tree, seed in (("a", trees[0], "1"), ("b", trees[1], "2")):
                    workdir = Path(tmp, side, str(total))
                    runs.append((start(tree, seed, workdir, fixture, doc, command), workdir))
                found_a, found_b = (outputs(process, workdir) for process, workdir in runs)
                diff = sorted(name for name in found_a.keys() | found_b.keys()
                              if found_a.get(name) != found_b.get(name))
                differing += bool(diff)
                verdict = "differ: " + ", ".join(diff) if diff else "same"
                print(f"{fixture.stem:16} {label:30} {verdict}", flush=True)
    print(f"{total - differing}/{total} command x fixture outputs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
