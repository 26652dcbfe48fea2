"""Digest every CLI subcommand on every example config.

Usage (from anywhere):

    python3 tools/cli_digests.py [--root CHECKOUT] [--against LISTING]

Runs each of the 8 subcommands on each ``examples_config/*.json`` file of
CHECKOUT (default: the checkout holding this script), 48 runs, as many at a
time as this process may use CPUs (``os.sched_getaffinity``), each in a
fresh temporary directory with CHECKOUT's ``src`` first on ``PYTHONPATH``.
Prints one line per run, in subcommand then config order whatever order
the runs end in: subcommand, config, exit code, then
the sha256 of stdout, of stderr and of every file the run wrote, in name
order. Two trees give the same artifacts, output and exit codes when the
outputs of this script on both are equal:

    python3 tools/cli_digests.py --root A > a.txt
    python3 tools/cli_digests.py --root B --against a.txt

With ``--against`` the script exits 1 when its lines differ from the saved
listing, naming the first line that differs on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SUBCOMMANDS = ("validate", "simulate", "arl", "calibrate", "lorden", "lowerbound",
               "converge", "compare")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(root: Path, subcommand: str, config: Path) -> str:
    """One line for one run: the config is copied into an empty directory,
    which is the working directory, and the run writes its artifacts to
    ``out`` there; every file in it but the config copy is hashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory(prefix="cli_digests_") as work:
        shutil.copy(config, os.path.join(work, config.name))
        proc = subprocess.run(
            [sys.executable, "-m", "levydetect.cli", subcommand,
             "--config", config.name, "--out", "out"],
            cwd=work, env=env, capture_output=True)
        written = sorted(p for p in Path(work).rglob("*")
                         if p.is_file() and p.name != config.name)
        files = [f"{p.relative_to(work).as_posix()}={_sha(p.read_bytes())}"
                 for p in written]
    return " ".join([subcommand, config.name, str(proc.returncode),
                     f"stdout={_sha(proc.stdout)}", f"stderr={_sha(proc.stderr)}", *files])


def digests(root: Path):
    """The listing lines of the 48 runs of ``root``, in run order."""
    configs = sorted((root / "examples_config").glob("*.json"))
    runs = [(subcommand, config) for subcommand in SUBCOMMANDS for config in configs]
    # each worker thread waits on one child process; map yields in run order
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        yield from pool.map(lambda run: digest_run(root, *run), runs)


def listing_main(description: str, root_help: str, lines_of, argv=None) -> int:
    """The command line of a listing tool: prints each line of
    ``lines_of(root)`` as it comes and, with ``--against``, exits 1 naming
    the first line that differs from the saved listing; a ``RuntimeError``
    from ``lines_of`` is printed and exits 1."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help=root_help)
    parser.add_argument("--against", type=Path,
                        help="saved listing that every line must match")
    args = parser.parse_args(argv)
    lines = []
    try:
        for line in lines_of(args.root.resolve()):
            lines.append(line)
            print(line, flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.against is None:
        return 0
    saved = args.against.read_text().splitlines()
    for n, (line, want) in enumerate(itertools.zip_longest(lines, saved), 1):
        if line != want:
            print(f"line {n} differs from {args.against}:\n  saved: {want}\n  run:   {line}",
                  file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    return listing_main(__doc__.splitlines()[0],
                        "checkout whose src and examples_config are run", digests, argv)


if __name__ == "__main__":
    sys.exit(main())
