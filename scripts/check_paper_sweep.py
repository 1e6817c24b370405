"""Rerun the paper sweep and compare its CSVs with tests/golden/paper_sweep.sha256.

From the root of a checkout:

    PYTHONPATH=src python scripts/check_paper_sweep.py [--out-dir DIR]

runs ``mdpreg sweep --replications 5000 --workers 2`` (the 15 presets at the
default seed 1729) into DIR, or into a temporary directory, and exits 0 when
every preset's CSV has the SHA-256 of its line in the golden file. It exits 1,
naming each preset whose CSV is missing or has other bytes, when any differs.
The run takes 2-3 minutes on two CPUs with OpenBLAS on one thread. The
digests are those of the sweep recorded in BENCH_22.json; the CSV bytes depend
on LAPACK's last bits, so another numpy or BLAS may move them, which is a
finding to write up, not a digest to replace.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from mdpreg import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "paper_sweep.sha256"
SWEEP = ["sweep", "--replications", "5000", "--workers", "2"]


def differing(out_dir) -> list[str]:
    """The golden presets whose CSV in ``out_dir`` is missing or has other bytes."""
    want = dict(line.split() for line in GOLDEN.read_text(encoding="utf-8").splitlines())
    paths = {name: Path(out_dir) / f"{name}.csv" for name in want}
    return [name for name, path in paths.items()
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != want[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", help="write the CSVs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = args.out_dir or tmp
        code = cli.main(SWEEP + ["--out-dir", out_dir])
        bad = differing(out_dir) if code == 0 else []
    for name in bad:
        print(f"differs from its golden digest: {name}", file=sys.stderr)
    if code == 0 and not bad:
        print(f"all presets of {GOLDEN.name} match")
    return code or (1 if bad else 0)


if __name__ == "__main__":
    sys.exit(main())
