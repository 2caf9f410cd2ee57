#!/usr/bin/env python3
"""Regenerate the committed reference outputs in perfbench/reference/.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/make_reference.py

It runs the reference operation of sweep_grid (at --threads 1) and every
seminorm_zoo operation through the CLI and copies their tables here.
"""

import csv
import shutil
import tempfile
from pathlib import Path

import run
import workloads as wl


def run_op(cli, op, directory):
    code, out, _ = wl.run_op(cli, op, directory)
    if code != 0:
        raise SystemExit("make_reference: %s exited with %d" % (op.command, code))
    return out


def main():
    cli = run.load_fracreg().cli
    full = wl.workloads("full")
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        out = run_op(cli, full["sweep_grid"].make_op(wl.REFERENCE_SEED, 0),
                     Path(tmp) / "sweep")
        shutil.copyfile(out / "records.csv", wl.REFERENCE_DIR / "sweep_grid.csv")

        with open(wl.REFERENCE_DIR / "seminorm_zoo.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["truth", "s", "value", "diverged"])
            for index, truth in enumerate(wl.SEMINORM_TRUTHS):
                op = full["seminorm_zoo"].make_op(wl.REFERENCE_SEED, index)
                out = run_op(cli, op, Path(tmp) / truth)
                with open(out / "seminorm.csv", newline="") as src:
                    for row in csv.DictReader(src):
                        writer.writerow([truth, row["s"], row["value"], row["diverged"]])


if __name__ == "__main__":
    main()
