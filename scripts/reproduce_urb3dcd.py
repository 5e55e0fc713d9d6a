#!/usr/bin/env python3
"""Ordering check against the Urb3DCD building-change benchmark.

The benchmark's absolute IoU numbers depend on the external dataset, which
is not bundled here; run with no arguments, this script prints these
instructions and exits cleanly. With a prepared dataset it runs, per
sub-dataset, `otcd sweep` with balanced and with unbalanced OT and verifies
the ordering claim: unbalanced OT beats balanced OT on every sub-dataset.

Expected layout (convert the distributed point clouds to the plain ASCII
formats this toolkit reads; labels on the later epoch use 0=unchanged,
1=new, 2=demolished):

    <data-root>/
        <sub-dataset-name>/
            t0.xyz            earlier epoch, "x y z" per line
            t1.xyz            later epoch,  "x y z label" per line

Every flag but --data-root and -o goes unchanged to each `otcd sweep` run
(see `otcd sweep --help` for those flags and their defaults); the script
sets --t0, --t1, --method, --dataset and -o of the runs itself.

Exit codes: 0 ordering holds (or no arguments were given), 1 ordering
violated, 2 --data-root is not a directory, other flags were given without
--data-root, a sweep failed with a usage or data error (its message is
printed) or no sub-dataset is usable, 3 --strict was passed and a chunk did
not converge.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from otcd.cli import EXIT_DATA, EXIT_OK, EXIT_STRICT, run


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="Any other flag is passed to otcd sweep.",
        allow_abbrev=False,
    )
    parser.add_argument("--data-root", default=None, help="prepared dataset root")
    parser.add_argument("-o", "--output", default=None, help="report JSON path")
    args, sweep_flags = parser.parse_known_args(argv)
    if args.data_root is None:
        if args.output is None and not sweep_flags:
            print(__doc__)
            print("no dataset given; nothing to do")
            return EXIT_OK
        print("error: --data-root is required when other flags are given",
              file=sys.stderr)
        return EXIT_DATA
    if not Path(args.data_root).is_dir():
        print(f"error: --data-root {args.data_root}: not a directory", file=sys.stderr)
        return EXIT_DATA
    rows = []
    with tempfile.TemporaryDirectory() as work:
        out = str(Path(work) / "sweep.json")
        for sub in sorted(p for p in Path(args.data_root).iterdir() if p.is_dir()):
            t0_path, t1_path = sub / "t0.xyz", sub / "t1.xyz"
            if not (t0_path.exists() and t1_path.exists()):
                print(f"skipping {sub.name}: missing t0.xyz / t1.xyz", file=sys.stderr)
                continue
            row = {"dataset": sub.name}
            for method in ("ot", "uot"):
                code = run(["sweep", *sweep_flags, "--t0", str(t0_path),
                            "--t1", str(t1_path), "--method", method,
                            "--dataset", sub.name, "-o", out])
                if code != EXIT_OK:
                    print(f"{sub.name}: otcd sweep --method {method} exited {code}",
                          file=sys.stderr)
                    return EXIT_STRICT if code == EXIT_STRICT else EXIT_DATA
                row[method] = json.loads(Path(out).read_text())["mean_change_iou"]
            row["uot_wins"] = row["uot"] > row["ot"]
            rows.append(row)
            print(f"{sub.name:30s} OT {row['ot']:.4f}  UOT {row['uot']:.4f}  "
                  f"{'ok' if row['uot_wins'] else 'ORDERING VIOLATED'}")
    if not rows:
        print("dataset root contains no usable sub-datasets", file=sys.stderr)
        return EXIT_DATA
    if args.output:
        Path(args.output).write_text(json.dumps(rows, indent=2) + "\n")
    return 0 if all(row["uot_wins"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
