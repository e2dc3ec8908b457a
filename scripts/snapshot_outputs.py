"""Record the outputs of a fixed set of dynres commands, one file each.

Every file holds the command line, its stdout, its stderr and its exit
code.  Nothing written depends on the output directory or on timing:
the commands run with DIR as the working directory, so a ``--report``
path is relative to it, and the ``verify`` report is rewritten without
its ``wall_clock`` and ``check_wall_clock`` keys, its only timings, so
that its verdicts, parameters, witnesses and residuals are compared
like everything else.
Snapshots of two checkouts then compare with

    python3 scripts/snapshot_outputs.py A     # in the first checkout
    python3 scripts/snapshot_outputs.py B     # in the second
    diff -r A B                               # empty when nothing changed

The package under test is the ``src`` directory next to this script.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

TABLE_PAIRS = [("unicritical", 2), ("unicritical", 3),
               ("linearterm", 1), ("linearterm", 2), ("linearterm", 3),
               ("shifted", 1), ("shifted", 2), ("shifted", 3),
               ("quadcrit", 1), ("quadcrit", 2), ("quadcrit", 3)]

VERIFY_REPORT = "verify-report.json"


def commands() -> list[tuple[str, list[str]]]:
    """(file name, dynres arguments) of every recorded command."""
    out = [("verify", ["verify", "--report", VERIFY_REPORT])]
    for d in range(2, 10):
        out.append(("parabolic-d%d" % d, ["parabolic", "--d", str(d)]))
    for d in range(2, 6):
        name = "parabolic-d%d-report" % d
        out.append((name, ["parabolic", "--d", str(d),
                           "--report", name + ".json"]))
    out.append(("parabolic-c-3_2", ["parabolic", "--c=-3/2"]))
    out.append(("parabolic-logistic-3", ["parabolic", "--logistic", "3"]))
    for kind, d in TABLE_PAIRS:
        for m in (1, 2, 3):
            base = ["table", "--family", kind, "--d", str(d), "--m", str(m)]
            stem = "table-%s-d%d-m%d" % (kind, d, m)
            out.append((stem, base))
            out.append((stem + "-rescaled", base + ["--rescaled"]))
            out.append((stem + "-resultant4-csv",
                        base + ["--resultant", "4", "--format", "csv"]))
    out.append(("polygon-d2", ["polygon", "--d", "2"]))
    out.append(("polygon-d3", ["polygon", "--d", "3"]))
    out.append(("polygon-shifted-d2",
                ["polygon", "--family", "shifted", "--d", "2"]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: snapshot_outputs.py DIR", file=sys.stderr)
        return 2
    target = pathlib.Path(argv[0])
    target.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, args in commands():
        proc = subprocess.run([sys.executable, "-m", "dynres"] + args,
                              cwd=target, env=env, capture_output=True,
                              text=True)
        (target / (name + ".txt")).write_text(
            "$ dynres %s\n--- stdout\n%s--- stderr\n%s--- exit %d\n"
            % (" ".join(args), proc.stdout, proc.stderr, proc.returncode))
    report = target / VERIFY_REPORT
    if report.exists():
        doc = json.loads(report.read_text())
        for key in ("wall_clock", "check_wall_clock"):
            doc.pop(key, None)      # an older verify writes no check times
        report.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
