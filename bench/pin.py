"""Write ``expected.json``: the sha256 of every output the benchmark checks by
hash, taken from the program as it stands.

    python3 bench/pin.py

Exports and CLI output are meant to stay byte-identical, so re-pin only for a
change that alters an output on purpose, and say so where the change is
described.  Every pinned CLI command must exit 0.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    mods = workloads.load()
    records = mods.report.build_all_records()
    exports = {fmt: workloads.sha256(mods.report.export(records, fmt))
               for fmt in workloads.FORMATS}
    commands = [["list"], ["verify"]]
    commands += [["export", "--format", fmt] for fmt in workloads.FORMATS]
    for p in mods.catalog.enumerate_families():
        triple = [str(p.z_id), str(p.a), str(p.d)]
        commands += [["info", *triple], ["cones", *triple]]
    env = workloads.child_env()
    cli = {}
    for argv in commands:
        status, out, _ = workloads.run_child(["-m", "fano4.cli", *argv], env)
        if status != 0:
            print(f"fano4 {' '.join(argv)} exited {status}", file=sys.stderr)
            return 1
        cli[" ".join(argv)] = workloads.sha256(out)
    workloads.EXPECTED_PATH.write_text(
        json.dumps({"export": exports, "cli": cli}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
