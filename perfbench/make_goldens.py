"""Rewrite goldens.json from the current code.

    python3 perfbench/make_goldens.py

Run it only when an output change is intended, and say which in CHANGES.md.
It refuses a homology golden that fails Gal's formula or the nonvanishing
check, and a CLI golden whose command exits nonzero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    out: dict = {"homology": {}, "cli": {}}
    hom = workloads.Homology()
    for item in hom.inputs(0):
        name, k, _ = item
        rep = hom.run(item)
        err = hom.verify(item, rep)
        if err:
            sys.stderr.write(err + "\n")
            return 1
        out["homology"][f"{name} k={k}"] = list(rep.betti.betti)
    for argv in workloads.cli_universe():
        code, stdout, stderr = workloads.run_cli(argv, (sys.executable, "-m", "gbtc.cli"))
        if code != 0:
            sys.stderr.write(f"{' '.join(argv)}: exit {code}: {stderr.decode()}\n")
            return 1
        size, digest = workloads.cli_digest(argv, stdout)
        out["cli"][" ".join(argv)] = {"bytes": size, "sha256": digest}
    workloads.GOLDENS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
