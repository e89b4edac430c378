"""Write reference.json: closed-form E0, E1 and delta_e for every input a workload can draw.

Run from the root of the repository:

    python3 perfbench/make_reference.py

The table was generated once and is kept with the benchmark, which compares
every op's output against it. Regenerate it only when the closed form itself
is meant to change.
"""

from __future__ import annotations

import json
import sys

from run import import_library
from workloads import EXACT_B, FLOAT_B, L_SET, MAX_ORDER, REFERENCE_PATH, Config, reference_entry


def main() -> int:
    lib = import_library()
    table = {}
    for family in (1, 2):
        for m in range(1, MAX_ORDER + 1):
            for L in L_SET:
                for B in EXACT_B + FLOAT_B:
                    cfg = Config(family, m, L, B)
                    sol = lib.twostate.general_two_state(family, m, L, B, cfg.lam)
                    table[cfg.key] = reference_entry(sol)
    rows = ",\n".join(f"{json.dumps(key)}: {json.dumps(row)}" for key, row in table.items())
    REFERENCE_PATH.write_text("{\n" + rows + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
