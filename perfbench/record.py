"""Record the outputs that worker.py compares against (expected.json).

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root at the commit whose outputs are the reference
(they were recorded at the commit that added this benchmark).  It stores a
digest of `enumerate_all(M)` for every cutoff the enumerate workload can
draw, a digest of the decomposition and refinement of every fusion target,
the six screen results and the quantum-group table.  Rerun it only when a
change of output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from artifact import fusion, quadring

import run
import worker


def main() -> int:
    expected = {"enumerate": {}, "fusion": {}, "screen": {}}
    for k in run.ENUMERATE_TENTHS:
        cutoff = str(Fraction(k, 10))
        expected["enumerate"][cutoff] = worker.digest(worker.enumerate_text(cutoff))
    targets, _ = run.fusion_targets()
    for target in sorted(targets):
        scan = fusion.decompose_global_dim(*target)
        profiles = [fusion.refine_simple_dims(s, apply_modular_filter=True)
                    for s in scan.solutions]
        key = ",".join(map(str, target))
        expected["fusion"][key] = worker.digest(worker.fusion_text(scan, profiles))
    for target in run.SCREEN_TARGETS:
        hits = fusion.kronecker_screen(quadring.make(*target))
        expected["screen"][",".join(map(str, target))] = [list(h) for h in hits]
    expected["table"] = [[r.label(), r.N, r.value.p, r.value.q]
                         for r in fusion.quantum_group_table()]
    (worker.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{len(expected['enumerate'])} cutoffs, {len(expected['fusion'])} targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
