"""Rewrite ``e2ebench/expected.json``: the committed row digests.

``table1`` and ``solver-deep`` have no committed golden of their own, so
the benchmark keeps one here: each row's status and time-masked digest
(:func:`repro.corpus.matrix.cell_digest`) from one pass at seed 0, for
the full and the ``--tiny`` inputs.  Run it from the root of a checkout,
after a change that is meant to move results, and commit the diff with
that change::

    python3 e2ebench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from e2ebench.run import ROOT, bootstrap  # noqa: E402


def main() -> int:
    bootstrap()
    from e2ebench.batch import run_pass
    from e2ebench.inputs import BATCH_INPUTS

    table = {}
    for workload in ("table1", "solver-deep"):
        for tiny in (False, True):
            one = run_pass(BATCH_INPUTS[workload](0, tiny))
            key = workload + ("-tiny" if tiny else "")
            table[key] = {name: {"status": row["status"],
                                 "digest": row["digest"]}
                          for name, row in one.rows.items()}
            print(f"{key}: {len(one.rows)} rows, {one.wall:.1f} s",
                  file=sys.stderr)
    path = os.path.join(ROOT, "e2ebench", "expected.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
