"""Write perfbench/baseline.json: the record the benchmark is measured against.

    python3 perfbench/baseline.py [--seed 20261017]

Run from the root of a source checkout.  It records, for the baseline seed,
each workload's recipe, why-sentence, first-pass SEO digest and per-kind gate
counts (``run.py`` compares its digest with this one when given the same
seed), the two published gate-count bounds at nb = 6, and a one-off traced
``scale`` sweep: one Haar input each at nb = 5, 7 and 8, default options,
timing tree build, emission and program_to_matrix.  The sweep takes about a
minute; it is not a timed workload.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets BLAS threads before numpy is imported

SCALE_NBS = (5, 7, 8)
# Instruction and CNOT counts of one Haar input with default options.
ROADMAP_COUNTS = {5: (1664, 496), 7: (26624, 8128), 8: (106496, 32640)}
BOUND_NB = 6


def gate_bounds(nb: int) -> dict[str, float]:
    n4, n2 = 4 ** nb, 2 ** nb
    return {
        "nb": nb,
        "mottonen_quant-ph/0404089": n4 - 2 * n2,
        "qsd_quant-ph/0406176": 23 / 48 * n4 - 3 / 2 * n2 + 4 / 3,
    }


def scale_sweep(seed: int) -> list[dict]:
    import numpy as np
    import spans
    import workloads
    from csdc import compiler, matrices, seo
    rows = []
    for nb in SCALE_NBS:
        u = workloads.haar(np.random.default_rng([seed, nb]), 1 << nb)
        tracer = spans.Tracer()
        with tracer.installed():
            prog = compiler.compile_unitary(u)
            err = matrices.frobenius_distance(u, seo.program_to_matrix(prog))
        tot = tracer.totals()
        kinds = prog.count_by_kind()
        rows.append({
            "nb": nb,
            "build_tree_s": tot["compiler.build_tree"]["s"],
            "program_for_tree_s": tot["compiler.program_for_tree"]["s"],
            "program_to_matrix_s": tot["seo.program_to_matrix"]["s"],
            "instructions": len(prog),
            "cnot": kinds["CNOT"],
            "roundtrip_err": err,
            "matches_roadmap_counts": (len(prog), kinds["CNOT"]) == ROADMAP_COUNTS[nb],
        })
        print(json.dumps(rows[-1]), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261017)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    record = {"seed": args.seed, "gate_bounds": gate_bounds(BOUND_NB), "workloads": {}}
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="baseline-", dir=run.ROOT / ".perfbench_work")
    try:
        for name in workloads.NAMES:
            pool, _, _ = run.generate_inputs(name, args.seed, workdir, None)
            checker = run.Checker()
            run.measure(pool, 0.0, checker, None)   # exactly one pass
            if checker.failed:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
            record["workloads"][name] = {
                "why": workloads.WHY[name],
                "recipe": workloads.RECIPES[name],
                "digest": checker.digest.hexdigest(),
                "kinds": dict(sorted(checker.digest_kinds.items())),
            }
            print(name, record["workloads"][name]["digest"], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["scale"] = scale_sweep(args.seed)
    out = Path(run.HERE / "baseline.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {os.path.relpath(out)}")
    return 0 if all(r["matches_roadmap_counts"] for r in record["scale"]) else 1


if __name__ == "__main__":
    sys.exit(main())
