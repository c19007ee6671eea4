"""The corpus command of ``tests/corpus.py`` on a slice small enough for
tier 1: its records repeat from run to run, hold what they claim, and the
diff sorts each change into its verdict."""
import hashlib

import numpy as np

from csdc import CompileOptions, compile_unitary, program_to_matrix, serialize

import corpus


def test_two_runs_give_equal_records():
    first = {r["case"]: (r, a) for r, a in corpus.records(max_nb=2)}
    second = list(corpus.records(max_nb=1))   # its cases are the nb = 1 ones of the first
    assert [r for r, _ in second] == [first[r["case"]][0] for r, _ in second]
    assert all(np.array_equal(a, first[r["case"]][1]) for r, a in second)
    assert len(second) == 16 * 10   # every family but the three tensor ones
    records = {case: r for case, (r, _) in first.items()}
    names = {case.split()[0] for case in records}
    assert {"haar-n2", "controlled-n2", "near-0.5x-n1", "near-2x-n2", "dim3"} <= names
    assert len(records) == 16 * len(names)   # nb <= 3: 8 settings, twice with the search
    assert records["near-2x-n2 lighten=on extract=on expand=off search=none"]["reject"] \
        .startswith("NotUnitaryError: input is not unitary")
    got = records["dim3 lighten=off extract=on expand=on search=root-exhaustive"]
    u = dict(corpus.inputs(max_nb=2))["dim3"]
    program = compile_unitary(u, CompileOptions(lighten=False, expand_controls=True,
                                                perm_search="root-exhaustive"))
    assert got["sha256"] == hashlib.sha256(serialize(program).encode()).hexdigest()
    assert sum(got["counts"].values()) == len(program) and got["max_error"] < 1e-12
    assert got["matrix"] == hashlib.sha256(program_to_matrix(program).tobytes()).hexdigest()


def test_verdicts():
    old = {"sha256": "a", "skeleton": "s", "counts": {"ROTY": 2}, "two_qubit_gates": 0,
           "matrix": "m", "max_error": 1e-15}
    angles = np.array([10.0, -179.5])
    assert corpus.verdict(old, dict(old), angles, angles) == ("identical", "", 0.0)
    rebuilt = {**old, "matrix": "n", "max_error": 2e-15}
    assert corpus.verdict(old, rebuilt, angles, angles) \
        == ("changed matrix", "max error 1e-15 -> 2e-15", 0.0)
    moved = {**old, "sha256": "b"}
    kind, _, change = corpus.verdict(old, moved, angles, np.array([10.25, 180.0]))
    assert (kind, change) == ("same skeleton", 0.5)   # angles compared modulo 360
    assert corpus.verdict(old, {**moved, "skeleton": "t"})[0] == "changed counts"
    assert corpus.verdict(old, {**moved, "skeleton": "t", "two_qubit_gates": 1})[0] \
        == "changed counts"
    reject = {"reject": "NotUnitaryError: input is not unitary"}
    assert corpus.verdict(reject, dict(reject))[0] == "identical"
    assert corpus.verdict(reject, old)[0] == "changed counts"
