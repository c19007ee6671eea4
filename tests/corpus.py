"""One fixed-seed compile corpus, and a diff of its outputs against another commit.

    PYTHONPATH=src python tests/corpus.py                   # records as JSON lines
    PYTHONPATH=src python tests/corpus.py --against HEAD~1  # diff against a commit

The corpus holds, at nb 1-8: Haar, real orthogonal, DFT, bit-reversed QFT,
Hadamard, permutation, phased permutation and diagonal inputs; U⊗I, I⊗U
and controlled-U from nb 2; Haar inputs of the non-power-of-two dimensions
3, 5, 6 and 24; and Haar inputs with one column scaled so that UᴴU misses
I by 0.5× and 2× ``DEFAULT_TOL`` (the second is recorded as a reject).
Every input compiles under the 8 settings of lighten × extract_phases ×
expand_controls, and those at nb ≤ 3 also under the root-exhaustive
permutation search.  The inputs are built with numpy alone, so they are the
same whatever version of csdc compiles them.

Each output gets one record: the sha256 of its SEO text; the sha256 of its
skeleton (its kind, target and control columns: the program without its
angles); its counts by kind; its two-qubit gates after control expansion
(``two_qubit_gates``); and the max-entry error of its matrix against the
padded input.  A rejected input's record names the error instead.

The compiles run in a subprocess pinned to one BLAS thread, since the
output depends on the thread count.  ``--against COMMIT`` runs this same
script on that commit's ``src/``, checked out in a temporary ``git
worktree`` that is removed afterwards, so it works on commits older than
the script; the two sides run at once, one process each.  It then prints,
per output, one of: identical; same skeleton, with the largest angle
change; or changed counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 20261021
DEFAULT_TOL = 1e-10   # csdc.DEFAULT_TOL, restated so that no csdc is imported here
PERM_SEARCH_MAX_NB = 3
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _haar(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def _dft(nb: int) -> np.ndarray:
    n = 1 << nb
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _bit_reversed(nb: int) -> np.ndarray:
    k = np.arange(1 << nb)
    return sum(((k >> b) & 1) << (nb - 1 - b) for b in range(nb))


def _hadamard(nb: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    out = np.ones((1, 1))
    for _ in range(nb):
        out = np.kron(out, h)
    return out


def _near_unitary(rng, nb: int, factor: float) -> np.ndarray:
    """A Haar input whose last column is scaled so that UᴴU misses I by
    factor × DEFAULT_TOL: the column's squared norm is 1 + factor × tol."""
    u = _haar(rng, 1 << nb)
    u[:, -1] *= np.sqrt(1.0 + factor * DEFAULT_TOL)
    return u


def inputs(max_nb: int = 8):
    """(name, matrix) of every corpus input up to max_nb bits, each drawn
    from its own generator, so that one input does not depend on another."""
    out = []

    def rng(*key):
        return np.random.default_rng([SEED, *key])

    families = {
        "haar": lambda nb: _haar(rng(0, nb), 1 << nb),
        "orthogonal": lambda nb: _orthogonal(rng(1, nb), 1 << nb),
        "dft": _dft,
        "qft": lambda nb: _dft(nb)[_bit_reversed(nb)],
        "hadamard": _hadamard,
        "permutation": lambda nb: np.eye(1 << nb)[rng(2, nb).permutation(1 << nb)],
        "phased-permutation": lambda nb: (
            np.eye(1 << nb)[rng(3, nb).permutation(1 << nb)]
            * np.exp(1j * rng(4, nb).uniform(-np.pi, np.pi, 1 << nb))),
        "diagonal": lambda nb: np.diag(np.exp(1j * rng(5, nb).uniform(-np.pi, np.pi, 1 << nb))),
        "uxi": lambda nb: np.kron(_haar(rng(6, nb), 1 << nb - 1), np.eye(2)),
        "ixu": lambda nb: np.kron(np.eye(2), _haar(rng(7, nb), 1 << nb - 1)),
        "controlled": lambda nb: np.block([
            [np.eye(1 << nb - 1), np.zeros((1 << nb - 1, 1 << nb - 1))],
            [np.zeros((1 << nb - 1, 1 << nb - 1)), _haar(rng(8, nb), 1 << nb - 1)]]),
        "near-0.5x": lambda nb: _near_unitary(rng(9, nb), nb, 0.5),
        "near-2x": lambda nb: _near_unitary(rng(10, nb), nb, 2.0),
    }
    tensor = ("uxi", "ixu", "controlled")
    for name, make in families.items():
        for nb in range(2 if name in tensor else 1, max_nb + 1):
            out.append((f"{name}-n{nb}", make(nb)))
    for dim in (3, 5, 6, 24):
        if dim <= 1 << max_nb:
            out.append((f"dim{dim}", _haar(rng(11, dim), dim)))
    return out


def _settings(nb: int):
    """(label, CompileOptions keywords) of every compile of an nb-bit input."""
    searches = ("none", "root-exhaustive") if nb <= PERM_SEARCH_MAX_NB else ("none",)
    for search in searches:
        for lighten in (True, False):
            for extract in (True, False):
                for expand in (False, True):
                    label = (f"lighten={'on' if lighten else 'off'} "
                             f"extract={'on' if extract else 'off'} "
                             f"expand={'on' if expand else 'off'} search={search}")
                    yield label, dict(lighten=lighten, extract_phases=extract,
                                      expand_controls=expand, perm_search=search)


def _record(program, text: str) -> dict:
    """The hashes and counts of a program whose SEO text is ``text``."""
    skeleton = hashlib.sha256()
    for column in (program.kind, program.target, program.ctrl_mask, program.ctrl_val):
        skeleton.update(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "skeleton": skeleton.hexdigest(),
            "counts": {k: v for k, v in program.count_by_kind().items() if v}}


def records(max_nb: int = 8):
    """(record, angles) of every corpus output, compiled by the csdc on sys.path."""
    import csdc
    from csdc import seo
    two_qubit_gates = getattr(seo, "two_qubit_gates", None)
    for name, u in inputs(max_nb):
        dim = len(u)
        nb = max(1, (dim - 1).bit_length())
        padded = np.eye(1 << nb, dtype=np.complex128)
        padded[:dim, :dim] = u
        for label, options in _settings(nb):
            case = {"case": f"{name} {label}"}
            try:
                program = csdc.compile_unitary(u, csdc.CompileOptions(**options))
            except csdc.NotUnitaryError as exc:
                yield {**case, "reject": f"{type(exc).__name__}: {exc}"}, np.zeros(0)
                continue
            record = _record(program, csdc.serialize(program))
            record["two_qubit_gates"] = (None if two_qubit_gates is None
                                         else int(two_qubit_gates(program)))
            err = np.abs(csdc.program_to_matrix(program) - padded).max()
            yield {**case, **record, "max_error": float(err)}, program.angle


def _write(out: Path) -> None:
    """Run the corpus here and write out/records.json and out/angles.npz."""
    import csdc
    recs, angles = [], {}
    for i, (record, a) in enumerate(records()):
        recs.append(record)
        angles[f"a{i}"] = a
    (out / "records.json").write_text(json.dumps({"csdc": csdc.__file__, "records": recs}))
    np.savez(out / "angles.npz", **angles)


def _start(src: Path, out: Path) -> subprocess.Popen:
    """Start compiling the corpus with the csdc of ``src`` in a subprocess
    on one BLAS thread, writing to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--write", str(out)],
                            env=env)


def _finish(proc: subprocess.Popen, src: Path, out: Path) -> tuple[list, dict]:
    """The records of a run that ``_start`` began, and its angles by record
    index."""
    if proc.wait():
        raise RuntimeError(f"the corpus run on {src} exited with {proc.returncode}")
    got = json.loads((out / "records.json").read_text())
    if Path(got["csdc"]).resolve().parent != (src / "csdc").resolve():
        raise RuntimeError(f"compiled with {got['csdc']}, not the csdc of {src}")
    with np.load(out / "angles.npz") as angles:
        return got["records"], dict(angles)


def verdict(old: dict, new: dict, old_angles=None, new_angles=None) -> tuple[str, str, float]:
    """How one output changed: one of "identical", "same skeleton" and
    "changed counts" (which prints both sides' counts); a detail for the
    printout; and the largest angle change in degrees (0.0 unless only the
    angles moved)."""
    if "reject" in old or "reject" in new:
        if old.get("reject") == new.get("reject"):
            return "identical", "", 0.0
        return "changed counts", f"{old.get('reject')!r} -> {new.get('reject')!r}", 0.0
    if old["sha256"] == new["sha256"]:
        return "identical", "", 0.0
    if old["skeleton"] == new["skeleton"]:
        change = (np.asarray(new_angles) - np.asarray(old_angles) + 180.0) % 360.0 - 180.0
        moved = float(np.abs(change).max())
        return "same skeleton", f"max angle change {moved:.3g} deg", moved
    return "changed counts", (f"{old['counts']} 2q={old['two_qubit_gates']} -> "
                              f"{new['counts']} 2q={new['two_qubit_gates']}"), 0.0


def against(commit: str) -> int:
    """Diff the corpus compiled at ``commit`` against this checkout's src/,
    both sides at once; 0 if every output is identical, 1 otherwise."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="csdc-corpus-") as tmp:
        tree, tmp = Path(tmp) / "tree", Path(tmp)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), commit], check=True)
        runs = []
        try:
            for src, out in ((tree / "src", tmp / "old"), (ROOT / "src", tmp / "new")):
                runs.append((_start(src, out), src, out))
            (old, old_angles), (new, new_angles) = [_finish(*run) for run in runs]
        finally:
            for proc, _, _ in runs:
                proc.kill()   # nothing happens to a run that has finished
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        if [r["case"] for r in old] != [r["case"] for r in new]:
            raise RuntimeError("the two sides compiled different cases")
        tally: dict[str, int] = {}
        largest = 0.0
        for i, (o, n) in enumerate(zip(old, new)):
            kind, detail, moved = verdict(o, n, old_angles[f"a{i}"], new_angles[f"a{i}"])
            print(f"{o['case']}: {kind}" + (f", {detail}" if detail else ""))
            tally[kind] = tally.get(kind, 0) + 1
            largest = max(largest, moved)
    summary = ", ".join(f"{v} {k}" for k, v in sorted(tally.items()))
    print(f"{len(new)} outputs against {commit}: {summary}; largest angle change "
          f"{largest:.3g} deg; {time.perf_counter() - start:.1f} s")
    return 0 if tally.get("identical", 0) == len(new) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="COMMIT",
                        help="diff against the outputs of COMMIT's src/")
    parser.add_argument("--write", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        _write(args.write)
        return 0
    if args.against:
        return against(args.against)
    with tempfile.TemporaryDirectory(prefix="csdc-corpus-") as tmp:
        src = ROOT / "src"
        recs, _ = _finish(_start(src, Path(tmp)), src, Path(tmp))
    for record in recs:
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
