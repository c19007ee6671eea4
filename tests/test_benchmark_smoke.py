"""The benchmark's traced run works on this tree.

``perfbench/run.py --trace 1`` patches the compiler's functions by name and
reads the shape of every tree that ``build_tree`` returns, so a change to
either would otherwise break it silently.  One short run of the ``haar-n6``
workload (about 5 s) checks that it still completes, finds every output
correct, and sees the full Haar tree: 63 nodes, 32 on the widest level.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_haar_run():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "haar-n6", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    metrics = report["metrics"]
    assert metrics["compiler.tree_nodes"]["value"] == 63
    assert metrics["compiler.tree_max_width"]["value"] == 32
