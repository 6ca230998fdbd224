"""List the lines of `src/tacforce` that no program path runs.

Runs the byte-oracle pipeline of `tools/pipeline_sha256.py` and a short
run of each benchmark workload (`perfbench/run.py --seconds 1 --seed 1`)
under a line tracer limited to the package, then prints every line that
holds bytecode and that none of those runs reached, as
`path:line: source`, and a count per file. Lines of `raise` statements
are left out: they mark the inputs a run should reject, and a clean run
reaches none of them.

    python3 tools/unreached_lines.py

Takes a few minutes. Each command runs in its own interpreter with
`sys.settrace` installed before the package is imported. The benchmark
runs from a temporary copy of `src/` and `perfbench/`, so its result
records do not land in the checkout's `.perfbench/`. Nothing in the
checkout is written.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pipeline_sha256 as oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tacforce")
WORKLOADS = ("collect", "pretrain", "deploy")

# Run in each child: trace the lines of files under PKG, run the target
# as __main__, and write {path relative to PKG: [lines]} to OUT at exit.
BOOT = r"""
import atexit, json, os, runpy, sys, threading
out, pkg, kind, target, *argv = sys.argv[1:]
hits = {}

def trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(pkg):
        return None
    lines = hits.setdefault(os.path.relpath(path, pkg), set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local

def dump():
    sys.settrace(None)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({k: sorted(v) for k, v in hits.items()}, fh)

atexit.register(dump)
sys.settrace(trace)
threading.settrace(trace)
sys.argv = [target, *argv]
if kind == "module":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.path.insert(0, os.path.dirname(target))
    runpy.run_path(target, run_name="__main__")
"""


def traced(kind, target, argv, pkg, cwd, env, hits, record):
    """Run one command under the tracer and merge its lines into hits."""
    proc = subprocess.run([sys.executable, "-c", BOOT, record, pkg, kind, target, *argv],
                          cwd=cwd, env=env, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit(f"exit {proc.returncode}: {target} {' '.join(argv)}")
    with open(record, encoding="utf-8") as fh:
        for name, lines in json.load(fh).items():
            hits.setdefault(name, set()).update(lines)


def executable_lines(source, path):
    """Lines holding bytecode, less those of `raise` statements."""
    code = compile(source, path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def main():
    hits = {}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        record = os.path.join(tmp, "hits.json")
        work = os.path.join(tmp, "pipeline")
        os.makedirs(work)
        with open(os.path.join(work, "tiny.json"), "w", encoding="utf-8") as fh:
            json.dump(oracle.TINY, fh)
        for name, argv in oracle.PIPELINE:
            traced("module", "tacforce.cli", [*argv, "--out", name], PACKAGE, work, env,
                   hits, record)
        copy = os.path.join(tmp, "checkout")
        for part in ("src", "perfbench"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for workload in WORKLOADS:
            traced("path", os.path.join(copy, "perfbench", "run.py"),
                   ["--workload", workload, "--seed", "1", "--seconds", "1"],
                   os.path.join(copy, "src", "tacforce"), copy, env, hits, record)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        missed = sorted(executable_lines(source, path) - hits.get(name, set()))
        for line in missed:
            print(f"src/tacforce/{name}:{line}: {text[line - 1].strip()}")
        total += len(missed)
        sys.stderr.write(f"{name}: {len(missed)} unreached\n")
    sys.stderr.write(f"total: {total} unreached lines\n")


if __name__ == "__main__":
    main()
