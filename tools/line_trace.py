"""List the lines of frmil that no product entry point runs.

Usage: python tools/line_trace.py <src-dir>

<src-dir> is the ``src`` directory of a checkout. Each run below goes in a
child process of this interpreter that records, with ``sys.settrace`` and
``threading.settrace``, every line executed in a file under
``<src-dir>/frmil``:

- every command of the checkout's ``tools/output_digest.py``, in order, in
  one temporary directory, as ``python -m frmil.cli``;
- ``frmil selftest``;
- the checkout's ``perfbench/run.py`` for 3 s on each workload, at
  ``--trace 0`` and at ``--trace 1`` (seed 1; it writes under the
  checkout's ``.perfbench/``).

Then it prints each executable line that no run reached, as
``frmil/<file>:<line>  <source>``, and a summary: the count per file, the
total against all executable lines, and the wall time. A line is
executable when the compiler gives it bytecode; a function's ``def`` line
counts as run when its module ran. Most listed lines are error paths that
no valid input reaches; read the list, not just the count.

Exit codes: 0 every run exited 0; 1 a run failed (its lines still count);
2 bad arguments.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

SECONDS = 3
SEED = 1
WORKLOADS = ("train-small", "train-wsi", "score-wsi")

# Runs a module (``-m``) or a script under a line tracer limited to files
# under a path prefix, then writes {file: [lines]} as JSON. The tracer is
# set before the target imports anything.
CHILD = r"""
import json, runpy, sys, threading
out, prefix, kind, target = sys.argv[1:5]
hits = {}

def local(frame, event, arg):
    if event == "line":
        hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return local

def trace(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(prefix) else None

sys.argv = [target, *sys.argv[5:]]
code = 0
sys.settrace(trace)
threading.settrace(trace)
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(target, run_name="__main__")
except SystemExit as exc:
    code = exc.code
finally:
    sys.settrace(None)
    threading.settrace(None)
    with open(out, "w") as fh:
        json.dump({f: sorted(lines) for f, lines in hits.items()}, fh)
sys.exit(code)
"""


def executable_lines(path: Path) -> set:
    """Line numbers the compiler gives bytecode, over every code object of
    the file; a nested code object's first line (its ``def``/``class``
    line) belongs to the code that defines it."""
    lines = set()
    stack = [(compile(path.read_text(), str(path), "exec"), True)]
    while stack:
        code, top = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line and (top or line != code.co_firstlineno))
        stack.extend((c, False) for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def digest_commands(root: Path):
    spec = importlib.util.spec_from_file_location(
        "output_digest", root / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def runs(root: Path):
    """(label, kind, target, args) of every traced run, in order."""
    for label, args in digest_commands(root):
        yield label, "module", "frmil.cli", args
    yield "selftest", "module", "frmil.cli", ["selftest"]
    for workload in WORKLOADS:
        for traced in (0, 1):
            yield (f"perfbench {workload} --trace {traced}", "script",
                   str(root / "perfbench" / "run.py"),
                   ["--workload", workload, "--seed", str(SEED),
                    "--seconds", str(SECONDS), "--trace", str(traced)])


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "frmil").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    t0 = time.monotonic()
    src = Path(argv[0]).resolve()
    package = src / "frmil"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("FRMIL_SEED", None)
    hits: dict = {}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "lines.json"
        work = Path(tmp) / "work"
        work.mkdir()
        for label, kind, target, args in runs(src.parent):
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(record),
                 str(package) + os.sep, kind, target, *args],
                cwd=work, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE)
            if proc.returncode != 0:
                failed += 1
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"# {label} exited {proc.returncode}", file=sys.stderr)
            for name, lines in json.loads(record.read_text()).items():
                hits.setdefault(name, set()).update(lines)
    total = unreached = 0
    per_file = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        unreached += len(missed)
        per_file.append(f"{path.name} {len(missed)}")
        for line in missed:
            print(f"frmil/{path.name}:{line}  {source[line - 1].strip()}")
    print(f"# {unreached} of {total} executable lines never ran "
          f"({', '.join(per_file)})")
    print(f"# {failed} of the runs failed; {time.monotonic() - t0:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
