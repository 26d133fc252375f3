#!/usr/bin/env python3
"""Byte-compares a paper bench's stdout against its checked-in golden.

The paper benches E1-E8 are deterministic at a fixed seed: their stdout
holds only virtual-time results, no wall-clock or RSS lines. Each one
runs at --seed 42 and its stdout must equal
tests/testdata/paper/<bench>.txt byte for byte (one tier-1 ctest per
bench, `ctest -R paper_output`).

Usage:
  paper_output.py GOLDEN_DIR BENCH_BINARY...
  paper_output.py --regen GOLDEN_DIR BENCH_BINARY...

After a deliberate change to a paper bench's output, regenerate its
golden and review the diff like any other code, e.g.
  python3 tools/paper_output.py --regen tests/testdata/paper \\
      build/bench/bench_ack_latency
"""

import difflib
import pathlib
import subprocess
import sys

SEED = "42"


def main():
    args = sys.argv[1:]
    regen = "--regen" in args
    args = [a for a in args if a != "--regen"]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    golden_dir = pathlib.Path(args[0])
    failed = False
    for bench in map(pathlib.Path, args[1:]):
        proc = subprocess.run([str(bench), "--seed", SEED],
                              capture_output=True)
        if proc.returncode != 0:
            print(f"FAIL: {bench} --seed {SEED} exited {proc.returncode}\n"
                  f"{proc.stderr.decode(errors='replace')}", file=sys.stderr)
            failed = True
            continue
        golden = golden_dir / f"{bench.name}.txt"
        if regen:
            golden.write_bytes(proc.stdout)
            print(f"wrote {golden} ({len(proc.stdout)} bytes)")
            continue
        if not golden.exists():
            print(f"FAIL: no golden {golden}; create it with --regen",
                  file=sys.stderr)
            failed = True
            continue
        expected = golden.read_bytes()
        if proc.stdout == expected:
            print(f"PASS: {bench.name} stdout matches {golden}")
            continue
        diff = difflib.unified_diff(
            expected.decode(errors="replace").splitlines(keepends=True),
            proc.stdout.decode(errors="replace").splitlines(keepends=True),
            fromfile=str(golden), tofile=f"{bench.name} --seed {SEED}")
        print(f"FAIL: {bench.name} stdout diverged from {golden} "
              f"(regenerate with --regen and review the diff):",
              file=sys.stderr)
        sys.stderr.writelines(diff)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
