#!/usr/bin/env python3
"""Check the SIMD kernel objects for symbols that break the ODR rule.

Usage:
    check_simd_odr.py --build build

kernels_avx2.cc and kernels_avx512.cc are the only translation units built
with ISA flags (-mavx2; -mavx512f -mavx512dq -mbmi2). An inline or template
symbol with vague linkage that one of them emits can also be emitted by
another TU, and the linker keeps one copy: AVX2 or AVX-512 encodings could
then run on a host without them. So the vector bodies (kernels_vector.h) live
in an anonymous namespace, and this check runs `nm -C --defined-only` on both
objects and fails if either defines

  * a weak or vague-linkage symbol (nm types W, w, V, v, u), or
  * a global symbol outside vulnds::simd::internal.

Exit status: 0 clean, 1 violation, 2 object not found or nm failed.
"""

import argparse
import os
import subprocess
import sys

OBJECTS = ("kernels_avx2.cc.o", "kernels_avx512.cc.o")
OBJECT_DIR = os.path.join("CMakeFiles", "vulnds_simd.dir", "src", "simd")
WEAK_TYPES = set("WwVvu")
NAMESPACE = "vulnds::simd::internal::"


def violations(nm_output):
    """Yields (reason, line) for each offending symbol in `nm -C` output."""
    for line in nm_output.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) != 3:
            continue
        _, kind, name = parts
        if kind in WEAK_TYPES:
            yield "weak or vague-linkage symbol", line
        elif kind.isupper() and not name.startswith(NAMESPACE):
            yield "global symbol outside " + NAMESPACE[:-2], line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="CMake build directory of the repository")
    args = parser.parse_args()

    failed = False
    for obj in OBJECTS:
        path = os.path.join(args.build, OBJECT_DIR, obj)
        if not os.path.isfile(path):
            print(f"check_simd_odr: {path} not found (build first)",
                  file=sys.stderr)
            return 2
        nm = subprocess.run(["nm", "-C", "--defined-only", path],
                            capture_output=True, text=True)
        if nm.returncode != 0:
            print(f"check_simd_odr: nm {path} failed:\n{nm.stderr}",
                  file=sys.stderr)
            return 2
        bad = list(violations(nm.stdout))
        for reason, line in bad:
            print(f"{obj}: {reason}: {line}")
        if not bad:
            print(f"{obj}: ok")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
