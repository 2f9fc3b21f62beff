"""Run-time environment of the benchmark; import it before numpy or eeinfer.

* BLAS is pinned to one thread, so the numpy reference forward used by the
  correctness checks cannot take a second core from the program under test.
* ``src/`` of the checkout this file sits in goes first on ``sys.path``, so
  the benchmark measures the source next to it and never an installed copy.
  Without that source tree the benchmark exits with code 2.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "eeinfer" / "__init__.py").is_file():
    sys.stderr.write(f"eebench: no eeinfer source tree under {SRC}; nothing to measure\n")
    raise SystemExit(2)
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))

import eeinfer  # noqa: E402

if Path(eeinfer.__file__).resolve().parent != SRC / "eeinfer":
    sys.stderr.write(f"eebench: eeinfer imported from {eeinfer.__file__}, not from {SRC}\n")
    raise SystemExit(2)
