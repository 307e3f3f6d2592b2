"""Run ``python -m repro.service`` with span recorders installed.

    python3 e2ebench/launch.py <span-dir> serve --store ... [serve flags]

The entry point itself is unchanged: this only wraps each layer's
public functions first (see ``spans.py``) and arms SIGUSR1 to write the
records of every process in the group into ``<span-dir>``.
"""

import runpy
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

directory = sys.argv.pop(1)
spans.install()
spans.arm(directory)
sys.argv[0] = "repro.service"
runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
