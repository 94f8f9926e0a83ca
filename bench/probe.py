"""One cold set-up of dnfusion in a fresh interpreter.

Usage: python3 probe.py SRC [default | MODEL_FILE ...]

Imports ``dnfusion`` and ``dnfusion.cli`` from SRC, builds the CLI parser and
the named models, then prints ``time.monotonic()``. The caller subtracts the
clock it read just before starting this interpreter.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import dnfusion  # noqa: E402
from dnfusion import cli  # noqa: E402

cli.build_parser()
for model in sys.argv[2:]:
    if model == "default":
        dnfusion.default_model()
    else:
        dnfusion.load_model(model)
print(repr(time.monotonic()))
