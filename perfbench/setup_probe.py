"""Set-up cost of one CLI invocation, run in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG...

Imports cocyclelab.cli from the checkout's src/, passes every config through
cli.load_config, and prints the CLOCK_MONOTONIC reading at which that
finished. The caller subtracts its own reading taken just before it started
this process. Exits 1 if a config is rejected.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import cocyclelab.cli as cli  # noqa: E402

for path in sys.argv[1:]:
    try:
        cli.load_config(path)
    except cli.ConfigError as e:
        sys.stderr.write(f"{path}: {e}\n")
        sys.exit(1)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
