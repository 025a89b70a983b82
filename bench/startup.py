"""Set-up probe: import the CLI, parse a workload's inputs, print the clock.

    python3 bench/startup.py SRC_DIR MANIFEST

run.py starts this in a fresh interpreter and takes the system-wide
monotonic clock it prints, minus the moment it started the process, as
one sample of the time until the first job could run.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from minorbench import cli  # noqa: E402,F401
from minorbench.gadgets import load_core_spec  # noqa: E402
from minorbench.graph import parse_graph  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    manifest = json.load(fh)
for name in manifest["graphs"]:
    with open(name, encoding="utf-8") as fh:
        parse_graph(fh.read())
for name in manifest["specs"]:
    with open(name, encoding="utf-8") as fh:
        load_core_spec(fh.read())
print(time.monotonic())
