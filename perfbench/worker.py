"""One pass of a workload in a fresh interpreter.

Protocol on stdout: the line `ready` as soon as pqtouchard is imported
(the parent times set-up up to that line), then, after one JSON config
line arrives on stdin, one JSON result line.  Operations run one at a
time, each timed alone; checks run after the last operation, off the
clock, so they touch neither the latencies nor the peak memory.

Run as `python3 -I perfbench/worker.py [MODULE]`, where MODULE is what the
workload's user imports (pqtouchard, or pqtouchard.cli for the command
line).  It finds the package in the checkout's src/ and refuses any other
copy.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    sys.path.insert(0, SRC)
    importlib.import_module(sys.argv[1] if len(sys.argv) > 1 else "pqtouchard")
    import pqtouchard

    where = os.path.dirname(os.path.abspath(pqtouchard.__file__))
    if where != os.path.join(SRC, "pqtouchard"):
        sys.exit(f"pqtouchard was imported from {where}, not from {SRC}")
    # the protocol keeps the real stdout; anything the library prints goes to stderr
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    protocol.write("ready\n")
    protocol.flush()

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from execute import serve

    serve(protocol)


if __name__ == "__main__":
    main()
