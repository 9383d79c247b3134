"""Run one partsim CLI command in a fresh interpreter and print the
process's peak resident set size in KiB on the last line of stdout.

Usage: python3 bench/rss_probe.py SRC_DIR PARTSIM_ARGS...
"""

import contextlib
import io
import resource
import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from partsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.exit(code)
