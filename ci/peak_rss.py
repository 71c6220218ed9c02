"""Run a command, then print its wall time and peak RSS, and hold the RSS to a bound.

Usage::

    python ci/peak_rss.py --max-mb 120 -- python -m kurihara.cli search ...

The command inherits stdin, stdout and stderr, so its output can be
redirected as if it ran alone.  When it ends, one line goes to stderr:
the wall time and the peak resident set size, read from
``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss`` (the largest of the
waited-for children; kilobytes on Linux).  The exit code is the command's,
or 1 when the command exits 0 with a peak above ``--max-mb`` MiB.
Standard library only.
"""

import resource
import subprocess
import sys
import time


def main(argv):
    if len(argv) < 4 or argv[0] != "--max-mb" or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    bound = float(argv[1])
    t0 = time.monotonic()
    code = subprocess.call(argv[3:])
    wall = time.monotonic() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    sys.stderr.write(f"wall {wall:.1f} s, peak RSS {peak:.1f} MiB (bound {bound:g} MiB)\n")
    if code == 0 and peak > bound:
        sys.stderr.write(f"peak RSS {peak:.1f} MiB is above the bound {bound:g} MiB\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
