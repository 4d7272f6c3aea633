"""Run one command as a child process and fail if its peak RSS reaches a bound.

    python3 .github/peak_rss.py BOUND_MIB COMMAND [ARG ...]

The peak is ``ru_maxrss`` of ``RUSAGE_CHILDREN``, the largest child this
process has waited for, so each checker runs exactly one command: a second
child would be measured against the first one's peak.
"""

import resource
import subprocess
import sys

bound = int(sys.argv[1])
subprocess.run(sys.argv[2:], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak:.0f} MiB")
sys.exit(f"peak RSS {peak:.0f} MiB reaches {bound} MiB" if peak >= bound else 0)
