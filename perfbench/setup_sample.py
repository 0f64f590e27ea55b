"""Time one from-scratch set-up: import the simulator, then run a warm-up.

    python3 perfbench/setup_sample.py <workload> <seed> <scratch dir>

Prints the CPU seconds this process took from its start, interpreter
start-up and the simulator's import included, to the end of the
workload's warm-up. ``run.py`` starts this in a new process after each
pass, so every ``setup_s`` sample pays the imports and lazy set-up that a
new process pays, and none of it stays behind in the timed process.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from workloads import make_workload  # noqa: E402

name, seed, scratch = sys.argv[1:]
make_workload(name, scratch).warm_up(int(seed))
print(time.process_time())
