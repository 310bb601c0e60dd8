"""Set-up cost of one CLI run: import qndsim.cli, parse argv, load the scenario.

Run in a fresh interpreter with the checkout's ``src`` on PYTHONPATH and the
workload's CLI arguments; prints the elapsed seconds.  The clock starts
before qndsim (and so numpy) is imported.
"""

from time import perf_counter

t0 = perf_counter()

import sys  # noqa: E402

import qndsim.cli  # noqa: E402
from qndsim.scenario_io import load_scenario_file  # noqa: E402

args = qndsim.cli.build_parser().parse_args(sys.argv[1:])
if hasattr(args, "scenario"):
    load_scenario_file(args.scenario)
print(repr(perf_counter() - t0))
