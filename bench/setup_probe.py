"""Set-up probe, run in a fresh interpreter: what every CLI run pays before work.

Imports ``discordsim.cli`` from the source directory given as the only
argument, parses one command line, evaluates one trajectory point, then
prints ``ready``.  ``run.py`` times the interval from process start to that
line.  The set-up runs under a calibration sampler (see ``calibration.py``),
whose bursts also sample the host's speed while the probe imports; the
line after ``ready`` gives the wall seconds the bursts took and the factor
from wall to reference seconds.  Under ``-X importtime`` no bursts run, so
that none lands in a module's import time.
"""

import json
import sys
from pathlib import Path

sys.path[:0] = [sys.argv[1], str(Path(__file__).resolve().parent)]


def setup(_):
    import discordsim.cli

    discordsim.cli.build_parser().parse_args(["evolve", "--steps", "2"])
    discordsim.evolve_trajectory(
        discordsim.StateFamily(discordsim.Family.PSI, 0.5, 1.0),
        discordsim.ReservoirParams(lambda_ratio=0.1),
        [1.0],
    )


if sys._xoptions.get("importtime"):
    setup(None)
    print("ready", flush=True)
else:
    # The bursts need numpy, which discordsim imports anyway.
    import calibration

    sampler = calibration.Sampler()
    ref, wall, _, error = sampler.time(setup, None)
    if error is not None:
        raise error
    print("ready", flush=True)
    print(json.dumps({"spent_s": sampler.spent, "scale": ref / wall}), flush=True)
