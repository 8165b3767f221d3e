"""Set-up time of a fresh process: importing numpy and ptbound from ./src and
making the warm-up calls. Prints the seconds, then the median time of the
host-speed kernel (calibration.py) measured after them. Started by run.py,
which sets the BLAS thread count in the environment."""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402,F401
from ptbound import cli  # noqa: E402

import workloads  # noqa: E402

workloads.warm_up(cli)
seconds = time.perf_counter() - t0

import statistics  # noqa: E402

import calibration  # noqa: E402

print(seconds, statistics.median(calibration.kernel_seconds() for _ in range(5)))
