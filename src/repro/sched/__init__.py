"""Warp schedulers: LRR baseline plus the techniques APRES is compared against."""

from repro.sched.base import OfferedWarps, WarpScheduler
from repro.sched.cawa import CAWAScheduler
from repro.sched.ccws import CCWSScheduler
from repro.sched.gto import GTOScheduler
from repro.sched.lrr import LRRScheduler
from repro.sched.mascar import MASCARScheduler
from repro.sched.pa import PAScheduler
from repro.sched.registry import SCHEDULERS, make_scheduler
from repro.sched.twolevel import TwoLevelScheduler

__all__ = [
    "OfferedWarps",
    "WarpScheduler",
    "CAWAScheduler",
    "CCWSScheduler",
    "GTOScheduler",
    "LRRScheduler",
    "MASCARScheduler",
    "PAScheduler",
    "TwoLevelScheduler",
    "SCHEDULERS",
    "make_scheduler",
]
