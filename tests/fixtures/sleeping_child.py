#!/usr/bin/env python3
"""Protocol fixture that never answers: it says so on stderr and sleeps.
Usage: sleeping_child.py"""

import sys
import time

print("sleeping instead of answering", file=sys.stderr, flush=True)
time.sleep(600)
