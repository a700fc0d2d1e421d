#!/usr/bin/env python3
"""Recompute every published desk-scale count and diff against the catalog.

Equivalent to `cyclicfiber tables`; exits nonzero on any mismatch.
Pass --stretch to add C(10,3) and every n = 11 row (seconds).
"""

import sys

from cyclicfiber.cli import main

if __name__ == "__main__":
    sys.exit(main(["tables", *sys.argv[1:]]))
