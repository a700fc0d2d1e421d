#!/usr/bin/env python3
"""Recompute every published desk-scale count and diff against the catalog.

Equivalent to `cyclicfiber tables`; exits nonzero on any mismatch.
Pass --stretch to add the d = 3 rows for n = 10 and n = 11 (seconds).
"""

import sys

from cyclicfiber.cli import main

if __name__ == "__main__":
    sys.exit(main(["tables", *sys.argv[1:]]))
