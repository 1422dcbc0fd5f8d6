#!/usr/bin/env python3
"""Reproduce the robust-model reference figure.

Runs the strong-static-field model (eta=1, eta0=20, eta1=1, eta2=100) over
tau in [0, 2*pi], writes both Bloch-sphere curves, the staying probability
against its closed form, and a self-contained SVG.

Usage: python3 scripts/run_figure1.py [outdir]
"""
import sys

from qgplab.cli import main

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/figure1"
    sys.exit(main(["figure1", "--out", out]))
