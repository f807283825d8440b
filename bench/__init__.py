"""The repo benchmark: four stage-isolating workloads over the public API.

See ``bench/README.md``.  Nothing here is imported by ``repro``; the
benchmark drives the program only through its public entry points.
"""
