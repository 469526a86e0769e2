"""Seeded end-to-end benchmark of the ``ahiso`` batch CLI.

``run.py`` is the entry point; see its docstring for the command line.
"""
