"""Legacy setup shim (the environment has no `wheel` for PEP 517 editables)."""

from setuptools import setup

setup()
