"""Setuptools shim.

The project is described by ``pyproject.toml``; this file exists only so that
an offline environment without ``wheel`` (which PEP 660 editable installs
need) can still install the package in development mode::

    python setup.py develop --no-deps

``python setup.py --name --version`` prints the metadata ``pyproject.toml``
declares.
"""

from setuptools import setup

setup()
