"""Setuptools entry point — the package's only metadata file.

Kept as a plain ``setup.py`` so the package installs editable in offline
environments where pip cannot set up an isolated PEP 517 build environment
(``pip install -e . --no-build-isolation``).  The version is read from
``repro.__version__`` so the two can never drift.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Relational shortest path discovery over large graphs "
        "(FEM framework, SegTable index) — reproduction of Gao et al., VLDB 2011"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
