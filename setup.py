"""Package metadata; ``pip install -e . --no-use-pep517`` installs ``src/repro``.

The legacy ``setup.py develop`` path needs only setuptools (the PEP 517
editable path would also need ``wheel``).  The library's one runtime
dependency is numpy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
