"""Setuptools packaging for the ``repro`` library.

The package lives under ``src/repro`` and needs numpy and scipy at run
time.  ``pip install -e .`` installs it in development mode (pip needs the
``wheel`` package for that); ``python setup.py develop`` does the same
without it.  The tests, benchmarks and examples run from a checkout with
``PYTHONPATH=src`` instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Perfect L_p samplers for turnstile streams beyond small "
                 "moments, with their sketch substrates"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    package_dir={"": "src"},
    packages=find_packages("src"),
)
