"""Setuptools shim for environments without PEP-517 editable support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Incremental discovery of prominent situational facts "
        "(Sultana et al., ICDE 2014) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-facts = repro.cli:main"]},
)
