"""Legacy setup shim: enables `pip install -e .` on toolchains without
PEP 660 editable-wheel support (this environment has no network to
fetch `wheel`)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of the Named-State Register File (Nuth & Dally, "
        "HPCA 1995)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
