"""Package metadata: the one place it lives (there is no ``pyproject.toml``).

A plain ``setup.py`` keeps ``pip install -e .`` working in offline
environments where PEP 517 build isolation cannot download a build backend.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",  # keep in step with repro.__version__
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
