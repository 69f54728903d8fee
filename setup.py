"""Package metadata: the one place the runtime dependencies are declared.

numpy is the only runtime dependency, and it covers GCN-RL and the human,
random and ES baselines.  scipy is the ``bo`` extra (``pip install
'.[bo]'``): the Gaussian process of the BO and MACE baselines imports it.
A checkout also runs uninstalled with ``PYTHONPATH=src``.  Installing
builds a wheel, which needs the ``wheel`` package besides setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of GCN-RL Circuit Designer: transferable transistor "
        "sizing with graph neural networks and reinforcement learning"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.env": ["calibration/*.json"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"bo": ["scipy"]},
)
