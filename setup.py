from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Virtuoso reproduction: imitation-based OS simulation for VM research",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    extras_require={
        # Optional numpy acceleration for the vectorised workload generators
        # (repro.workloads.base.set_vectorization); the pure-python fallback
        # emits bit-identical instruction sequences without it.
        "fast": ["numpy>=1.22"],
    },
)
