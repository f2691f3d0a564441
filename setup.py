"""Package metadata; ``pip install -e .`` works offline (no wheel deps)."""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent
_README = _HERE / "README.md"

setup(
    name="repro-nrp",
    version="1.0.0",
    description=("Reproduction of 'Homogeneous Network Embedding for "
                 "Massive Graphs via Reweighted Personalized PageRank' "
                 "(Yang et al., PVLDB 2020) with online serving and "
                 "streaming-update tiers"),
    long_description=_README.read_text(encoding="utf-8")
    if _README.is_file() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22", "scipy>=1.8"],
    extras_require={"test": ["pytest"],
                    "bench": ["pytest", "pytest-benchmark"]},
    entry_points={
        "console_scripts": [
            "repro-serve = repro.serving.cli:main",
            "repro-fit = repro.cli_fit:main",
            "repro-stream = repro.cli_stream:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
