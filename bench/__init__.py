"""The repository benchmark: four workloads, end-to-end metrics, per-layer costs.

Run it through the package entry point (``python3 -m bench``); see
``bench/README.md`` for the protocol and ``BENCHMARK.json`` for the contract.
Importing this package does nothing: thread pinning and the ``src`` path
set-up live in ``bench/__main__.py``, the only entry point.
"""
