"""End-to-end benchmark of the HPC-GPT reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints
one JSON result line; see ``run.py`` for the workloads and
``BENCHMARK.json`` for the metrics.  Nothing under ``src/`` is edited:
the traced run wraps the public functions of ``repro`` from here.
"""
