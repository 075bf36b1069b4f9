"""e2e_bench — the repo's end-to-end benchmark (see README.md beside this file).

``python3 -m e2e_bench --workload W --seed N --seconds S --trace 0|1`` is the
driver entry point named by the root ``BENCHMARK.json``; without
``--workload`` the same command runs a full set over all seven workloads.
"""
