"""Experiment regenerators: one module per paper figure/table.

Run via ``python -m repro.experiments <experiment>`` or the
``activermt-experiments`` console script.  Every module exposes a
``run(...)`` returning plain data (asserted on by the benchmark suite)
and a ``format_result`` used by the CLI.

| id          | paper figure/table                         |
|-------------|--------------------------------------------|
| fig5a       | allocation time, pure workloads            |
| fig5b       | allocation time, mixed workload            |
| fig6        | utilization vs arrivals, pure workloads    |
| fig7        | online Poisson process (7a-7d)             |
| fig8a       | provisioning-time breakdown                |
| fig8b       | forwarding latency vs program length       |
| fig9a       | cache case study timeline                  |
| fig9b       | four staggered tenants                     |
| fig10       | reallocation disruption, fine time scale   |
| fig11       | allocation-scheme comparison               |
| fig12       | allocation time vs block granularity       |
| mutants     | Section 6.1 mutant census                  |
| overheads   | Section 5 / 6.2 baseline comparisons       |
| whatif      | (not a figure) dry-run admission probing   |
| churn, fabric, chaos, audit | (not figures) churn scenarios; exit 1 on a violation |
"""
