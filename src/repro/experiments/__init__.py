"""Experiment harnesses: one module per paper table/figure.

Every harness exposes a ``run(...)`` function returning a plain-data
result object with a ``format_table()`` method that prints the same
rows/series the paper reports, so the CLI, the suite runner and the
examples share them.  Scale knobs (encryptions, requests per core,
workload subsets) are ``run()`` keyword arguments.  Their defaults are
the run ``repro <name>`` and ``suite --full`` make, which is shorter
than the paper's; pass larger values (``repro fig10 --requests 20000
--workloads ...``) for paper-scale runs.

Index:

===========  =======================================================
fig3         ABO-induced latency timelines (1/2/4 RFMs per ABO)
table2       Covert-channel period and bitrate vs N_BO
fig4         AES side-channel attack timeline (p0=0, k0=0)
fig5         Key-byte sweep: victim histograms + trigger rows
fig7         Feinting TMAX vs TB-Window (with/without counter reset)
fig8         Executable walkthrough of the single-entry queue defense
fig9         Fig 5 with and without the TPRAC defense
fig10        Normalized performance at N_RH=1024, three designs
fig11        PRAC-level sensitivity (1/2/4 RFMs per ABO)
fig12        Targeted-Refresh rate sensitivity
fig13        N_RH sweep 128..4096
fig14        Counter-reset policy sensitivity
table5       Energy overhead split per N_RH
obfuscation  Section 7.1 random-RFM defense trade-off
scorecard    all headline claims graded paper-vs-measured
registry     declarative artifact registry (each module's ARTIFACT)
runner       parallel/cached suite runner, persists JSON results
===========  =======================================================

Every harness module exports an ``ARTIFACT``
:class:`~repro.experiments.registry.ArtifactSpec` so the suite runner
and CLI discover it automatically — new modules with a ``run()`` but
no spec fail discovery loudly instead of silently dropping out.
"""

from repro.experiments import common

__all__ = ["common"]
