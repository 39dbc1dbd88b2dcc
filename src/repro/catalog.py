"""The names the command line offers, defined apart from what they name.

The parser validates ``--crash-after``, ``report --only`` and
``--preset`` against these tuples. They live in a module that imports
nothing, so building the parser — for ``--help``, or before
``python -m repro serve`` starts the live service — does not import the
batch pipeline the names belong to. The runner, the report generator
and :class:`~repro.pipeline.config.ScenarioConfig` use the same
definitions; ``tests/test_cli.py`` checks they agree.
"""

#: Orchestrated stage names, in execution order.
STAGE_ORDER = (
    "internet",
    "attacks",
    "migration",
    "telescope",
    "honeypot",
    "measurement",
    "fusion",
)

#: Artifact ids of the full report, in print order for CLI / example
#: output.
REPORT_ORDER = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10", "fig11", "joint", "webports",
    "extensions",
)

#: Scenario presets: each names a ``ScenarioConfig`` constructor.
PRESETS = ("small", "default", "paper")
