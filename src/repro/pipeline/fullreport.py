"""One-call regeneration of the paper's entire evaluation section.

``generate_full_report`` takes a finished :class:`SimulationResult` and
returns every table and figure as rendered text, keyed by artifact id
(``table1`` .. ``table9``, ``fig1`` .. ``fig11``, ``joint``, plus the
Section 8 extensions). The CLI and the ``reproduce_paper`` example both
build on it.
"""

from __future__ import annotations

from typing import Dict

from repro.catalog import REPORT_ORDER  # noqa: F401 - re-exported
from repro.core.cohosting import cohosting_bins
from repro.core.distributions import (
    duration_cdf,
    intensity_cdf,
    per_protocol_intensity_cdfs,
)
from repro.core.fusion import FusedDataset
from repro.core.infra import dns_impact, mail_impact
from repro.core.intensity import IntensityModel, intensity_percentile_table
from repro.core.migration import MigrationAnalysis
from repro.core.ports import (
    port_cardinality,
    service_table,
    web_infrastructure_share,
    web_port_comparison,
)
from repro.core.rankings import (
    country_ranking,
    ip_protocol_distribution,
    reflection_protocol_distribution,
)
from repro.core.report import (
    render_cohosting,
    render_delay_cdf,
    render_duration_cdf,
    render_intensity_cdf,
    render_series_summary,
    render_table,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    render_table9,
    render_taxonomy,
)
from repro.core.taxonomy import classify_sites, taxonomy_counts
from repro.core.timeseries import daily_series, figure1_series
from repro.core.webmap import WebImpactAnalysis, sites_alive_per_day
from repro.net.packet import PROTO_TCP, PROTO_UDP


def generate_full_report(result) -> Dict[str, str]:
    """Render every table and figure for one simulation result."""
    fused: FusedDataset = result.fused
    n_days = result.n_days
    report: Dict[str, str] = {}

    # Tables 1-2.
    report["table1"] = render_table1(fused.summary_rows())
    report["table2"] = render_table2(
        result.openintel.zone_stats,
        result.openintel.total_web_sites,
        result.openintel.total_data_points,
    )
    report["table3"] = render_table3(result.dps_usage.provider_site_counts())
    report["table4"] = (
        render_table4(country_ranking(fused.telescope), "Telescope")
        + "\n\n"
        + render_table4(country_ranking(fused.honeypot), "Honeypot")
    )
    report["table5"] = render_table5(ip_protocol_distribution(fused.telescope))
    report["table6"] = render_table6(
        reflection_protocol_distribution(fused.honeypot)
    )
    report["table7"] = render_table7(port_cardinality(fused.telescope))
    report["table8"] = render_table8(
        service_table(fused.telescope, PROTO_TCP),
        service_table(fused.telescope, PROTO_UDP),
    )

    # Figures 1-5.
    report["fig1"] = "\n\n".join(
        render_series_summary(panel)
        for panel in figure1_series(fused, n_days).values()
    )
    report["fig2"] = (
        render_duration_cdf(duration_cdf(fused.telescope), "Telescope")
        + "\n\n"
        + render_duration_cdf(duration_cdf(fused.honeypot), "Honeypot")
    )
    report["fig3"] = render_intensity_cdf(
        intensity_cdf(fused.telescope), "Telescope (Figure 3)"
    )
    report["fig4"] = "\n\n".join(
        render_intensity_cdf(cdf, f"Honeypot {label} (Figure 4)")
        for label, cdf in per_protocol_intensity_cdfs(fused.honeypot).items()
    )
    model = IntensityModel(fused.combined.events)
    medium = model.medium_plus(fused.combined.events)
    report["fig5"] = render_series_summary(
        daily_series(medium, n_days, "Medium+ combined")
    )

    # Section 5: Figures 6-7.
    impact = WebImpactAnalysis(result.web_index)
    associations = impact.associate(fused.combined.events)
    report["fig6"] = render_cohosting(cohosting_bins(associations))
    alive = sites_alive_per_day(result.openintel.first_seen, n_days)
    counts, fractions = impact.daily_affected(
        fused.combined.events, n_days, alive
    )
    report["fig7"] = render_table(
        ["statistic", "value"],
        [
            ["sites/day (mean)", f"{counts.mean():.0f}"],
            ["share of namespace (mean)", f"{fractions.mean():.2%}"],
            ["share of namespace (max)", f"{fractions.max():.2%}"],
        ],
        title="Figure 7: Web sites on attacked IPs",
    )

    # Section 6: Figures 8-11, Table 9.
    histories = impact.site_histories(fused.combined.events)
    first_attack = {d: h.first_attack_day() for d, h in histories.items()}
    dps_first = result.dps_usage.first_day_by_domain()
    report["fig8"] = render_taxonomy(
        taxonomy_counts(
            classify_sites(result.openintel.first_seen, first_attack, dps_first)
        )
    )
    migration = MigrationAnalysis(histories, dps_first, model)
    all_over, migrating_over = migration.repetition_effect()
    report["fig9"] = render_table(
        ["population", ">5 attacks"],
        [
            ["all attacked sites", f"{all_over:.2%}"],
            ["migrating sites", f"{migrating_over:.2%}"],
        ],
        title="Figure 9: attack frequency vs migration",
    )
    delay_cdfs = {"All": migration.delay_cdf()}
    for label, fraction in (("Top 5%", 0.05), ("Top 1%", 0.01)):
        try:
            delay_cdfs[label] = migration.delay_cdf(top_fraction=fraction)
        except ValueError:
            continue
    report["fig10"] = render_delay_cdf(delay_cdfs)
    try:
        report["fig11"] = render_delay_cdf(
            {">=4h attacks": migration.delay_cdf_long_attacks()}
        )
    except ValueError:
        report["fig11"] = "no migrations followed a >=4h attack in this run"
    site_intensity = (
        max(model.normalized(e) for e in history.events)
        for history in histories.values()
    )
    report["table9"] = render_table9(
        intensity_percentile_table(site_intensity)
    )

    # Joint attacks + extensions.
    joint = fused.joint_analysis()
    report["joint"] = render_table(
        ["statistic", "value"],
        [
            ["shared targets", joint.n_shared_targets],
            ["simultaneous targets", joint.n_joint_targets],
            ["joint single-port", f"{joint.single_port_fraction:.1%}"],
            ["joint UDP 27015", f"{joint.udp_27015_fraction:.1%}"],
            ["joint NTP share",
             f"{joint.reflection_protocol_shares.get('NTP', 0.0):.1%}"],
        ],
        title="Joint attacks (Section 4)",
    )
    mail = mail_impact(fused.combined.events, result.openintel.mail_intervals)
    dns = dns_impact(fused.combined.events, result.openintel.ns_intervals)
    report["extensions"] = render_table(
        ["infrastructure", "attacked IPs", "affected domains", "share"],
        [
            [impact_.label, impact_.attacked_infrastructure_ips,
             impact_.affected_domains, f"{impact_.affected_fraction:.1%}"]
            for impact_ in (mail, dns)
        ],
        title="Section 8 extensions: mail & DNS impact",
    )
    web_share = web_infrastructure_share(fused.telescope)
    comparison = web_port_comparison(fused.telescope)
    report["webports"] = render_table(
        ["statistic", "value"],
        [
            ["single-port TCP on Web ports", f"{web_share:.1%}"],
            ["median intensity web/all",
             f"{comparison.median_intensity_web:.1f} / "
             f"{comparison.median_intensity_all:.1f}"],
            ["mean duration web/all (min)",
             f"{comparison.mean_duration_web / 60:.0f} / "
             f"{comparison.mean_duration_all / 60:.0f}"],
        ],
        title="Web-port attacks (Section 4)",
    )
    return report

