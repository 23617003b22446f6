"""Comparing forecasting strategies: sensors-only, IK-only and fusion.

Reproduces the paper's central argument at example scale: a sensors-only
statistical forecaster, an indigenous-knowledge-only forecaster and the
integrated (fusion) forecaster are run over the same two-year scenario with
one severe drought, and their probability traces and skill scores are
printed side by side.

Run with::

    python examples/ik_fusion_comparison.py
"""

from repro.dews import DewsConfig, DroughtEarlyWarningSystem
from repro.workloads import DroughtEpisode, build_free_state_scenario

EPISODE = DroughtEpisode(start_day=400.0, end_day=540.0, severity=0.85)


def sparkline(probabilities):
    """Render a probability series as a coarse text sparkline."""
    blocks = " .:-=+*#%@"
    return "".join(blocks[min(9, int(p * 10))] for p in probabilities)


def main() -> None:
    scenario = build_free_state_scenario(
        districts=["Mangaung"], motes_per_district=8, observers_per_district=10,
        episodes=[EPISODE], seed=11,
    )
    config = DewsConfig(days=600, forecast_every_days=10, forecast_start_day=60, seed=11)
    result = DroughtEarlyWarningSystem(scenario, config).run()

    print(f"Drought ground truth: days {EPISODE.start_day:.0f}-{EPISODE.end_day:.0f}\n")
    print("Forecast probability traces (one character per forecast, issued every 10 days):")
    for method in ("statistical", "indigenous", "fusion"):
        forecasts = sorted(result.forecasts[method], key=lambda f: f.issue_day)
        trace = sparkline([f.drought_probability for f in forecasts])
        print(f"  {method:>12}: {trace}")
    onset_index = int((EPISODE.start_day - config.forecast_start_day) / config.forecast_every_days)
    print(f"  {'onset':>12}: " + " " * onset_index + "^")

    print("\nSkill scores:")
    for row in result.skill_table():
        print("  " + ", ".join(f"{key}={value}" for key, value in row.items()))

    print("\nReading the shapes:")
    skills = result.skills
    print(f"  - IK-only issues warnings earliest (lead {skills['indigenous'].mean_lead_time_days:.0f} d) "
          f"but with the most false alarms (FAR {skills['indigenous'].far:.2f}).")
    print(f"  - The statistical baseline is conservative: FAR {skills['statistical'].far:.2f}, "
          f"POD {skills['statistical'].pod:.2f}, little or no lead time.")
    print(f"  - The fusion forecaster detects {skills['fusion'].pod:.0%} of drought periods "
          f"with Brier {skills['fusion'].brier_score:.2f} "
          f"(vs {skills['indigenous'].brier_score:.2f} for IK alone).")


if __name__ == "__main__":
    main()
