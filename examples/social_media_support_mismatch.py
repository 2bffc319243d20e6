"""Open-world queries over a 100-percent-biased "social media" style sample.

The paper motivates Themis with samples that are a *selection* of the
population — e.g. social-media users are a 100-percent-biased sample of a
country's population — so the sample's support does not cover the population.
Pure reweighting can never answer queries about tuples outside that support;
Themis's Bayesian network component can (Sec. 4.3, Fig. 5).

This example builds the Corners sample (only flights leaving CA/NY/FL/WA) and
shows how AQP, IPF, and Themis answer queries about states that are entirely
missing from the sample.

Run with:  python examples/social_media_support_mismatch.py
"""

from __future__ import annotations

from repro.core import ReweightedSampleEvaluator
from repro.experiments import SMALL_SCALE, build_aggregates, fit_methods, flights_bundle
from repro.experiments.reporting import format_table
from repro.metrics import percent_difference
from repro.query import PointQuery


def main() -> None:
    scale = SMALL_SCALE
    bundle = flights_bundle(scale)
    sample = bundle.sample("Corners")  # 100% biased: only corner-state departures
    observed_states = {row[1] for row in sample.iter_rows()}
    print(f"states present in the sample: {sorted(observed_states)}")

    aggregates = build_aggregates(bundle, n_two_dimensional=4)
    fitted = fit_methods(
        sample,
        aggregates,
        population_size=bundle.population_size,
        scale=scale,
        methods=("AQP", "IPF", "Hybrid"),
    )

    # Ask about departures from states that are NOT in the sample at all.
    missing_states = [
        state
        for state in bundle.population.schema["origin_state"].domain.values
        if state not in observed_states
    ][:5]
    rows = []
    for state in missing_states:
        truth = bundle.population.count({"origin_state": state})
        row = {"origin_state": state, "true count": truth}
        for method in ("AQP", "IPF", "Hybrid"):
            estimate = fitted[method].execute(PointQuery({"origin_state": state}))
            row[method] = round(estimate, 1)
            row[f"{method} err"] = round(percent_difference(truth, estimate), 1)
        rows.append(row)
    print()
    print(format_table(rows))
    print(
        "\nAQP and IPF can only answer 0 for unseen states (error 200); Themis's "
        "hybrid falls back to the Bayesian network and recovers sensible counts."
    )


if __name__ == "__main__":
    main()
