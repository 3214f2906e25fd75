"""Check the traced run against the heavy-layer predictions of layers.json.

Run from the root of a checkout::

    python3 campaignbench/predictions.py --seed 1 --seconds 10

Runs the traced benchmark once per workload (same seed), ranks the four
workloads by each layer's ``compare`` figure (its share of the campaign's
busy process time, or a per-layer metric) and reports, for each layer,
whether the heaviest workload is in the predicted heaviest group.  A
prediction that does not hold is reported, not hidden.
"""

import argparse
import json

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    with open(run.HERE / "layers.json") as handle:
        layers = json.load(handle)["layers"]
    reference = run.load_reference()
    figures = {}
    for workload in workloads.WORKLOADS:
        result, info = run.run_benchmark(
            workload, args.seed, args.seconds, True, reference
        )
        if result is None:
            raise SystemExit(f"error: {workload}: {info['error']}")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # A layer's share where one exists, else the per-layer metric.
        figures[workload] = dict(metrics, **info["samples"]["layer_shares"])
        print(json.dumps({"workload": workload,
                          "shares": info["samples"]["layer_shares"],
                          "correct": result["correct"]}))
    verdicts = []
    for layer in layers:
        if not layer["heavy_to_light"]:
            continue
        key = layer["compare"]
        ranked = sorted(workloads.WORKLOADS, key=lambda w: -figures[w][key])
        verdict = {
            "layer": layer["layer"],
            "compare": key,
            "predicted_heaviest": layer["heavy_to_light"][0],
            "observed": {w: round(figures[w][key], 4) for w in ranked},
            "held": ranked[0] in layer["heavy_to_light"][0],
        }
        verdicts.append(verdict)
        print(json.dumps(verdict))
    held = sum(v["held"] for v in verdicts)
    print(f"{held}/{len(verdicts)} heavy-layer predictions held")


if __name__ == "__main__":
    main()
