"""Golden CSV output: the sha256 of ``RunRecord.to_csv()`` for small seeded
plans of every graph-sampling experiment.

A change to how configurations are decoded or measured must leave these
bytes alone; only a change that consumes different random draws (a
stream-contract change) may update the digests, and it must say why.  The
simulate and sprinkle plans run on small graphs (V = 400 and 1,000) and on
larger ones (V = 3,375 and 3,600), so the component paths for both sizes
are pinned.
"""

import hashlib

import pytest

from hammingperc.cli import ExperimentPlan, parse_epsilons, run

PLANS = {
    "simulate-h2-20": ExperimentPlan(
        experiment="simulate", d=2, n=20, epsilons=(0.3,),
        k_thresholds=(4, 40), replicas=6, master_seed=17),
    "simulate-h3-10": ExperimentPlan(
        experiment="simulate", d=3, n=10, epsilons=(0.4,),
        k_thresholds=(10, 100), replicas=4, master_seed=31),
    "simulate-h2-60": ExperimentPlan(
        experiment="simulate", d=2, n=60, epsilons=(0.15,),
        k_thresholds=(50, 400), replicas=4, master_seed=23),
    "simulate-h3-15": ExperimentPlan(
        experiment="simulate", d=3, n=15, epsilons=(0.2,),
        k_thresholds=(20,), replicas=3, master_seed=29),
    "sweep-h2-3": ExperimentPlan(
        experiment="sweep", d=2, n=3, epsilons=parse_epsilons("-0.6:1.0:0.8"),
        k_thresholds=(2, 4, 6), replicas=40, master_seed=101),
    "sprinkle-h2-60": ExperimentPlan(
        experiment="sprinkle", d=2, n=60, epsilons=(0.2,), replicas=4,
        master_seed=10),
    "sprinkle-h2-20": ExperimentPlan(
        experiment="sprinkle", d=2, n=20, epsilons=(0.3,),
        eta=0.05, replicas=4, master_seed=12),
    "explore-h2-40": ExperimentPlan(
        experiment="explore", d=2, n=40, epsilons=(0.2,),
        k_thresholds=(100,), replicas=20, master_seed=8),
}

DIGESTS = {
    "explore-h2-40": "0e0e45b94d41c1d19594a1642e783ec7df521f5c22ef18eefdb4244334ba65af",
    "simulate-h2-20": "630d097d3441cd5858999bef4802fa5424a4c1b0da95a9f2818ed5e11c2d8f75",
    "simulate-h2-60": "f81e444a150c140bfa72288b98b00440b6029bdb0ea16ab2dc944a64a75a7ddf",
    "simulate-h3-10": "2e8e766be66504ff95b3114c4e31c5d901870d97d87b3ec5f1e9f319a05dd81c",
    "simulate-h3-15": "cb0598f01f769ebaa6e7407276d79bacdff4b1dd752af94ecf20bbf5c41f8d8d",
    "sprinkle-h2-20": "6054174bdfd1b79012d23e0f0a7faac191b243c7c381260d0f442d66eb603f7c",
    "sprinkle-h2-60": "f5649ed9ed8271fb01907494534e82e6509e1263f40b35eafa96687e1ebbca4e",
    "sweep-h2-3": "ac1b1b7936181126957f641820f3d12f6fbeefc4f2cdd5492b55f2284cfcb6a7",
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_csv_bytes_are_pinned(name):
    record, code = run(PLANS[name])
    assert code == 0
    digest = hashlib.sha256(record.to_csv().encode()).hexdigest()
    assert digest == DIGESTS[name]
