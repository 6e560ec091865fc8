import json
import math

import numpy as np
import pytest

from odmts.instance import instance_to_dict, validate
from odmts.instgen import generate, perturb_arrival_estimates


def canonical(inst):
    return json.dumps(instance_to_dict(inst), sort_keys=True)


def test_generation_is_deterministic():
    a = generate(seed=42, n_nodes=15, n_hubs=4, n_commodities=10)
    b = generate(seed=42, n_nodes=15, n_hubs=4, n_commodities=10)
    assert canonical(a) == canonical(b)
    c = generate(seed=43, n_nodes=15, n_hubs=4, n_commodities=10)
    assert canonical(a) != canonical(c)


def test_all_nodes_can_be_hubs():
    inst = generate(seed=1, n_nodes=6, n_hubs=6, n_commodities=4, horizon=(0, 60))
    assert set(inst.hubs) == set(inst.nodes)
    assert validate(inst).ok


@pytest.mark.parametrize("seed", range(5))
def test_generated_instances_validate(seed):
    inst = generate(seed=seed, n_nodes=20, n_hubs=3, n_commodities=15)
    assert validate(inst).ok


def test_generated_matrices_are_metric():
    inst = generate(seed=7, n_nodes=25, n_hubs=5, n_commodities=5)
    t = inst.travel_time
    n = len(inst.nodes)
    for k in range(n):
        assert np.all(t <= t[:, [k]] + t[[k], :] + 1e-9)


def test_speed_factor_decouples_time_from_distance():
    inst = generate(seed=3, n_nodes=8, n_hubs=2, n_commodities=3, minutes_per_km=2.5)
    assert np.allclose(inst.travel_time, inst.travel_dist * 2.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate(seed=0, n_nodes=4, n_hubs=5, n_commodities=1)
    with pytest.raises(ValueError):
        generate(seed=0, n_nodes=1, n_hubs=1, n_commodities=1)
    with pytest.raises(ValueError, match="horizon"):
        generate(seed=0, n_nodes=4, n_hubs=1, n_commodities=0, horizon=(10.0, 5.0))


def test_perturbation_deterministic_and_complete():
    inst = generate(seed=11, n_nodes=10, n_hubs=3, n_commodities=6)
    a = perturb_arrival_estimates(inst, 1.0, seed=9)
    b = perturb_arrival_estimates(inst, 1.0, seed=9)
    assert a == b
    assert set(a) == {(c.id, h) for c in inst.commodities for h in inst.hubs}
    c = perturb_arrival_estimates(inst, 1.0, seed=10)
    assert a != c


def test_perturbation_vanishes_at_tiny_scale():
    inst = generate(seed=11, n_nodes=10, n_hubs=3, n_commodities=6)
    offsets = perturb_arrival_estimates(inst, 1e-12, seed=4)
    assert max(abs(v) for v in offsets.values()) < 1e-9


def test_perturbation_rejects_nonpositive_scale():
    inst = generate(seed=11, n_nodes=5, n_hubs=2, n_commodities=2)
    with pytest.raises(ValueError):
        perturb_arrival_estimates(inst, 0.0, seed=1)


def test_perturbation_mean_near_zero():
    # 100 commodities x 10 hubs = 1e3 draws per seed; pool 100 seeds for 1e5.
    inst = generate(seed=2, n_nodes=20, n_hubs=10, n_commodities=100)
    values = []
    for seed in range(100):
        values.extend(perturb_arrival_estimates(inst, 1.0, seed=seed).values())
    n = len(values)
    assert n == 100_000
    # Laplace(0, 1) has variance 2; the sample mean is within 3 standard errors.
    assert abs(float(np.mean(values))) < 3.0 * math.sqrt(2.0 / n)
