import json

import numpy as np
import pytest

import sppc
from sppc import config as cfgmod
from sppc.errors import ConfigError


FULL_DOC = {
    "plant": {"poles": [-1.4396, [1.0808, 0.6664], [1.0808, -0.6664], 0.022]},
    "N": 10,
    "Q": "identity",
    "alpha": 0.5,
    "solver": "both",
    "lambda": 1.0,
    "x0": [0.5, 0.5, 0.5, 0.5],
    "p_drop": 0.5,
    "steps": 100,
    "trials": 500,
    "seed": 20260814,
}


TWO_POLES = {"poles": [0.5, 0.2]}


def minimal_doc(**extra):
    doc = {"plant": {"poles": [0.5]}, "N": 3}
    doc.update(extra)
    return doc


def test_full_document_round_trip():
    cfg = cfgmod.from_dict(FULL_DOC)
    assert cfg == FULL_DOC
    assert list(cfg) == ["plant", "N", "Q", "alpha", "solver", "x0", "p_drop", "steps",
                         "trials", "seed", "lambda"]
    assert cfgmod.from_dict(cfg) == cfg


def test_defaults_applied():
    cfg = cfgmod.from_dict(minimal_doc())
    assert cfg["Q"] == "identity"
    assert cfg["alpha"] == 0.5
    assert cfg["solver"] == "omp"
    assert "lambda" not in cfg
    assert "x0" not in cfg
    assert cfg["p_drop"] == 0.5
    assert cfg["steps"] == 100
    assert cfg["trials"] == 1
    assert cfg["seed"] == 0


def test_default_round_trip_omits_optionals():
    doc = cfgmod.from_dict(minimal_doc())
    assert "lambda" not in doc
    assert "x0" not in doc
    assert cfgmod.from_dict(doc) == doc


def test_integer_entries_canonicalized_to_floats():
    doc = {"plant": {"A": [[2]], "B": [1]}, "N": 2, "x0": [1]}
    cfg = cfgmod.from_dict(doc)
    assert cfg["plant"] == {"A": [[2.0]], "B": [[1.0]]}
    assert cfg["x0"] == [1.0]


def test_flat_b_becomes_column():
    cfg = cfgmod.from_dict({"plant": {"A": [[0.0, 1.0], [0.25, 0.0]],
                                      "B": [0.0, 1.0]}, "N": 2})
    assert cfg["plant"]["B"] == [[0.0], [1.0]]


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("plant"),
    lambda d: d.pop("N"),
    lambda d: d.update(budget=3),
    lambda d: d.update(plant={"A": [[1.0]], "B": [[1.0]], "poles": [0.5]}),
    lambda d: d.update(plant={}),
    lambda d: d.update(plant={"poles": []}),
    lambda d: d.update(plant={"poles": ["fast"]}),
    lambda d: d.update(plant={"poles": [[1.0, 2.0, 3.0]]}),
    lambda d: d.update(plant={"A": [[1.0, 0.0]], "B": [[1.0]]}),
    lambda d: d.update(plant={"A": [[1.0]], "B": [[1.0], [2.0]]}),
    lambda d: d.update(plant={"A": [[1.0]], "B": [[1.0, 2.0]]}),
    lambda d: d.update(plant={"A": [[1.0]]}),
    lambda d: d.update(N=0),
    lambda d: d.update(N=2.5),
    lambda d: d.update(N=True),
    lambda d: d.update(Q=[[1.0, 0.0], [0.0, 1.0]]),
    lambda d: d.update(Q=[[1.0], [2.0]]),
    lambda d: d.update(alpha=0.0),
    lambda d: d.update(alpha=1.0),
    lambda d: d.update(alpha="half"),
    lambda d: d.update(c_interpretation="rowwise"),
    lambda d: d.update(c_interpretation="block_row"),
    lambda d: d.update(solver="newton"),
    lambda d: d.update(**{"lambda": 0.0}),
    lambda d: d.update(**{"lambda": -1.0}),
    lambda d: d.update(x0=[1.0, 2.0]),
    lambda d: d.update(x0=0.5),
    lambda d: d.update(p_drop=-0.1),
    lambda d: d.update(p_drop=1.1),
    lambda d: d.update(steps=-1),
    lambda d: d.update(trials=0),
    lambda d: d.update(seed=-1),
    lambda d: d.update(seed=2 ** 64),
    lambda d: d.update(plant={"poles": [10 ** 400]}),   # no float holds it
    # numpy reads a bool among numbers as 0 or 1; the document may not
    lambda d: d.update(plant={"A": [[1.0, True], [0, 1]], "B": [[0.0], [1.0]]}),
    lambda d: d.update(plant={"A": [[0.0, 1.0], [0.25, 0.0]], "B": [0.0, True]}),
    lambda d: d.update(plant=TWO_POLES, Q=[[True, 0.0], [0.0, 1.0]]),
    lambda d: d.update(plant=TWO_POLES, x0=[1.0, True]),
    lambda d: d.update(plant={"poles": [[True, 0.5], [1.0, -0.5]]}),
    lambda d: d.update(plant=TWO_POLES, Q=[[1.0, 0.0], [0.0]]),
    lambda d: d.update(plant={"B": [[1.0]]}),
])
def test_invalid_documents_rejected(mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        cfgmod.from_dict(doc)


def test_legacy_c_key_accepted_and_dropped():
    # c has one reading; documents that still name it parse to the same config
    cfg = cfgmod.from_dict(minimal_doc(c_interpretation="column_lift"))
    assert cfg == cfgmod.from_dict(minimal_doc())
    assert "c_interpretation" not in cfg


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FULL_DOC))
    assert cfgmod.load_config(str(path)) == cfgmod.from_dict(FULL_DOC)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError):
        cfgmod.load_config(str(path))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cfgmod.load_config(str(tmp_path / "absent.json"))


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_doc(**{"lambda": 1.0})))
    cfg = cfgmod.load_config(str(path))
    out = cfgmod.load_config(str(path), seed=7, trials=9, solver="l1")
    assert (out["seed"], out["trials"], out["solver"]) == (7, 9, "l1")
    assert out["N"] == cfg["N"]
    assert cfgmod.load_config(str(path), seed=None, trials=None,
                              solver=None) == cfg
    with pytest.raises(ConfigError):
        cfgmod.load_config(str(path), trials=0)
    with pytest.raises(ConfigError):
        cfgmod.load_config(str(path), solver="fast")
    with pytest.raises(ConfigError):
        cfgmod.load_config(str(path), seed=-1)
    # overrides are merged before the one validation, so a file value they
    # replace is never checked
    path.write_text(json.dumps(minimal_doc(trials=0)))
    assert cfgmod.load_config(str(path), trials=2)["trials"] == 2


def test_build_plant_explicit():
    cfg = cfgmod.from_dict({"plant": {"A": [[0.0, 1.0], [0.25, 0.0]],
                                      "B": [[0.0], [1.0]]}, "N": 2})
    plant = cfgmod.build_plant(cfg)
    np.testing.assert_allclose(plant.A, [[0.0, 1.0], [0.25, 0.0]])
    np.testing.assert_allclose(plant.B, [[0.0], [1.0]])


def test_build_plant_from_poles():
    cfg = cfgmod.from_dict(FULL_DOC)
    plant = cfgmod.build_plant(cfg)
    want = np.sort_complex(np.array([-1.4396, 1.0808 + 0.6664j,
                                     1.0808 - 0.6664j, 0.022]))
    got = np.sort_complex(np.linalg.eigvals(plant.A))
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_q_matrix():
    # "identity" reaches synthesis as the n x n identity, a matrix as given
    three_poles = minimal_doc(plant={"poles": [0.5, 0.2, -0.3]})
    for doc, q in ((three_poles, np.eye(3)), (minimal_doc(Q=[[2.0]]), [[2.0]])):
        result = cfgmod.run_synthesis(cfgmod.from_dict(doc))
        np.testing.assert_array_equal(result.Q, q)
        assert all(c.passed for c in sppc.check_invariants(result.plant, result))


def test_array_arguments_may_be_ndarrays():
    cfg = cfgmod.from_dict(minimal_doc(plant=TWO_POLES, Q=np.eye(2), x0=np.ones(2)))
    assert (cfg["Q"], cfg["x0"]) == ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_run_synthesis_produces_valid_parameters():
    cfg = cfgmod.from_dict(minimal_doc())
    result = cfgmod.run_synthesis(cfg)
    assert all(c.passed for c in sppc.check_invariants(result.plant, result))


def test_build_setup_resolves_document():
    cfg = cfgmod.from_dict(FULL_DOC)
    setup = cfgmod.build_setup(cfg)
    assert setup.solver == "both"
    assert setup.steps == 100
    assert setup.lam == 1.0
    np.testing.assert_allclose(setup.x0, [0.5, 0.5, 0.5, 0.5])
    assert setup.horizon.N == 10
    assert setup.horizon is setup.synthesis.horizon
    assert setup.plant.n == 4


def test_build_setup_requires_x0_and_lambda():
    with pytest.raises(ConfigError):
        cfgmod.build_setup(cfgmod.from_dict(minimal_doc()))
    doc = minimal_doc(x0=[1.0], solver="l1")
    with pytest.raises(ConfigError):
        cfgmod.build_setup(cfgmod.from_dict(doc))
    doc = minimal_doc(x0=[1.0], solver="both")
    with pytest.raises(ConfigError):
        cfgmod.build_setup(cfgmod.from_dict(doc))
