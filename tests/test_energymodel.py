import math

import numpy as np
import pytest

from carriersim.energymodel import (
    EnergyHyper,
    _forward,
    _gradient,
    _init_weights,
    _layers,
    build_energy_samples,
    carrier_order,
    encode_features,
    fit_feature_schema,
    load_energy_model,
    nll_gradient,
    nll_loss,
    predict_energy,
    predict_mean_energy,
    RadioHourSample,
    samples_from_means,
    save_energy_model,
    train_energy_model,
)
from carriersim.errors import (
    EmptyTrainingSetError,
    NonPositiveSigmaError,
    TooManyCarriersError,
    UnknownRadioTypeError,
)

from conftest import make_network


def array_points(n=40):
    rng = np.random.default_rng(5)
    return (rng.uniform(-5, 5, n), rng.uniform(-5, 5, n),
            rng.uniform(0.1, 3.0, n))


class TestNllLoss:
    def test_zero_error_unit_sigma(self):
        assert nll_loss(1.0, 1.0, 1.0) == 0.0

    def test_pure_error_term(self):
        assert nll_loss(2.0, 0.0, 1.0) == 2.0

    def test_pure_sigma_term(self):
        assert nll_loss(0.0, 0.0, math.e) == pytest.approx(1.0, rel=1e-15)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(NonPositiveSigmaError):
            nll_loss(0.0, 0.0, 0.0)
        with pytest.raises(NonPositiveSigmaError):
            nll_gradient(0.0, 0.0, -1.0)

    def test_elementwise_equals_scalar_calls(self):
        y, mu, sigma = array_points()
        losses = nll_loss(y, mu, sigma)
        assert losses.shape == y.shape
        for k, point in enumerate(zip(y.tolist(), mu.tolist(), sigma.tolist())):
            assert losses[k] == nll_loss(*point)

    def test_one_nonpositive_sigma_in_an_array_rejected(self):
        y, mu, sigma = array_points()
        for bad in (0.0, -1e-12):
            sigma[17] = bad
            with pytest.raises(NonPositiveSigmaError):
                nll_loss(y, mu, sigma)
            with pytest.raises(NonPositiveSigmaError):
                nll_gradient(y, mu, sigma)


class TestNllGradient:
    def test_hand_computed_point(self):
        # dl/dmu = (mu - y)/sigma^2 = -2 ; dl/dsigma = 1/sigma - (y-mu)^2/sigma^3 = -3
        assert nll_gradient(2.0, 0.0, 1.0) == (-2.0, -3.0)

    def test_stationary_in_mu_at_fit(self):
        dmu, dsigma = nll_gradient(5.0, 5.0, 1.0)
        assert dmu == 0.0
        assert dsigma == 1.0

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(200):
            y = rng.uniform(-5, 5)
            mu = y + rng.choice([-1, 1]) * rng.uniform(0.2, 3)
            sigma = rng.uniform(0.5, 2.5)
            dmu, dsigma = nll_gradient(y, mu, sigma)
            fd_mu = (nll_loss(y, mu + h, sigma) - nll_loss(y, mu - h, sigma)) / (2 * h)
            fd_sigma = (nll_loss(y, mu, sigma + h) - nll_loss(y, mu, sigma - h)) / (2 * h)
            assert dmu == pytest.approx(fd_mu, rel=1e-6, abs=1e-8)
            assert dsigma == pytest.approx(fd_sigma, rel=1e-6, abs=1e-8)

    def test_elementwise_equals_scalar_calls(self):
        y, mu, sigma = array_points()
        dmu, dsigma = nll_gradient(y, mu, sigma)
        for k, point in enumerate(zip(y.tolist(), mu.tolist(), sigma.tolist())):
            assert (dmu[k], dsigma[k]) == nll_gradient(*point)


def schema_fixture(n_capacity=2, n_coverage=1):
    cfg = make_network(n_capacity=n_capacity, n_coverage=n_coverage)
    radios = {r.id: r for r in cfg.radio_units}
    samples = []
    for cell in cfg.cells:
        radio = radios[cell.radio_unit]
        samples.append(RadioHourSample(
            radio=radio, cells=(cell,), dl_loads={cell.id: 0.5},
            cs_fractions={cell.id: 0.0}, energy_wh=100.0))
    return cfg, radios, samples


class TestFeatureEncoding:
    def test_vector_length_matches_type_count_plus_slots(self):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=6)
        vec = encode_features(schema, radios["ru-c1"], (cfg.cell("c1"),),
                              {"c1": 0.4}, {"c1": 0.0})
        # 2 radio types in the fixture network + 10 * 6 carrier slots
        assert len(vec) == 2 + 60
        assert schema.n_features == 62

    def test_production_scale_input_width(self):
        # 24 radio types and 6 carrier slots give an 84-wide input layer
        from carriersim.datamodel import Cell, RadioUnit

        rows = []
        for t in range(24):
            cell = Cell(id=f"x{t}", radio_unit=f"ru-x{t}",
                        frequency_mhz=3500.0, bandwidth_mhz=100.0,
                        max_tx_power_dbm=46.0, n_dl_prb=270, n_ul_prb=135)
            radio = RadioUnit(id=f"ru-x{t}", radio_type=f"type-{t:02d}",
                              n_trx=32, carrier_tx_mode="32T32R",
                              cell_ids=(cell.id,))
            rows.append(RadioHourSample(radio=radio, cells=(cell,),
                                        dl_loads={cell.id: 0.5},
                                        cs_fractions={cell.id: 0.0},
                                        energy_wh=100.0))
        schema = fit_feature_schema(rows, max_carriers=6)
        assert schema.n_features == 84
        vec = encode_features(schema, rows[0].radio, rows[0].cells,
                              rows[0].dl_loads, rows[0].cs_fractions)
        assert len(vec) == 84

    def test_absent_carrier_slots_all_zero(self):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=6)
        vec = encode_features(schema, radios["ru-c1"], (cfg.cell("c1"),),
                              {"c1": 0.4}, {"c1": 0.0})
        tail = vec[len(schema.radio_types) + 10:]
        assert np.all(tail == 0.0)

    def test_reserved_positions_stay_zero(self):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=6)
        vec = encode_features(schema, radios["ru-c1"], (cfg.cell("c1"),),
                              {"c1": 0.4}, {"c1": 0.3})
        slot = vec[len(schema.radio_types):len(schema.radio_types) + 10]
        assert np.all(slot[7:] == 0.0)

    def test_unknown_radio_type_rejected(self):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=6)
        from carriersim.datamodel import RadioUnit

        stranger = RadioUnit(id="x", radio_type="unseen", n_trx=2,
                             carrier_tx_mode="mode0", cell_ids=("c1",))
        with pytest.raises(UnknownRadioTypeError):
            encode_features(schema, stranger, (cfg.cell("c1"),), {}, {})

    def test_too_many_carriers_rejected(self):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=1)
        with pytest.raises(TooManyCarriersError):
            encode_features(schema, radios["ru-c1"],
                            (cfg.cell("c1"), cfg.cell("c2")), {}, {})

    def test_carrier_order_descending_bandwidth_then_id(self):
        cfg, _, _ = schema_fixture()
        cells = [cfg.cell("b1"), cfg.cell("c2"), cfg.cell("c1")]
        assert [c.id for c in carrier_order(cells)] == ["c1", "c2", "b1"]

    def test_build_energy_samples_joins_kpi_and_energy(self):
        from conftest import make_energy, make_kpi, stack

        cfg = make_network()
        kpis = stack(make_kpi(cell_id=c.id, day=1, hour=1, dl_prbs=27.0)
                     for c in cfg.cells)
        energies = make_energy("ru-c1", 1, 1, 432.1)
        rows = build_energy_samples(cfg, kpis, energies)
        assert len(rows) == 1
        assert rows[0].dl_loads["c1"] == pytest.approx(27.0 / 270)
        assert rows[0].energy_wh == 432.1


    def test_samples_from_means_clamp_load_and_scale_shutdown(self):
        cfg = make_network()
        keys = [(c.id, hour) for c in cfg.cells for hour in range(1, 25)]
        load = dict.fromkeys(keys, 0.25) | {("c1", 3): 1.5, ("b1", 4): -0.5}
        rows = samples_from_means(cfg, load, dict.fromkeys(keys, 15.0))
        assert list(rows) == [(r.id, hour) for r in cfg.radio_units
                              for hour in range(1, 25)]
        assert rows["ru-c1", 3].dl_loads == {"c1": 1.0}
        assert rows["ru-b1", 4].dl_loads == {"b1": 0.0}
        assert rows["ru-c1", 5].cs_fractions == {"c1": 0.25}
        assert rows["ru-c1", 5].cells == (cfg.cell("c1"),)

    def test_predict_mean_energy_is_predict_energy_row_by_row(self):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=6)
        pairs = [(encode_features(schema, s.radio, s.cells, s.dl_loads,
                                  s.cs_fractions), s.energy_wh + i)
                 for i, s in enumerate(samples * 4)]
        model = train_energy_model(pairs, EnergyHyper(max_epochs=5,
                                                      patience=5),
                                   schema=schema)
        assert predict_mean_energy(model, samples) == [
            predict_energy(model, vec)[0] for vec, _ in pairs[:len(samples)]]


class TestNetworkGradients:
    def test_full_network_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        n_in, n = 7, 12
        theta = _init_weights(n_in, rng)
        weights = _layers(theta, n_in)
        X = rng.normal(size=(n, n_in))
        y = rng.uniform(0.2, 0.8, size=n)
        floor = 1e-3

        def loss():
            mu, sigma, _ = _forward(weights, X, floor)
            return np.mean(nll_loss(y, mu, sigma))

        grads = _layers(_gradient(weights, X, y, floor), n_in)
        h = 1e-5
        for wi in range(len(weights)):
            flat = weights[wi].reshape(-1)
            gflat = grads[wi].reshape(-1)
            for j in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[j]
                flat[j] = orig + h
                up = loss()
                flat[j] = orig - h
                down = loss()
                flat[j] = orig
                fd = (up - down) / (2 * h)
                assert gflat[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def constant_pairs(n, value, noise, rng, n_in=5):
    X = rng.normal(size=(n, n_in))
    y = value + rng.normal(0.0, noise, size=n)
    return [(X[i], float(y[i])) for i in range(n)]


class TestTraining:
    def test_constant_target_recovers_mean_and_noise(self):
        rng = np.random.default_rng(1)
        value, noise = 50.0, 2.0
        pairs = constant_pairs(1500, value, noise, rng)
        hyper = EnergyHyper(max_epochs=400, patience=200, seed=0)
        model = train_energy_model(pairs, hyper)
        mus, sigmas = [], []
        for vec, _ in pairs[:200]:
            mu, sigma = predict_energy(model, vec)
            mus.append(mu)
            sigmas.append(sigma)
        # closed-form NLL optimum on i.i.d. Gaussian data: mu -> mean, sigma -> noise
        assert np.mean(mus) == pytest.approx(value, rel=0.02)
        assert np.mean(sigmas) == pytest.approx(noise, rel=0.2)

    def test_sigma_floor_enforced(self):
        rng = np.random.default_rng(2)
        pairs = constant_pairs(50, 10.0, 0.0, rng)
        model = train_energy_model(pairs, EnergyHyper(max_epochs=50, patience=10))
        mu, sigma = predict_energy(model, pairs[0][0])
        assert sigma >= model.sigma_floor_fraction * model.y_max > 0
        assert mu >= 0.0

    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(4)
        pairs = constant_pairs(60, 20.0, 1.0, rng)
        model = train_energy_model(pairs, EnergyHyper(max_epochs=30, patience=10))
        a = predict_energy(model, pairs[0][0])
        b = predict_energy(model, pairs[0][0])
        assert a == b

    def test_seeded_training_reproducible(self):
        rng = np.random.default_rng(5)
        pairs = constant_pairs(120, 30.0, 1.5, rng)
        hyper = EnergyHyper(max_epochs=40, patience=10, seed=9)
        m1 = train_energy_model(pairs, hyper)
        m2 = train_energy_model(pairs, hyper)
        assert m1.history == m2.history
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_validation_checkpoint_losses_non_increasing(self):
        rng = np.random.default_rng(6)
        pairs = constant_pairs(300, 25.0, 1.0, rng)
        model = train_energy_model(pairs, EnergyHyper(max_epochs=150, patience=40))
        losses = [loss for _, loss in model.history]
        assert losses == sorted(losses, reverse=True)

    def test_too_few_samples_rejected(self):
        with pytest.raises(EmptyTrainingSetError):
            train_energy_model([(np.zeros(3), 1.0)])

    def test_sleeping_carrier_predicts_idle_sleep_power(self):
        # features: [load, cs_fraction]; energy = (1-cs)(idle + k*load) + cs*sleep
        rng = np.random.default_rng(10)
        idle, slope, sleep = 250.0, 150.0, 90.0
        pairs = []
        for _ in range(4000):
            load = float(rng.uniform(0, 1))
            cs = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            energy = (1 - cs) * (idle + slope * load) + cs * sleep
            pairs.append((np.array([load, cs]),
                          energy + float(rng.normal(0, 2.0))))
        model = train_energy_model(pairs, EnergyHyper(max_epochs=600,
                                                      patience=200, seed=2))
        mu, _ = predict_energy(model, np.array([0.0, 1.0]))
        assert mu == pytest.approx(sleep, rel=0.10)

    def test_sigma_converges_on_linear_data(self):
        # y = a*load + b + N(0, s): learned sigma within 20% of s at 1e4 rows
        rng = np.random.default_rng(11)
        a, b, s = 150.0, 240.0, 4.0
        loads = rng.uniform(0, 1, size=10_000)
        pairs = [(np.array([load]), a * load + b + float(rng.normal(0, s)))
                 for load in loads]
        model = train_energy_model(pairs, EnergyHyper(max_epochs=600,
                                                      patience=200, seed=3))
        sigmas = [predict_energy(model, vec)[1] for vec, _ in pairs[:500]]
        assert np.mean(sigmas) == pytest.approx(s, rel=0.20)

    def test_sample_order_permutation_stable_mape(self):
        rng = np.random.default_rng(12)
        loads = rng.uniform(0, 1, size=2000)
        pairs = [(np.array([load]), 100.0 * load + 200.0
                  + float(rng.normal(0, 1.0))) for load in loads]
        hyper = EnergyHyper(max_epochs=300, patience=100, seed=4)
        shuffled = list(pairs)
        np.random.default_rng(99).shuffle(shuffled)

        def mape(model):
            errs = [abs(predict_energy(model, v)[0] - y) / y
                    for v, y in pairs[:300]]
            return 100.0 * float(np.mean(errs))

        m1 = mape(train_energy_model(pairs, hyper))
        m2 = mape(train_energy_model(shuffled, hyper))
        assert abs(m1 - m2) <= 1.0


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        cfg, radios, samples = schema_fixture()
        schema = fit_feature_schema(samples, max_carriers=6)
        pairs = [(encode_features(schema, s.radio, s.cells, s.dl_loads,
                                  s.cs_fractions), s.energy_wh + i)
                 for i, s in enumerate(samples * 10)]
        model = train_energy_model(pairs, EnergyHyper(max_epochs=20, patience=5),
                                   schema=schema)
        path = tmp_path / "energy.json"
        save_energy_model(path, model)
        loaded = load_energy_model(path)
        vec = pairs[0][0]
        assert predict_energy(loaded, vec) == predict_energy(model, vec)
        save_energy_model(tmp_path / "again.json", loaded)
        assert (tmp_path / "energy.json").read_bytes() == \
               (tmp_path / "again.json").read_bytes()
