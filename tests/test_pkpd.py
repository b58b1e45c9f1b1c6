import numpy as np
import pytest

from anesmpc import pkpd
from anesmpc.errors import ModelConfigError

from conftest import random_pk


def simple_pk():
    # V1=1, Cl1=Cl2=Cl3=0.1, ke=0.2 -> k10=k12=k13=0.1
    return pkpd.DrugPkParams(V1=1.0, V2=1.0, V3=1.0, Cl1=0.1, Cl2=0.1, Cl3=0.1, ke=0.2)


class TestBuildContinuous:
    def test_fast_block_direct_substitution(self):
        cont = pkpd.build_continuous(simple_pk(), simple_pk())
        np.testing.assert_allclose(cont.A_f[:2, :2], [[-0.3, 0.0], [0.2, -0.2]])

    def test_cross_drug_blocks_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cont = pkpd.build_continuous(random_pk(rng), random_pk(rng))
            for M in (cont.A_f, cont.A_s, cont.A_ss, cont.A_sf):
                assert np.all(M[:2, 2:] == 0.0)
                assert np.all(M[2:, :2] == 0.0)
            assert np.all(cont.B[:2, 1:] == 0.0)
            assert np.all(cont.B[2:, :1] == 0.0)

    def test_mass_balance_column_sums(self):
        # bookkeeping oracle in drug-amount coordinates (blood, muscle,
        # fat): flows between mass compartments cancel columnwise except
        # the elimination k10 leaving blood; the effect site is a massless
        # unit-DC-gain observer that feeds nothing back
        rng = np.random.default_rng(1)
        for _ in range(10):
            pk = random_pk(rng)
            cont = pkpd.build_continuous(pk, pk)
            full = np.block([[cont.A_f, cont.A_s], [cont.A_sf, cont.A_ss]])
            vol = np.array([pk.V1, 0.0, pk.V1, 0.0, pk.V2, pk.V3, pk.V2, pk.V3])
            mass = [0, 4, 5]  # propofol blood, muscle, fat rows/cols
            amount_flow = vol[mass, None] * full[np.ix_(mass, mass)] / vol[None, mass]
            colsum = amount_flow.sum(axis=0)
            np.testing.assert_allclose(colsum, [-pk.k10, 0.0, 0.0], atol=1e-12)
            assert np.all(colsum <= 1e-12)
            # effect-site column couples only to itself
            np.testing.assert_allclose(np.delete(full[:, 1], 1), 0.0)
            assert full[1, 1] == -pk.ke

    def test_af_hurwitz_and_metzler(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cont = pkpd.build_continuous(random_pk(rng), random_pk(rng))
            assert np.all(np.linalg.eigvals(cont.A_f).real < 0.0)
            off = cont.A_f - np.diag(np.diag(cont.A_f))
            assert np.all(off >= 0.0)

    def test_invalid_param_names_field(self):
        with pytest.raises(ModelConfigError, match="Cl2"):
            pkpd.DrugPkParams(V1=1, V2=1, V3=1, Cl1=0.1, Cl2=0.0, Cl3=0.1, ke=0.2)

    @pytest.mark.parametrize("name, value", [("V2", np.inf), ("Cl1", np.nan)])
    def test_non_finite_pk_param_named(self, name, value):
        kwargs = dict(V1=1, V2=1, V3=1, Cl1=0.1, Cl2=0.1, Cl3=0.1, ke=0.2)
        kwargs[name] = value
        with pytest.raises(ModelConfigError, match=f"{name} must be finite"):
            pkpd.DrugPkParams(**kwargs)

    @pytest.mark.parametrize("name", ["Emax", "gamma", "Ce50p", "Ce50r"])
    def test_non_finite_pd_param_named(self, name):
        kwargs = dict(E0=97.4, Emax=97.4, gamma=1.43, Ce50p=4.47, Ce50r=19.3)
        kwargs[name] = np.inf
        with pytest.raises(ModelConfigError, match=f"{name} must be finite"):
            pkpd.PdParams(**kwargs)


class TestDiscretizeEuler:
    def test_small_ts_limit(self):
        cont = pkpd.build_continuous(simple_pk(), simple_pk())
        disc = pkpd.discretize_euler(cont, 1e-9)
        np.testing.assert_allclose(disc.A_f, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(disc.B, 0.0, atol=1e-8)

    def test_scalar_block_value(self):
        cont = pkpd.build_continuous(simple_pk(), simple_pk())
        # blood diagonal -0.3 -> 1 + 5*(-0.3) would go negative; use Ts=2
        disc = pkpd.discretize_euler(cont, 2.0)
        assert disc.A_f[0, 0] == pytest.approx(1 + 2 * (-0.3))

    def test_operating_ts_accepted(self, cont):
        disc = pkpd.discretize_euler(cont, 5.0)
        assert disc.Ts == 5.0
        assert np.all(disc.A_f >= 0.0)
        assert np.max(np.abs(np.linalg.eigvals(disc.A_f))) < 1.0

    def test_unstable_ts_rejected_with_radius(self):
        cont = pkpd.build_continuous(simple_pk(), simple_pk())
        with pytest.raises(ModelConfigError, match="positivity|spectral radius"):
            pkpd.discretize_euler(cont, 50.0)

    def test_ts_must_be_positive(self, cont):
        with pytest.raises(ModelConfigError):
            pkpd.discretize_euler(cont, 0.0)


class TestHill:
    def test_zero_concentration_gives_e0(self, patient):
        assert pkpd.bis_output(np.zeros(4), patient.pd) == pytest.approx(patient.pd.E0)

    def test_half_effect_by_construction(self, patient):
        pd = patient.pd
        xf = np.array([0.0, pd.Ce50p, 0.0, 0.0])
        assert pkpd.bis_output(xf, pd) == pytest.approx(pd.E0 - pd.Emax / 2)

    def test_symmetric_100_at_u1(self):
        pd = pkpd.PdParams(E0=100.0, Emax=100.0, gamma=2.0, Ce50p=4.0, Ce50r=20.0)
        xf = np.array([0.0, 2.0, 0.0, 10.0])  # U = 0.5 + 0.5 = 1
        assert pkpd.bis_output(xf, pd) == pytest.approx(50.0)

    def test_invert_examples(self):
        pd = pkpd.PdParams(E0=100.0, Emax=100.0, gamma=3.7, Ce50p=4.0, Ce50r=20.0)
        assert pkpd.hill_invert(50.0, pd) == pytest.approx(1.0)
        assert pkpd.hill_invert(100.0, pd) == 0.0

    def test_invert_domain_error(self, patient):
        with pytest.raises(ModelConfigError):
            pkpd.hill_invert(patient.pd.E0 + 1.0, patient.pd)
        with pytest.raises(ModelConfigError):
            pkpd.hill_invert(patient.pd.E0 - patient.pd.Emax, patient.pd)

    def test_roundtrip_100_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            e0 = rng.uniform(60.0, 100.0)
            pd = pkpd.PdParams(
                E0=e0,
                Emax=rng.uniform(0.8 * e0, 1.2 * e0),
                gamma=rng.uniform(1.0, 4.0),
                Ce50p=rng.uniform(2.0, 8.0),
                Ce50r=rng.uniform(10.0, 30.0),
            )
            lo = max(pd.E0 - pd.Emax, 0.0) + 1.0
            y_ref = rng.uniform(lo, pd.E0 - 1.0)
            c = pkpd.hill_invert(y_ref, pd)
            split = rng.uniform(0.0, 1.0)
            xf = np.array([0.0, split * c * pd.Ce50p, 0.0, (1 - split) * c * pd.Ce50r])
            assert abs(pkpd.bis_output(xf, pd) - y_ref) <= 1e-10

    def test_strictly_decreasing_in_effect_sites(self, patient):
        rng = np.random.default_rng(4)
        pd = patient.pd
        for _ in range(50):
            xf = rng.uniform(0.0, 5.0, size=4)
            base = pkpd.bis_output(xf, pd)
            for idx in (1, 3):
                bumped = xf.copy()
                bumped[idx] += 0.05
                assert pkpd.bis_output(bumped, pd) < base

    def test_float_evaluation_matches_the_numpy_formula(self, patient):
        # the Hill curve as numpy scalars, the reference bis_output must
        # match to the bit
        pd = patient.pd
        rng = np.random.default_rng(11)
        scale = np.array([1.0, pd.Ce50p, 1.0, pd.Ce50r])
        for _ in range(1000):
            xf = rng.uniform(0.0, 3.0, size=4) * scale
            ref = pkpd.as_fast_state(xf)
            U = ref[1] / pd.Ce50p + ref[3] / pd.Ce50r
            expected = float(pd.E0 - pd.Emax * U**pd.gamma / (1.0 + U**pd.gamma))
            got = pkpd.bis_output(xf, pd)
            assert type(got) is float and got == expected

    def test_negative_potency_raises(self, patient):
        assert patient.pd.gamma != int(patient.pd.gamma)
        with pytest.raises(ValueError):
            pkpd.bis_output([0.0, -1.0, 0.0, 0.0], patient.pd)

    @pytest.mark.parametrize("xf, cause", [
        (np.zeros(3), "fast state must have 4 entries"),
        (np.zeros(5), "fast state must have 4 entries"),
        ([0.0, np.nan, 0.0, 0.0], "fast state contains NaN or Inf"),
        ([0.0, 0.0, 0.0, np.inf], "fast state contains NaN or Inf"),
        ([-np.inf, 0.0, 0.0, 0.0], "fast state contains NaN or Inf"),
    ])
    def test_state_checked_as_as_fast_state_checks_it(self, patient, xf, cause):
        with pytest.raises(ModelConfigError, match=cause) as info:
            pkpd.bis_output(xf, patient.pd)
        with pytest.raises(ModelConfigError) as direct:
            pkpd.as_fast_state(xf)
        assert str(info.value) == str(direct.value)


class TestSteadyOutputRow:
    def test_equilibrium_invariant_to_ts(self, cont, patient):
        ref = None
        for ts in (1.0, 5.0, 10.0):
            disc = pkpd.discretize_euler(cont, ts)
            g_eff, c = pkpd.steady_output_row(disc, patient.pd, 50.0)
            if ref is None:
                ref = g_eff
            else:
                np.testing.assert_allclose(g_eff, ref, rtol=1e-12)
        G = np.array([0.0, 1.0 / patient.pd.Ce50p, 0.0, 1.0 / patient.pd.Ce50r])
        cont_row = G @ np.linalg.solve(-cont.A_f, cont.B)
        np.testing.assert_allclose(ref, cont_row, rtol=1e-12)

    def test_row_strictly_positive(self, disc, patient):
        g_eff, _ = pkpd.steady_output_row(disc, patient.pd, 50.0)
        assert np.all(g_eff > 0.0)

    def test_admissible_steady_line_is_a_segment(self, disc, patient):
        # the line g_eff . v = c clipped to the reference input box is a
        # nondegenerate one-dimensional segment
        g_eff, c = pkpd.steady_output_row(disc, patient.pd, 50.0)
        v2_at_v1min = (c - g_eff[0] * 0.12) / g_eff[1]
        v2_at_v1max = (c - g_eff[0] * 6.67) / g_eff[1]
        assert 0.27 <= v2_at_v1min <= 16.67
        assert v2_at_v1max < 0.27  # the line exits through the v2 lower bound


class TestLoader:
    def test_units_converted_per_second(self, patient):
        # file stores 2.19683... L/min for propofol Cl1
        assert patient.pk_propofol.Cl1 == pytest.approx(2.19683120624 / 60.0)
        assert patient.pk_propofol.V1 == pytest.approx(6.81079684998)
        assert patient.pk_remifentanil.ke == pytest.approx(0.594091278594 / 60.0)

    def test_missing_key_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[propofol]\nV1 = 1\n")
        with pytest.raises(ModelConfigError, match="V2|propofol"):
            pkpd.load_patient(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelConfigError):
            pkpd.load_patient(tmp_path / "absent.ini")

    def test_pd_validation(self):
        with pytest.raises(ModelConfigError, match="E0"):
            pkpd.PdParams(E0=0.0, Emax=97.4, gamma=1.43, Ce50p=4.47, Ce50r=19.3)
