"""Fractional Adams PECE: weight formulas, accuracy, degenerations, guards."""

import math
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracoepi.mittag_leffler import ml_one
from fracoepi.model import (
    EquilibriumKind,
    ModelParams,
    State,
    equilibria,
    preset,
    vector_field,
)
from fracoepi.runs import cached_solve, solve_many
from fracoepi.solver import (
    _FFT_CAP,
    _GRIDS,
    _LEAF,
    DIVERGENCE_LIMIT,
    MIN_ORDER,
    NODE_CAP,
    DivergenceError,
    FodeProblem,
    SolverConfig,
    ValidationError,
    _add_block_history,
    _field_code,
    _lag_tables,
    abm_weights,
    solve_pece,
    text_field,
    validate_order,
)

from conftest import child_env

# quadrature oracle for the step onto node 11 at alpha = 0.85, h = 1
# (kernel integrated against the piecewise-constant / hat bases in 60-digit
# arithmetic; corrector values already divided by Gamma(alpha))
ORACLE_PREDICTOR_085_10 = [
    0.70282943024444378631, 0.71347059284423506983, 0.72548830134267954811,
    0.73925859715795818026, 0.75533049724287034632, 0.77454929692114795542,
    0.79831243027515245016, 0.8291752162163429372, 0.8725996781404589493,
    0.94411873555489469048, 1.1764705882352941176,
]
ORACLE_CORRECTOR_085_10 = [
    0.31513053790486388731, 0.63645674871022812805, 0.64661717448770770574,
    0.65817398565475207559, 0.67153647037281985929, 0.68731863963874815405,
    0.70650097378463798675, 0.73079064185391663452, 0.76357095991405583678,
    0.81321822818093987822, 0.91746860597016563246, 0.57163087115242245858,
]


# states of the direct-sum solver (every history sum a full dot product,
# O(N^2)) at nodes 1, 64, 129, 1000, 4097, 8193 and the last, recorded before
# the history sums moved to FFT convolutions
FROZEN_NODES_10K = (1, 64, 129, 1000, 4097, 8193, 10000)
FROZEN_NODES_40K = (1, 1000, 16385, 32769, 40000)
FROZEN_10K = {  # 10 000 nodes: step 0.05, t_end 500, the preset's first state
    ("example1", 0.35): [
        [31.31308665059352, 4.87411688165671, 9.83034740303169],
        [32.93545649032895, 4.717121524934682, 9.293407664803738],
        [33.11719748894977, 4.712065974075058, 9.110836583788647],
        [33.267971114657655, 4.902280701661161, 8.348918491814901],
        [32.75501968638626, 5.44612721541312, 7.667196297442781],
        [32.217696515557826, 5.916541602309072, 7.33134964097837],
        [32.027235437581375, 6.077259613471806, 7.238960805554637],
    ],
    ("example1", 0.6): [
        [30.83815491023525, 4.926291255224454, 9.920420217914089],
        [33.353864794876, 4.668224978774098, 9.060486078591541],
        [33.52819820514133, 4.708170013336903, 8.61868951441513],
        [31.537791746749534, 6.556588711401716, 6.7212196768776895],
        [27.91105645901085, 9.36446819122144, 5.7866448778387225],
        [26.68500788890659, 10.290109358472725, 5.391567766782268],
        [26.38517711322462, 10.516484454971572, 5.276373576860214],
    ],
    ("example1", 0.85): [
        [30.412138739294903, 4.964405626906097, 9.964521530051554],
        [33.77750476711033, 4.603517367944572, 8.8100715621814],
        [33.776097453464615, 4.756801139053522, 7.960048121303032],
        [26.311949558188083, 10.618397650378398, 5.053600402665377],
        [23.916125107354105, 12.388584801524154, 4.0449670322798115],
        [23.24678728832625, 12.895215578199299, 3.635584367479339],
        [23.09965985956443, 13.006880208941991, 3.5407864229655317],
    ],
    ("example1", 1.0): [
        [30.25482502734375, 4.978073392722575, 9.97860801775474],
        [34.035861612621446, 4.553374027266, 8.655994478843445],
        [33.84109515497124, 4.812111595430718, 7.47016594539283],
        [23.72193629195436, 12.539081361832352, 3.9308705620660938],
        [22.452566707443374, 13.49947079237156, 3.105876029901834],
        [22.29058195346797, 13.62276572206417, 2.991501712421819],
        [22.279309099184108, 13.631350816928963, 2.983473849770089],
    ],
    ("example1-global", 0.35): [
        [33.62136033152671, 4.012568196245011, 8.047930986746684],
        [34.31509074139186, 4.070804967921305, 8.228471097878145],
        [34.37210451958778, 4.0861815176491465, 8.29978839156589],
        [34.532127377012685, 4.0745958195125, 8.640870523834915],
        [34.76094799186246, 3.935681728810841, 8.94826928683303],
        [34.91999564973348, 3.826729406560694, 9.064858404306872],
        [34.96765364819078, 3.7937442060623496, 9.089737186570286],
    ],
    ("example1-global", 0.6): [
        [33.45022134077772, 4.000598461367859, 8.022630671450637],
        [34.449262011237586, 4.099633577727906, 8.309202089784723],
        [34.49519476980893, 4.125331352763185, 8.495501979513785],
        [35.145806971738686, 3.6744399715809415, 9.321538765793845],
        [35.5788560698032, 3.3776350994693116, 9.126653783369466],
        [35.62518370319975, 3.3503774971788216, 9.076175695682162],
        [35.6356290058003, 3.344087211806574, 9.06648348494881],
    ],
    ("example1-global", 0.85): [
        [33.228922951090205, 3.9993007301221146, 8.010116366052142],
        [34.56461389163773, 4.1351475823861, 8.39244658036493],
        [34.54794019875203, 4.166635603886584, 8.772969502558723],
        [35.869505518278146, 3.1783130336475844, 8.89333425549362],
        [35.705857769765174, 3.3010926605969977, 9.009087353758174],
        [35.712111227925526, 3.297214023674618, 9.00439329775599],
        [35.71322264771582, 3.296543772540326, 9.003392640805767],
    ],
    ("example1-global", 1.0): [
        [33.14272346072369, 3.9994156941111187, 8.006104309796369],
        [34.62286138081788, 4.1598521271764435, 8.440770497994524],
        [34.540025412920976, 4.193708390560448, 8.986139033653023],
        [34.974844732073315, 3.8725447340066323, 8.82928379266653],
        [35.862843652329474, 3.1776739800730063, 9.096534433676469],
        [35.69428873045365, 3.312363713984379, 8.991741551563921],
        [35.70843305001377, 3.3012915958508184, 8.996094951882815],
    ],
    ("example2", 0.35): [
        [17.596151837727827, 13.844128793161998, 0.48999289564006665],
        [19.70125242043139, 14.096756549388108, 0.4597928129631659],
        [19.90773846613924, 14.246058982699937, 0.4497765021255606],
        [20.00377033230659, 14.81829449594694, 0.4071363049213478],
        [19.792732092110672, 15.223513514917512, 0.36378089450802564],
        [19.66349962781775, 15.400569859681532, 0.3381075472590287],
        [19.625926283399846, 15.448014689681372, 0.3302373202161598],
    ],
    ("example2", 0.6): [
        [16.821575556175464, 13.894410878279887, 0.4952531879376476],
        [20.27629715238983, 14.259513516103382, 0.4468401302094181],
        [20.30702045487524, 14.653814014088969, 0.42283761607684467],
        [19.4625513221603, 15.704699617703012, 0.3002190214992486],
        [19.06361895324816, 16.066369650882834, 0.18224450942923492],
        [18.937498738426434, 16.1764778549838, 0.12978486059663635],
        [18.9081017028282, 16.20192133217538, 0.11658302271113441],
    ],
    ("example2", 0.85): [
        [16.37812384777814, 13.946929453348346, 0.4978741154492832],
        [20.884015202946163, 14.442889935669822, 0.4328585631924313],
        [20.27219562462608, 15.235617929605148, 0.38714781066211834],
        [18.910358323858517, 16.21737303426183, 0.14146575673232054],
        [18.71683626707483, 16.368526567941448, 0.027374997363440123],
        [18.690585854683913, 16.389914829352573, 0.012385083985525402],
        [18.686319460094904, 16.393470920545706, 0.010073341050715334],
    ],
    ("example2", 1.0): [
        [16.229878814413794, 13.96698546122916, 0.4987165566451157],
        [21.302139492047413, 14.550257297249534, 0.42417628954672665],
        [19.97183241820887, 15.680517522268337, 0.3608450076829774],
        [18.72326048830648, 16.368972096371742, 0.04385217957362819],
        [18.66669899474593, 16.410232827021133, 2.5107052559369958e-05],
        [18.66666666833447, 16.41025640903975, 1.2952743322358629e-09],
        [18.666666666688084, 16.410256410240788, 1.663091886427992e-11],
    ],
    ("example3", 0.35): [
        [36.21339970639294, 1.4277499390290496, 0.9717319914631425],
        [37.84633427224484, 1.2424226672938674, 0.8858903090257056],
        [38.04483757537942, 1.1881948333217585, 0.8572984018035654],
        [38.558008157352695, 0.9860889517756074, 0.737177555046638],
        [38.866277189942316, 0.8188721435129336, 0.6214033031655128],
        [39.005054547458144, 0.7336362270889819, 0.557080985382441],
        [39.04330559563882, 0.7091826338310057, 0.538053518539852],
    ],
    ("example3", 0.6): [
        [35.88975449323672, 1.4636026515104494, 0.9865628886537013],
        [38.22706023563153, 1.1656242680740792, 0.8491217140223511],
        [38.518720946412294, 1.043044650479874, 0.7807073359301854],
        [39.24515906413603, 0.5883931367609342, 0.45983796293586787],
        [39.60544698202051, 0.31566193731731285, 0.22809350537346063],
        [39.72697636654159, 0.21979213490926264, 0.1500427483206106],
        [39.755549280996604, 0.1970334388859345, 0.1324719278082943],
    ],
    ("example3", 0.85): [
        [35.45235543922709, 1.4833055667582904, 0.9939771632842531],
        [38.58992717476291, 1.0808030237030146, 0.8096141204615313],
        [38.93460460112718, 0.857594048768948, 0.679832655499183],
        [39.77788107007436, 0.18465707255273078, 0.1403600509684737],
        [39.9518526650003, 0.03947449749409593, 0.024179671820137805],
        [39.97541127492686, 0.020060584415531713, 0.012036353656247112],
        [39.97955977650886, 0.016659975805515925, 0.009968284508651615],
    ],
    ("example3", 1.0): [
        [35.28191770038086, 1.4898544400317708, 0.996363061644093],
        [38.79302551029496, 1.0265824314055718, 0.7852111134690932],
        [39.15899803099863, 0.7233289200075389, 0.6060153347189923],
        [39.98074133100708, 0.016801966352768538, 0.013213053874653324],
        [39.99999992027401, 6.957838749599432e-08, 1.1739312966163595e-08],
        [39.999999999999986, 1.0880185641326534e-14, 9.769962616701378e-15],
        [39.999999999999986, 1.0880185641326534e-14, 9.769962616701378e-15],
    ],
}
FROZEN_40K = [  # example1-global, order 0.95, step 0.05, t_end 2000
    [33.167704332243986, 3.9993598247459596, 8.00723602738512],
    [35.43689192987158, 3.530493514068333, 8.606771873891248],
    [35.71882308337533, 3.2931093222310706, 8.998859485886333],
    [35.719153364974176, 3.292905536674928, 8.998602627569804],
    [35.719214919758386, 3.292867442902284, 8.998555951952484],
]


LINEAR_2D = np.array([[-0.3, 1.0], [-1.0, -0.2]])  # a damped rotation
LINEAR_7D = -0.5 * np.eye(7) + np.eye(7, k=1) - np.eye(7, k=-1)  # a chain of them


def scalar_decay(alpha):
    return FodeProblem(order=alpha, initial_state=np.array([1.0]), rhs=lambda t, y: -y)


def direct_pece(problem, config):
    """The O(N^2) sweep with every history sum a full dot product: the oracle."""
    a, h = problem.order, config.step
    big_n = config.node_count()
    grid = np.arange(big_n + 2, dtype=float)
    pow_a, pow_a1 = grid**a, grid ** (a + 1.0)
    w = np.zeros(big_n + 2)
    w[1:] = (h**a / a) * (pow_a[1:] - pow_a[:-1])
    d = np.zeros(big_n + 1)
    u = np.arange(1, big_n + 1)
    d[1:] = pow_a1[u + 1] + pow_a1[u - 1] - 2.0 * pow_a1[u]
    w_rev = np.ascontiguousarray(w[::-1])  # w_rev[N+1-m] = w[m]
    d_rev = np.ascontiguousarray(d[::-1])  # d_rev[N-u] = d[u]
    inv_gamma_a = 1.0 / math.gamma(a)
    corr_scale = h**a / math.gamma(a + 2.0)
    times = h * np.arange(big_n + 1)
    states = np.empty((big_n + 1, problem.initial_state.size))
    f = np.empty_like(states)
    states[0] = problem.initial_state
    f[0] = problem.rhs(times[0], states[0])
    for n in range(big_n):
        predicted = states[0] + inv_gamma_a * np.dot(w_rev[big_n - n : big_n + 1], f[: n + 1])
        hist_c = np.dot(d_rev[big_n - n : big_n], f[1 : n + 1]) if n else 0.0
        hist_c = hist_c + (pow_a1[n] - (n - a) * pow_a[n + 1]) * f[0]
        f_new = problem.rhs(times[n + 1], predicted)
        corrected = states[0] + corr_scale * (hist_c + f_new)
        f_new = problem.rhs(times[n + 1], corrected)
        states[n + 1] = corrected
        f[n + 1] = f_new
    return states


def out_of_place_block_history(states, rhs_values, w, d, spectra, end, size):
    """``_add_block_history`` with a fresh array for every chunk-pair product and sum."""
    from numpy.fft import irfft, rfft

    chunk = min(size, _FFT_CAP // 2)
    length = 2 * chunk
    top = min(end + size, len(rhs_values))
    for k0 in range(end, top, chunk):
        k1 = min(k0 + chunk, top)
        acc_w = acc_d = 0.0
        for j0 in range(end - size, end, chunk):
            lag = k0 - j0
            kernels = spectra.get(lag)
            if kernels is None:
                lags = slice(lag - chunk + 1, lag + chunk)
                kernels = rfft(w[lags], length)[:, None], rfft(d[lags], length)[:, None]
                if lag == chunk:
                    spectra[lag] = kernels
            source = rhs_values[j0 : j0 + chunk]
            spec_w = rfft(source, length, axis=0)
            if j0 == 0:
                source = source.copy()
                source[0] = 0.0
                spec_d = rfft(source, length, axis=0)
            else:
                spec_d = spec_w
            acc_w = acc_w + kernels[0] * spec_w
            acc_d = acc_d + kernels[1] * spec_d
        rows = slice(chunk - 1, chunk - 1 + k1 - k0)
        states[k0:k1] += irfft(acc_w, length, axis=0)[rows]
        rhs_values[k0:k1] += irfft(acc_d, length, axis=0)[rows]


def assert_agrees(states, reference):
    """|difference| <= 1e-12 * max|x|, per component."""
    reference = np.asarray(reference)
    scale = np.abs(states).max(axis=0)
    assert np.all(np.abs(states - reference) <= 1e-12 * scale)


def manufactured_errors(solve, alpha, span, steps):
    """Max |x - y| over the nodes of the states ``solve`` returns, per step,
    for a manufactured solution y of the model.

    y(t) = E* + c (t / span)^2 from E* of ``example1-global``, with c =
    (1, -0.5, 0.5), solves D^alpha x = f(x) + D^alpha y(t) - f(y(t)) from
    x(0) = E*, f the model's field, since D^alpha t^2 = 2 t^(2-alpha) /
    Gamma(3 - alpha) (the method of manufactured solutions: Roache, J.
    Fluids Eng. 124 (2002) 4-10).  No weight table enters y, so the errors
    check the solver against no formula of its own.  The field is called
    through the adapter; it adds the forcing, tabulated per node, to the
    model's field.
    """
    params = preset("example1-global").params
    field = vector_field(params)
    estar = next(
        e for e in equilibria(params) if e.kind is EquilibriumKind.COEXISTENCE
    ).state.as_array()
    c = np.array([1.0, -0.5, 0.5])
    errors = []
    for h in steps:
        times = h * np.arange(round(span / h) + 1)
        exact = estar + np.outer((times / span) ** 2, c)
        caputo = np.outer(2.0 * times ** (2.0 - alpha) / (math.gamma(3.0 - alpha) * span**2), c)
        forcing = caputo - field(0.0, exact.T).T

        def manufactured(t, x, forcing=forcing, h=h):
            return field(t, x) + forcing[round(t / h)]

        problem = FodeProblem(order=alpha, initial_state=estar, rhs=manufactured)
        errors.append(np.abs(solve(problem, SolverConfig(step=h, t_end=span)) - exact).max())
    return errors


def assert_converges(errors, alpha, bound):
    """C6's rule, each halving of the step divides the error by at least
    0.7 * 2^min(2, 1 + alpha), and the error at the finest step is at most bound."""
    required = 0.7 * 2.0 ** min(2.0, 1.0 + alpha)
    assert errors[0] / errors[1] >= required
    assert errors[1] / errors[2] >= required
    assert errors[2] <= bound


def _carrying(text, constants):
    """The field -0.5 y, with ``_text`` and ``_constants`` attached by hand."""

    def field(t, y):
        return -0.5 * y

    field._text, field._constants = text, constants
    return field


_OSCILLATOR = text_field((("x", "v"), ("k",), "f_0 = v\nf_1 = -k * x\n"), (4.0,))


class TestWeights:
    def test_integer_order_degenerates_to_rectangle_and_trapezoid(self):
        h = 0.1
        for n in (0, 1, 4, 9):
            corrector, predictor = abm_weights(1.0, n, h)
            assert predictor == pytest.approx([h] * (n + 1), rel=1e-14)
            trapezoid = np.full(n + 2, h)
            trapezoid[0] = trapezoid[-1] = h / 2.0
            assert corrector == pytest.approx(trapezoid, rel=1e-14)

    def test_first_step_half_order(self):
        h = 0.3
        corrector, predictor = abm_weights(0.5, 0, h)
        assert predictor[0] == pytest.approx(2.0 * math.sqrt(h), rel=1e-14)
        scale = math.sqrt(h) / math.gamma(2.5)
        assert corrector == pytest.approx([0.5 * scale, 1.0 * scale], rel=1e-14)

    def test_against_quadrature_oracle(self):
        corrector, predictor = abm_weights(0.85, 10, 1.0)
        assert predictor == pytest.approx(ORACLE_PREDICTOR_085_10, rel=1e-13)
        assert corrector == pytest.approx(ORACLE_CORRECTOR_085_10, rel=1e-12)

    def test_positivity_and_constant_exactness(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 1.0))
            n = int(rng.integers(0, 40))
            h = float(rng.uniform(0.01, 1.5))
            corrector, predictor = abm_weights(alpha, n, h)
            assert np.all(predictor > 0.0)
            assert np.all(corrector > 0.0)
            # both rules integrate a constant exactly over [t0, t_{n+1}]:
            # sum(predictor)/Gamma(a) == sum(corrector) == h^a (n+1)^a / Gamma(a+1)
            exact = h**alpha * (n + 1) ** alpha / alpha
            assert predictor.sum() == pytest.approx(exact, rel=1e-12)
            corr_exact = h**alpha * (n + 1) ** alpha / math.gamma(alpha + 1.0)
            assert corrector.sum() == pytest.approx(corr_exact, rel=1e-12)
            assert corrector.sum() == pytest.approx(
                predictor.sum() / math.gamma(alpha), rel=1e-12
            )

    @given(
        alpha=st.floats(1e-3, 1.0),
        h=st.floats(1e-3, 10.0),
        n=st.integers(0, 200),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_weight_sums_integrate_a_constant(self, alpha, h, n):
        """Every weight is positive, and each rule integrates a constant exactly.

        The predictor sum telescopes and stays within a few eps.  The
        corrector's weights are second differences of m^(a+1), which cancel,
        so its sum's relative error grows like n^2 eps: at most 5.0e-13 for
        n <= 200 (2144 draws, the range's corners among them), and up to
        2.8e-12 for n <= 1000 and 2.9e-11 for n <= 4000.  So n stays at most
        200 until the corrector tables are computed without that cancellation.
        """
        corrector, predictor = abm_weights(alpha, n, h)
        assert np.all(predictor > 0.0) and np.all(corrector > 0.0)
        scale = h**alpha * (n + 1) ** alpha
        assert predictor.sum() == pytest.approx(scale / alpha, rel=1e-14)
        exact = scale * (alpha + 1.0) / math.gamma(alpha + 2.0)
        assert corrector.sum() == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.35, 0.85, 0.95, 1.0])
    @pytest.mark.parametrize("size", [1, 2, _LEAF, _LEAF + 1, 60_001])
    def test_lag_tables_equal_the_textbook_expressions(self, size, alpha):
        # the tables are built in place; every entry must keep the bits of
        # the expressions written out below
        h = 0.05
        grid = np.arange(size + 1, dtype=float)
        pow_a = grid**alpha
        pow_a1 = grid ** (alpha + 1.0)
        w = np.zeros(size)
        w[1:] = (h**alpha / alpha) * (pow_a[1:size] - pow_a[: size - 1])
        d = np.zeros(size)
        d[1:] = pow_a1[2:] + pow_a1[: size - 1] - 2.0 * pow_a1[1:size]
        c0 = np.zeros(size)
        c0[1:] = pow_a1[: size - 1] - (grid[: size - 1] - alpha) * pow_a[1:size]
        for table, expected in zip(_lag_tables(alpha, h, size), (w, d, c0)):
            assert table.shape == (size,)
            assert np.array_equal(table, expected)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            abm_weights(0.0, 3)
        with pytest.raises(ValueError):
            abm_weights(1.2, 3)
        with pytest.raises(ValueError):
            abm_weights(0.5, -1)
        with pytest.raises(ValueError):
            abm_weights(0.5, 3, step=0.0)
        for step in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^step must be finite and positive"):
                abm_weights(0.5, 3, step=step)
        for n in (4.5, 4.0, "4"):
            with pytest.raises(ValueError, match="^node index n must be"):
                abm_weights(0.5, n)
        for got, want in zip(abm_weights(0.5, np.int64(3)), abm_weights(0.5, 3)):
            assert np.array_equal(got, want)  # a numpy integer is an integer


class TestValidation:
    def test_problem_rejects_bad_order(self):
        for alpha in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                FodeProblem(order=alpha, initial_state=np.array([1.0]), rhs=lambda t, y: -y)

    def test_problem_rejects_nonfinite_state(self):
        with pytest.raises(ValueError):
            FodeProblem(order=0.5, initial_state=np.array([np.nan]), rhs=lambda t, y: -y)

    def test_order_and_step_have_one_message_and_class_everywhere(self):
        import fracoepi
        from fracoepi import model, solver
        from fracoepi.config import config_from_entries
        from fracoepi.stability import classify_equilibrium, matignon_check

        assert fracoepi.ValidationError is model.ValidationError is solver.ValidationError
        e2 = equilibria(preset("example1").params)[2]
        spectrum = classify_equilibrium(preset("example1").params, e2, 0.9).spectrum
        for order in (0.0, -0.3, 1.5, math.nan):
            message = re.escape(f"order must lie in (0,1], got {order}")
            for call in (
                lambda: FodeProblem(order=order, initial_state=[1.0], rhs=lambda t, y: -y),
                lambda: abm_weights(order, 3),
                lambda: matignon_check(spectrum, order),
                lambda: config_from_entries({"model.preset": "example1",
                                             "solver.alpha": [order]}),
            ):
                with pytest.raises(solver.ValidationError, match=f"^{message}$"):
                    call()
        # the first predictor weight ~ 1/order times a right-hand side of size
        # DIVERGENCE_LIMIT overflows below the smallest accepted order
        smallest = DIVERGENCE_LIMIT / sys.float_info.max
        assert smallest == solver.MIN_ORDER
        assert math.isinf(DIVERGENCE_LIMIT / math.nextafter(smallest, 0.0))
        for order in (1e-310, math.nextafter(smallest, 0.0), 5e-324):
            message = re.escape(f"order {order} is too small: its reciprocal times the"
                                f" divergence limit 1e+12 overflows;"
                                f" the smallest order accepted is {smallest!r}")
            for call in (
                lambda: FodeProblem(order=order, initial_state=[1.0], rhs=lambda t, y: -y),
                lambda: abm_weights(order, 3),
                lambda: matignon_check(spectrum, order),
                lambda: config_from_entries({"model.preset": "example1",
                                             "solver.alpha": [order]}),
            ):
                with pytest.raises(solver.ValidationError, match=f"^{message}$"):
                    call()
        assert math.isfinite(math.gamma(smallest))
        for step in (0.0, -0.1, math.inf, math.nan):
            message = re.escape(f"step must be finite and positive, got {step}")
            for call in (
                lambda: SolverConfig(step=step, t_end=1.0),
                lambda: abm_weights(0.5, 3, step=step),
                lambda: config_from_entries({"model.preset": "example1",
                                             "solver.step": step}),
            ):
                with pytest.raises(solver.ValidationError, match=f"^{message}$"):
                    call()

    @pytest.mark.parametrize("order", [10**400, 10**5000, -10**5000],
                             ids=["400-digits", "5000-digits", "negative"])
    def test_order_past_the_float_range_is_named(self, order):
        # spelt out, 10**5000 would exceed the 4300 digits Python converts to text
        message = "order must lie in (0,1], got an integer beyond the float range"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate_order(order)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: FodeProblem(order=0.5, initial_state=[], rhs=lambda t, y: -y),
             "initial_state must be a non-empty vector"),
            (lambda: FodeProblem(order=0.5, initial_state=[math.inf], rhs=lambda t, y: -y),
             "initial_state must be finite"),
            (lambda: SolverConfig(step=0.1, t_end=math.nan), "t_end must be finite"),
            (lambda: SolverConfig(step=0.1, t_end=-0.3).node_count(), "lies before t = 0"),
            (lambda: SolverConfig(step=0.3, t_end=1.0).node_count(), "is not on the grid"),
            (lambda: SolverConfig(step=1e-6, t_end=10.0).node_count(), "exceed the cap"),
            (lambda: abm_weights(0.5, -1), "node index n must be"),
        ],
        ids=["empty-state", "nonfinite-state", "nonfinite-t_end", "negative-t_end",
             "off-grid", "node-cap", "node-index"],
    )
    def test_every_input_rejection_is_a_validation_error(self, call, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()

    def test_smallest_accepted_order_solves(self, example1):
        # these orders once passed validation, and the solve then diverged at
        # node 2 and 7: the first predictor weight h^order/order times the
        # right-hand side overflowed
        for order in (3e-308, 1e-307):
            with pytest.raises(ValidationError, match="too small"):
                FodeProblem(order=order, initial_state=[1.0], rhs=lambda t, y: -y)
        traj = cached_solve(example1, MIN_ORDER, State(30.0, 5.0, 10.0), 0.05, 1.0)
        assert np.isfinite(traj.states).all()

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(step=0.0, t_end=1.0)
        with pytest.raises(ValueError, match=r"t_end = -0.3 lies before t = 0"):
            SolverConfig(step=0.1, t_end=-0.3).node_count()

    def test_off_grid_t_end_rejected(self):
        with pytest.raises(ValueError, match="not on the grid"):
            solve_pece(scalar_decay(0.8), SolverConfig(step=0.3, t_end=1.0))
        with pytest.raises(ValueError, match="not on the grid"):
            SolverConfig(step=0.05, t_end=500.01).node_count()
        # spans whose ratio only misses an integer by rounding stay accepted
        assert SolverConfig(step=0.1, t_end=0.3).node_count() == 3
        assert SolverConfig(step=0.05, t_end=3000.0).node_count() == 60_000

    def test_node_cap_enforced(self):
        config = SolverConfig(step=1e-6, t_end=10.0)
        with pytest.raises(ValueError, match="cap"):
            solve_pece(scalar_decay(0.8), config)

    @pytest.mark.parametrize(
        "step, t_end, ratio",
        [(5e-324, 1.0, "inf"), (1e-300, 1e10, "inf"), (1.0, 1e308, "1e+308"),
         (1.0, NODE_CAP + 3.0, str(NODE_CAP + 3))],
    )
    def test_node_count_beyond_int_range_rejected(self, step, t_end, ratio):
        # the ratio meets the cap before it becomes an int: no OverflowError
        # for an infinite ratio, no 309-digit node count for a finite one, and
        # a count just past the cap in full
        expected = f"{ratio} nodes exceed the cap of {NODE_CAP}"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            SolverConfig(step=step, t_end=t_end).node_count()

    def test_degenerate_span_gives_single_node(self):
        traj = solve_pece(scalar_decay(0.8), SolverConfig(step=0.1, t_end=0.0))
        assert traj.states.shape == (1, 1)
        assert traj.states[0, 0] == 1.0


class TestAccuracy:
    def test_linear_decay_matches_mittag_leffler(self):
        # D^0.8 x = -x from 1: solution E_0.8(-t^0.8)
        traj = solve_pece(scalar_decay(0.8), SolverConfig(step=1e-3, t_end=1.0))
        exact = ml_one(0.8, -1.0)
        assert abs(traj.states[-1, 0] - exact) <= 1e-3 * abs(exact)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_error_decays_at_expected_order(self, alpha):
        errors = []
        for h in (0.02, 0.01, 0.005):
            traj = solve_pece(scalar_decay(alpha), SolverConfig(step=h, t_end=1.0))
            errors.append(abs(traj.states[-1, 0] - ml_one(alpha, -1.0)))
        required = 0.7 * 2.0 ** min(2.0, 1.0 + alpha)
        assert errors[0] / errors[1] >= required
        assert errors[1] / errors[2] >= required

    # the finest step's error, 2.10e-8 at order 0.6 and 7.35e-7 at 0.3 when
    # measured, with a margin of 20 %
    @pytest.mark.parametrize("alpha, bound", [(0.3, 8.82e-7), (0.6, 2.52e-8)])
    def test_split_blocks_converge_to_a_manufactured_solution(self, alpha, bound):
        # 15 000, 30 000 and 60 000 nodes: the finest grid is past 2 * _FFT_CAP,
        # so its history runs through split blocks of several chunk pairs
        assert 3000.0 / 0.05 > 2 * _FFT_CAP
        errors = manufactured_errors(
            lambda problem, config: solve_pece(problem, config).states,
            alpha, 3000.0, (0.2, 0.1, 0.05),
        )
        assert_converges(errors, alpha, bound)

    # the direct sums on 750, 1500 and 3000 nodes: the oracle checks the oracle;
    # the finest step's error, 2.82e-5 at order 0.3 and 2.16e-6 at 0.6 when
    # measured, with a margin of 20 %
    @pytest.mark.parametrize("alpha, bound", [(0.3, 3.38e-5), (0.6, 2.59e-6)])
    def test_direct_sums_converge_to_a_manufactured_solution(self, alpha, bound):
        errors = manufactured_errors(direct_pece, alpha, 150.0, (0.2, 0.1, 0.05))
        assert_converges(errors, alpha, bound)

    def test_zero_field_exactly_constant(self):
        start = np.array([2.5, -1.0, 0.25])
        traj = solve_pece(
            FodeProblem(order=0.7, initial_state=start, rhs=lambda t, y: np.zeros(3)),
            SolverConfig(step=0.1, t_end=5.0),
        )
        assert np.array_equal(traj.states, np.tile(start, (51, 1)))

    def test_integer_order_matches_independent_trapezoid_pece(self, example1):
        # classical stepwise trapezoid predictor-corrector at one tenth the step
        h = 0.01
        traj = cached_solve(
            preset("example1").params, 1.0,
            preset("example1").initial_states[0], h, 100.0,
        )
        f = vector_field(example1)
        h_ref = h / 10.0
        y = np.array([30.0, 5.0, 10.0])
        t = 0.0
        reference = [y.copy()]
        for _ in range(int(round(100.0 / h_ref))):
            slope = f(t, y)
            predictor = y + h_ref * slope
            y = y + 0.5 * h_ref * (slope + f(t + h_ref, predictor))
            t += h_ref
            reference.append(y.copy())
        gap = np.abs(traj.states - np.asarray(reference)[::10]).max()
        assert gap <= 1e-4

    def test_example1_tail_reaches_interior_equilibrium(self, example1):
        # slowest eigenvalue is ~ -0.011, so the algebraic fractional decay
        # needs a long span to pass within 1e-2 (measured: 8000 gives 1.02e-2)
        target = next(
            e for e in equilibria(example1) if e.kind is EquilibriumKind.COEXISTENCE
        ).state.as_array()
        traj = cached_solve(
            example1, 0.95, preset("example1").initial_states[0], 0.05, 9000.0
        )
        n = traj.states.shape[0]
        tail = np.abs(traj.states[-(n // 10):] - target).max()
        assert tail <= 1e-2


class TestBehavior:
    def test_deterministic_reruns_bit_identical(self, example1):
        problem = FodeProblem(
            order=0.9, initial_state=np.array([30.0, 5.0, 10.0]),
            rhs=vector_field(example1),
        )
        config = SolverConfig(step=0.05, t_end=20.0)
        first = solve_pece(problem, config)
        second = solve_pece(problem, config)
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.times, second.times)

    def test_blowup_reports_divergence_node(self):
        problem = FodeProblem(
            order=1.0, initial_state=np.array([1.0]), rhs=lambda t, y: y * y
        )
        with pytest.raises(DivergenceError) as excinfo:
            solve_pece(problem, SolverConfig(step=0.01, t_end=2.0))
        assert excinfo.value.node > 0
        assert excinfo.value.time > 0.0
        assert excinfo.value.node == 103  # as the direct-sum solver reported

    def test_fft_module_loads_on_first_use_only(self):
        probe = (
            "import sys, fracoepi; assert 'numpy.fft' not in sys.modules; "
            "fracoepi.solve_pece(fracoepi.FodeProblem(order=0.5, initial_state=[1.0], "
            "rhs=lambda t, y: -y), fracoepi.SolverConfig(step=0.1, t_end=30.0)); "
            "assert 'numpy.fft' in sys.modules"
        )
        subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True)

    def test_solve_many_starts_no_thread(self, example1, monkeypatch):
        def refuse(thread):
            raise AssertionError("solve_many started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        x0 = State(30.0, 5.0, 10.0)
        jobs = [(example1, 0.7, x0, 0.1, 5.0), (example1, 0.8, x0, 0.1, 5.0)]
        jobs.append(jobs[0])
        results = solve_many(jobs)
        assert len(results) == len(jobs)
        for result, job in zip(results, jobs):
            assert result is cached_solve(*job)

    def test_leaf_loops_are_built_once_per_dimension_and_bounded(self, example1):
        x0 = np.array([30.0, 5.0, 10.0])
        called = FodeProblem(order=0.7, initial_state=np.ones(4), rhs=lambda t, y: -y)
        config = SolverConfig(step=0.1, t_end=1.0)
        _field_code.cache_clear()
        misses = _field_code.cache_info().misses
        # the model's callable and its leaf loop come from one compile of its text
        inlined = FodeProblem(order=0.7, initial_state=x0, rhs=vector_field(example1))
        assert _field_code.cache_info().misses == misses + 1
        for problem in (called, inlined):
            misses = _field_code.cache_info().misses
            solve_pece(problem, config)
            before = _field_code.cache_info()
            assert before.misses == misses + (problem is called)
            solve_pece(problem, config)
            after = _field_code.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        # a model of other constants shares the model's code; three components
        # of a field that is called take a loop of their own
        solve_pece(FodeProblem(order=0.7, initial_state=x0,
                               rhs=vector_field(preset("example3").params)), config)
        assert _field_code.cache_info().misses == after.misses
        text = vector_field(example1)._text
        (loop, bind), (called_loop, no_bind) = _field_code(3, text), _field_code(3)
        assert _field_code(3, text)[0] is loop is not called_loop
        assert callable(bind) and no_bind is None
        maxsize = _field_code.cache_parameters()["maxsize"]
        assert maxsize is not None and 0 < maxsize <= 64

    def test_solve_memo_is_bounded(self):
        # more than the solves the test suite or one reproduce bundle keeps
        assert cached_solve.cache_parameters()["maxsize"] == 128

    def test_solve_memo_takes_positional_arguments_only(self, example1):
        # the memo would key a keyword call apart from a positional one and
        # solve it again
        before = cached_solve.cache_info()
        with pytest.raises(TypeError, match="positional-only"):
            cached_solve(example1, 0.7, State(30.0, 5.0, 10.0), step=0.1, t_end=5.0)
        after = cached_solve.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)

    def test_nan_field_reports_divergence(self):
        problem = FodeProblem(
            order=0.8, initial_state=np.array([1.0]),
            rhs=lambda t, y: np.array([math.nan]),
        )
        with pytest.raises(DivergenceError):
            solve_pece(problem, SolverConfig(step=0.1, t_end=1.0))

    @pytest.mark.parametrize("node", [3, _LEAF + 72])
    @pytest.mark.parametrize(
        "spike, accepted",
        [
            ([0.0, math.nan, 0.0], False),
            ([0.0, 0.0, math.nan], False),
            ([math.inf, 0.0, 0.0], False),
            ([0.0, -math.inf, 0.0], False),
            ([0.0, 0.0, 4.0 * DIVERGENCE_LIMIT], True),
            ([0.0, -4.0 * DIVERGENCE_LIMIT, 0.0], True),
            ([0.0, 0.0, 4.0 * np.nextafter(DIVERGENCE_LIMIT, math.inf)], False),
            ([0.0, -4.0 * np.nextafter(DIVERGENCE_LIMIT, math.inf), 0.0], False),
            # the loop is written out per dimension: spikes in the last of 1 and 5
            ([math.nan], False),
            ([4.0 * DIVERGENCE_LIMIT], True),
            ([0.0, 0.0, 0.0, 0.0, -math.inf], False),
            ([0.0, 0.0, 0.0, 0.0, 4.0 * DIVERGENCE_LIMIT], True),
            ([0.0, 0.0, 0.0, 0.0, 4.0 * np.nextafter(DIVERGENCE_LIMIT, math.inf)], False),
        ],
    )
    def test_divergence_check_on_three_components(self, node, spike, accepted):
        # the field is zero except at one node, where it returns the spike;
        # order 1 and step 0.5 make the corrector scale exactly 0.25, so the
        # corrected state there is exactly spike / 4
        step = 0.5

        def field(t, y):
            return np.array(spike) if t == node * step else np.zeros(len(spike))

        problem = FodeProblem(order=1.0, initial_state=np.zeros(len(spike)), rhs=field)
        config = SolverConfig(step=step, t_end=node * step)
        if accepted:
            final = solve_pece(problem, config).final_state
            assert np.abs(final).max() == DIVERGENCE_LIMIT
            return
        with pytest.raises(DivergenceError) as excinfo:
            solve_pece(problem, config)
        assert excinfo.value.node == node
        assert excinfo.value.time == node * step
        assert np.array_equal(excinfo.value.state, 0.25 * np.array(spike), equal_nan=True)

    @pytest.mark.parametrize("n_steps", [1, _LEAF - 1, _LEAF, _LEAF + 1, 16385])
    def test_rhs_call_count(self, example1, n_steps):
        # 1 + 2N evaluations: node 0 once, every later node twice at its time
        field = vector_field(example1)
        times = []

        def counted(t, y):
            times.append(t)
            return field(t, y)

        problem = FodeProblem(
            order=0.9, initial_state=np.array([30.0, 5.0, 10.0]), rhs=counted
        )
        traj = solve_pece(problem, SolverConfig(step=0.05, t_end=n_steps * 0.05))
        assert len(times) == 1 + 2 * n_steps
        expected = [traj.times[0]] + [t for t in traj.times[1:] for _ in range(2)]
        assert np.array_equal(times, expected)

    @pytest.mark.parametrize("evaluation", ["predictor", "corrector"])
    # 128 opens the second leaf, 4097 follows a 4096-node FFT block; on the
    # integer step t / step is exact
    @pytest.mark.parametrize("node, step", [(1, 0.01), (128, 0.01), (300, 0.01),
                                            (4097, 0.01), (300, 1)])
    @pytest.mark.parametrize("bad_shape", [(1,), (4,)])
    def test_wrong_rhs_shape_after_node_0_rejected(self, bad_shape, node, step, evaluation):
        # call 0 is node 0; node k's predictor and corrector evaluations are
        # calls 2k - 1 and 2k
        bad_call = 2 * node - (evaluation == "predictor")
        calls = []

        def field(t, y):
            calls.append(t)
            return np.zeros(bad_shape) if len(calls) - 1 == bad_call else -y

        problem = FodeProblem(order=0.8, initial_state=np.ones(3), rhs=field)
        expected = f"rhs returned shape {bad_shape}, expected (3,) at node {node}"
        with pytest.raises(ValidationError, match=re.escape(expected) + "$"):
            solve_pece(problem, SolverConfig(step=step, t_end=5000 * step))
        assert len(calls) == bad_call + 1

    def test_wrong_rhs_shape_at_node_0_rejected(self):
        problem = FodeProblem(
            order=0.8, initial_state=np.ones(3), rhs=lambda t, y: np.zeros(2)
        )
        with pytest.raises(ValidationError, match=re.escape("expected (3,) at node 0")):
            solve_pece(problem, SolverConfig(step=0.1, t_end=1.0))

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("path", ["text-field", "adapter", "by-hand"])
    def test_model_field_rejects_a_state_of_another_size(self, example1, size, path):
        # a field carrying the model's text is rejected on its text's size,
        # also where its own callable takes any size (the text was once
        # ignored there); without the text, the model's callable rejects
        # the state at node 0
        field = vector_field(example1)
        rhs = {"text-field": field, "adapter": lambda t, y: field(t, y),
               "by-hand": _carrying(field._text, field._constants)}[path]
        problem = FodeProblem(order=0.9, initial_state=np.ones(size), rhs=rhs)
        expected = f"the field's states have 3 components, got {size}"
        with pytest.raises(ValidationError, match=re.escape(expected) + "$"):
            solve_pece(problem, SolverConfig(step=0.05, t_end=1.0))

    @pytest.mark.parametrize(
        "rhs, message",
        [
            # a text of another size than the state, and fields that fail at node 0
            (_OSCILLATOR, "^the field's states have 2 components, got 1$"),
            (lambda t, y: np.zeros(2),
             re.escape("rhs returned shape (2,), expected (1,) at node 0")),
            (lambda t, y: _OSCILLATOR(t, y), "^the field's states have 2 components, got 1$"),
        ],
        ids=["text-of-another-size", "wrong-shape-at-node-0", "rejects-node-0"],
    )
    def test_text_the_loop_cannot_run_is_rejected_before_any_array(self, rhs, message):
        # a text of another size was once called, or ignored, and node 0 was
        # evaluated only once the solve's arrays were allocated
        problem = FodeProblem(order=0.7, initial_state=[1.0], rhs=rhs)
        config = SolverConfig(step=0.001, t_end=100.0)  # 100 001 nodes: 0.8 MB an array
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=message):
                solve_pece(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    @pytest.mark.parametrize(
        "attributes, initial",
        [
            ({"text": "exponential decay, rate 0.5"}, [1.0]),
            # texts the solver once ran inline, or refused for their size
            ({"text": vector_field(preset("example1").params)._text,
              "constants": vector_field(preset("example1").params)._constants},
             [30.0, 5.0, 10.0]),
            ({"text": (("u",), ("k",), "f_0 = -k * u\n"), "constants": (2.0,)}, [1.0]),
            ({"text": _OSCILLATOR._text, "constants": _OSCILLATOR._constants}, [1.0]),
            ({"constants": (0.5,)}, [1.0]),
        ],
        ids=["label", "model-text", "other-text", "text-of-another-size", "constants-only"],
    )
    def test_a_public_text_attribute_leaves_a_field_called(self, attributes, initial):
        # only the package's own fields carry a text, as _text: public
        # attributes of these names are the field's own business
        class Decay:
            def __init__(self):
                self.calls = 0

            def __call__(self, t, y):
                self.calls += 1
                return -0.5 * y

        labelled, plain = Decay(), Decay()
        vars(labelled).update(attributes)
        config = SolverConfig(step=0.01, t_end=2 * _LEAF * 0.01)
        states = [solve_pece(FodeProblem(order=0.7, initial_state=initial, rhs=rhs), config).states
                  for rhs in (labelled, plain)]
        assert states[0].tobytes() == states[1].tobytes()
        assert labelled.calls == plain.calls > 2 * _LEAF

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("bad_call", [0, 2 * _LEAF - 1, 2 * _LEAF])  # node 0, node 128's two
    def test_zero_division_in_a_called_field_propagates(self, dim, bad_call):
        # only a field given as text is stepped inside a ZeroDivisionError
        # handler: a called field's error leaves the solve at once
        calls = []

        def field(t, y):
            calls.append(t)
            if len(calls) - 1 == bad_call:
                raise ZeroDivisionError("the field's own")
            return -y

        problem = FodeProblem(order=0.8, initial_state=np.ones(dim), rhs=field)
        with pytest.raises(ZeroDivisionError, match="the field's own"):
            solve_pece(problem, SolverConfig(step=0.01, t_end=3.0))
        assert len(calls) == bad_call + 1

    def test_rhs_receives_node_times_and_fresh_arrays(self):
        # a field that is not the model: every call gets an ndarray state of
        # the problem's shape and the node's time, in order
        seen = []

        def recording(t, y):
            seen.append((t, y))
            return -0.5 * y

        problem = FodeProblem(order=0.7, initial_state=np.array([1.0, 2.0]), rhs=recording)
        traj = solve_pece(problem, SolverConfig(step=0.02, t_end=6.0))
        times = [t for t, _ in seen]
        assert times[0] == traj.times[0]
        assert np.array_equal(times[1::2], traj.times[1:])
        assert np.array_equal(times[2::2], traj.times[1:])
        for _, y in seen:
            assert isinstance(y, np.ndarray)
            assert y.dtype == np.float64 and y.shape == (2,)
        assert len({id(y) for _, y in seen[1:]}) == len(seen) - 1  # never reused
        corrector_args = np.array([y for _, y in seen[2::2]])
        assert np.array_equal(corrector_args, traj.states[1:])

    def test_problem_keeps_its_own_initial_state(self):
        given = np.array([1.0, 2.0])
        problem = FodeProblem(order=0.7, initial_state=given, rhs=lambda t, y: -y)
        given[0] = 99.0
        assert problem.initial_state.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            problem.initial_state[0] = 7.0

    def test_field_writing_its_argument_leaves_row_0_alone(self):
        # node 0's evaluation gets a fresh array too, not a view of states[0]
        def doubling(t, y):
            y *= 2.0
            return -y

        problem = FodeProblem(order=0.7, initial_state=np.array([1.0, 2.0]), rhs=doubling)
        traj = solve_pece(problem, SolverConfig(step=0.1, t_end=1.0))
        assert traj.states[0].tolist() == [1.0, 2.0]

    def test_grid_is_uniform_and_starts_exactly(self):
        traj = solve_pece(scalar_decay(0.6), SolverConfig(step=0.25, t_end=2.0))
        assert traj.states[0, 0] == 1.0
        spacing = np.diff(traj.times)
        assert spacing == pytest.approx(np.full(8, 0.25), rel=1e-14)
        assert np.all(spacing > 0.0)

    def test_trajectory_arrays_are_read_only(self):
        traj = solve_pece(scalar_decay(0.6), SolverConfig(step=0.25, t_end=1.0))
        with pytest.raises(ValueError):
            traj.states[0, 0] = 7.0

    def test_pece_step_matches_reference_weights(self):
        # one full manual PECE sweep from the documented weight arrays
        alpha, h = 0.85, 0.1

        def rhs(t, y):
            return np.array([-2.0 * y[0] + 0.5])

        problem = FodeProblem(order=alpha, initial_state=np.array([1.0]), rhs=rhs)
        traj = solve_pece(problem, SolverConfig(step=h, t_end=3 * h))
        y = [np.array([1.0])]
        fs = [rhs(0.0, y[0])]
        inv_gamma = 1.0 / math.gamma(alpha)
        for n in range(3):
            corrector, predictor = abm_weights(alpha, n, h)
            predicted = y[0] + inv_gamma * sum(
                predictor[j] * fs[j] for j in range(n + 1)
            )
            history = sum(corrector[j] * fs[j] for j in range(n + 1))
            corrected = y[0] + history + corrector[n + 1] * rhs((n + 1) * h, predicted)
            fs.append(rhs((n + 1) * h, corrected))
            y.append(corrected)
        manual = np.concatenate(y)
        assert traj.states[:, 0] == pytest.approx(manual, rel=1e-12)


class TestMemory:
    """What a solve keeps and shares: the time grid, the in-place history sums."""

    def test_trajectories_on_one_grid_share_one_read_only_time_array(self):
        before = set(_GRIDS)
        config = SolverConfig(step=0.0625, t_end=2.0)
        first = solve_pece(scalar_decay(0.6), config)
        second = solve_pece(scalar_decay(0.9), config)
        assert second.times is first.times
        assert not first.times.flags.writeable
        assert first.times.tobytes() == (0.0625 * np.arange(33)).tobytes()
        other = solve_pece(scalar_decay(0.6), SolverConfig(step=0.0625, t_end=1.0))
        assert other.times is not first.times
        assert other.times.tobytes() == (0.0625 * np.arange(17)).tobytes()
        assert len(set(_GRIDS) - before) == 2
        del first, second, other
        assert set(_GRIDS) <= before  # the mapping keeps no grid alive

    def test_an_integer_step_keeps_integer_times(self):
        floats = solve_pece(scalar_decay(0.6), SolverConfig(step=1.0, t_end=4.0))
        ints = solve_pece(scalar_decay(0.6), SolverConfig(step=1, t_end=4))
        assert floats.times.dtype == np.float64
        assert ints.times.dtype == np.arange(5).dtype  # as 1 * np.arange(5)
        assert np.array_equal(ints.states, floats.states)

    # all past the first split block; 24 600 nodes split a block into 3 target
    # chunks, the others into at most 2
    @pytest.mark.parametrize("n_steps", [8200, 16400, 24600])
    def test_peak_memory_is_the_named_arrays_and_capped_transforms(self, example1, n_steps):
        # the solver docstring's budget for N nodes of d components: states and
        # RHS history, d(N + 1) doubles each; while the weight tables are built,
        # five (N + 2)-arrays (three tables and the two powers they come from),
        # and after that two tables and the transform buffers.  Those are a few
        # spectra and inverse transforms of d * _FFT_CAP values, and the cached
        # kernel spectra of the unsplit blocks: at most 12 d * _FFT_CAP doubles,
        # whatever N is.  A cache that keeps a spectrum per source chunk or per
        # lag grows with N and breaks the bound at 16 400 nodes.
        dim = 3
        problem = FodeProblem(
            order=0.95, initial_state=np.array([30.0, 5.0, 10.0]), rhs=vector_field(example1)
        )
        solve_pece(problem, SolverConfig(step=0.05, t_end=15.0))  # the leaf loop, numpy.fft
        tracemalloc.start()
        try:
            solve_pece(problem, SolverConfig(step=0.05, t_end=n_steps * 0.05))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        history = 2 * dim * (n_steps + 1)
        building = 5 * (n_steps + 2)
        stepping = 2 * (n_steps + 1) + 12 * dim * _FFT_CAP
        assert peak <= 8 * (history + max(building, stepping))

    @pytest.mark.parametrize(
        "end, size",
        [
            (16384, 16384),  # split into 4 x 4 chunk pairs, node 0 in the first source
            (24576, 8192),  # split into 2 x 2 chunk pairs
            (2048, 2048),  # one transform, node 0 in the source
            (3072, 1024),  # one transform
        ],
    )
    def test_block_sums_bit_identical_to_the_out_of_place_form(self, end, size):
        rng = np.random.default_rng(end + size)
        rows = min(end + size, 2 * 16384)
        w, d, _ = _lag_tables(0.85, 0.05, rows)
        states = rng.standard_normal((rows, 3))
        rhs_values = rng.standard_normal((rows, 3))
        expected_states, expected_rhs = states.copy(), rhs_values.copy()
        spectra, expected_spectra = {}, {}
        for _ in range(2):  # the second pass reads the kernel spectra the first cached
            _add_block_history(states, rhs_values, w, d, spectra, end, size)
            out_of_place_block_history(
                expected_states, expected_rhs, w, d, expected_spectra, end, size
            )
        assert states.tobytes() == expected_states.tobytes()
        assert rhs_values.tobytes() == expected_rhs.tobytes()
        assert spectra.keys() == expected_spectra.keys()
        for lag, kernels in spectra.items():
            for got, want in zip(kernels, expected_spectra[lag]):
                assert got.tobytes() == want.tobytes()


class TestAgreementWithDirectSums:
    """The FFT-convolved history against the direct-sum solver."""

    @pytest.mark.parametrize("alpha", [0.35, 0.6, 0.85, 1.0])
    @pytest.mark.parametrize("name", ["example1", "example1-global", "example2", "example3"])
    def test_stable_presets_match_frozen_states(self, name, alpha):
        traj = cached_solve(
            preset(name).params, alpha, preset(name).initial_states[0], 0.05, 500.0
        )
        assert_agrees(traj.states[list(FROZEN_NODES_10K)], FROZEN_10K[name, alpha])

    def test_long_global_run_matches_frozen_states(self):
        p = preset("example1-global")
        traj = cached_solve(p.params, 0.95, p.initial_states[0], 0.05, 2000.0)
        assert_agrees(traj.states[list(FROZEN_NODES_40K)], FROZEN_40K)

    def test_single_block_is_the_direct_solver(self, example1):
        problem = FodeProblem(
            order=0.85, initial_state=np.array([30.0, 5.0, 10.0]),
            rhs=vector_field(example1),
        )
        config = SolverConfig(step=0.05, t_end=(_LEAF - 1) * 0.05)
        assert np.array_equal(solve_pece(problem, config).states, direct_pece(problem, config))

    @pytest.mark.parametrize(
        "n_steps", [_LEAF - 1, _LEAF, _LEAF + 1, 2 * _FFT_CAP - 1, 2 * _FFT_CAP + 1]
    )
    def test_block_and_chunk_edges(self, example1, n_steps):
        problem = FodeProblem(
            order=0.85, initial_state=np.array([30.0, 5.0, 10.0]),
            rhs=vector_field(example1),
        )
        config = SolverConfig(step=0.05, t_end=n_steps * 0.05)
        assert_agrees(solve_pece(problem, config).states, direct_pece(problem, config))

    @pytest.mark.parametrize("alpha", [0.6, 0.95, 1.0])
    @pytest.mark.parametrize("n_steps", [_LEAF - 1, _LEAF + 1, 2 * _FFT_CAP + 1])
    def test_text_path_matches_the_adapter_path(self, example1, n_steps, alpha):
        # a field that carries the model's text and constants is stepped on
        # the text, written into the leaf loop, and called only at node 0; the
        # same field without them is called at every evaluation
        field = vector_field(example1)
        calls, adapted_calls = [], []

        def with_text(t, y):
            calls.append(t)
            return field(t, y)

        def adapted_field(t, y):
            adapted_calls.append(t)
            return field(t, y)

        with_text._text, with_text._constants = field._text, field._constants
        config = SolverConfig(step=0.05, t_end=n_steps * 0.05)
        initial = np.array([30.0, 5.0, 10.0])
        inlined = solve_pece(
            FodeProblem(order=alpha, initial_state=initial, rhs=with_text), config
        )
        assert calls == [0.0]
        adapted = solve_pece(
            FodeProblem(order=alpha, initial_state=initial, rhs=adapted_field), config
        )
        assert len(adapted_calls) == 2 * n_steps + 1
        assert inlined.states.tobytes() == adapted.states.tobytes()

    def test_division_by_zero_in_the_text_falls_back_to_the_adapter(self):
        # the predictor at node 1 lands exactly on I = -a: the inlined text
        # raises ZeroDivisionError there and its handler calls the field
        # through the adapter, where the model recomputes that state as a
        # (3, 1) array, without numpy's warnings, as it does for the same
        # field without text
        params = ModelParams(
            growth_rate=1.0, carrying_capacity=10.0, infection_rate=0.5, predation_rate=1.0,
            infected_death_rate=2.0, half_saturation=0.5, conversion_efficiency=0.5,
            predator_death_rate=0.1,
        )
        field = vector_field(params)
        calls = []

        def with_text(t, y):
            calls.append(t)
            return field(t, y)

        with_text._text, with_text._constants = field._text, field._constants
        errors = []
        for rhs in (with_text, lambda t, y: field(t, y)):
            problem = FodeProblem(order=1.0, initial_state=np.array([1.0, 1.0, 0.0]), rhs=rhs)
            # no numpy warning either: the suite turns warnings into errors
            with pytest.raises(DivergenceError) as excinfo:
                solve_pece(problem, SolverConfig(step=1.0, t_end=5.0))
            errors.append(excinfo.value)
        assert calls == [0.0, 1.0]  # node 0, then the handler at node 1's predictor
        assert [(e.node, e.time) for e in errors] == [(1, 1.0), (1, 1.0)]
        assert errors[0].state.tobytes() == errors[1].state.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            (("u",), ("k",), "f_0 = -k * u\n"),
            # names the loop once used itself: every name of its own starts with _
            (("t",), ("k",), "f_0 = -k * t\n"),
            (("u",), ("limit",), "f_0 = -limit * u\n"),
            (("u",), ("zip",), "f_0 = -zip * u\n"),
            (("u",), ("k",), "node = 0\nf_0 = -k * u\n"),
        ],
        ids=["plain", "time", "argument", "global", "assigns-loop"],
    )
    @pytest.mark.parametrize("n_steps", [_LEAF - 1, 2 * _FFT_CAP + 5])
    def test_one_component_text_field(self, n_steps, text):
        # one state name and one constant: the loop unpacks the state as a
        # one-item tuple, and no name of the text is one of the loop's
        calls = []

        def decay(t, y):
            calls.append(t)
            return -0.5 * y

        decay._text, decay._constants = text, (0.5,)
        config = SolverConfig(step=0.01, t_end=n_steps * 0.01)
        inlined = solve_pece(FodeProblem(order=0.7, initial_state=[1.0], rhs=decay), config)
        assert calls == [0.0]
        called = FodeProblem(order=0.7, initial_state=[1.0], rhs=lambda t, y: decay(t, y))
        assert inlined.states.tobytes() == solve_pece(called, config).states.tobytes()
        if n_steps < _LEAF:  # one leaf: the direct sums themselves
            assert np.array_equal(inlined.states, direct_pece(called, config))

    @pytest.mark.parametrize(
        "text, constants, by_hand, initial",
        [
            ((("u",), ("t",), "f_0 = -t * u\n"), (0.5,), lambda t, y: -0.5 * y, [1.0]),
            ((("x", "v"), ("k", "c"), "f_0 = v\nf_1 = -k * x - c * v\n"), (4.0, 0.3),
             lambda t, y: np.array([y[1], -4.0 * y[0] - 0.3 * y[1]]), [1.0, 0.0]),
        ],
        ids=["decay-constant-t", "oscillator"],
    )
    @pytest.mark.parametrize("n_steps", [_LEAF - 1, 2 * _FFT_CAP + 5])
    def test_text_field_solves_like_its_text_attached_by_hand(
        self, text, constants, by_hand, initial, n_steps
    ):
        # text_field's callable carries the text, so the loop steps it
        # inline; its own arithmetic, called at every evaluation, gives the
        # same bits, and within one leaf those of the direct sums
        field = text_field(text, constants)
        by_hand._text, by_hand._constants = text, constants
        config = SolverConfig(step=0.01, t_end=n_steps * 0.01)
        states = [
            solve_pece(FodeProblem(order=0.7, initial_state=initial, rhs=rhs), config).states
            for rhs in (field, by_hand, lambda t, y: field(t, y))
        ]
        assert states[0].tobytes() == states[1].tobytes() == states[2].tobytes()
        if n_steps < _LEAF:  # one leaf: the direct sums themselves
            called = FodeProblem(order=0.7, initial_state=initial, rhs=field)
            assert np.array_equal(states[0], direct_pece(called, config))

    def test_text_field_reads_nested_lists_as_stacked_states(self):
        # one state as a list stays on Python numbers; nested lists are states
        # stacked on axis 1, as the array of the same values is
        stacked = [[1.0, 2.0, -0.5], [0.0, 0.5, 3.0]]
        value = _OSCILLATOR(0.0, stacked)
        assert value.tobytes() == _OSCILLATOR(0.0, np.array(stacked)).tobytes()
        assert [_OSCILLATOR(0.0, [x, v]).tolist() for x, v in zip(*stacked)] == value.T.tolist()
        assert _OSCILLATOR(0.0, [1.0, 1j]).tolist() == [1j, -4.0]

    def test_scalar_problem(self):
        config = SolverConfig(step=0.01, t_end=30.0)
        problem = scalar_decay(0.6)
        assert_agrees(solve_pece(problem, config).states, direct_pece(problem, config))

    @pytest.mark.parametrize(
        "field, initial",
        [
            (lambda t, y: -y, [1.0]),
            (lambda t, y: LINEAR_2D @ y, [1.0, -0.5]),
            (lambda t, y: y, [1.0, 0.25]),  # hands its own argument back
            (lambda t, y: [-0.5 * v for v in y], [2.0, 1.0, 0.5]),  # a plain list
            (lambda t, y: LINEAR_7D @ y, np.linspace(-1.0, 1.0, 7)),  # no other test's dimension
        ],
        ids=["scalar", "linear-2d", "identity", "list", "linear-7d"],
    )
    @pytest.mark.parametrize("n_steps", [_LEAF - 1, 1000])
    def test_fields_that_are_not_the_model(self, field, initial, n_steps):
        problem = FodeProblem(order=0.75, initial_state=np.array(initial), rhs=field)
        config = SolverConfig(step=0.002, t_end=n_steps * 0.002)
        states = solve_pece(problem, config).states
        reference = direct_pece(problem, config)
        if n_steps < _LEAF:  # one leaf: the direct sums themselves
            assert np.array_equal(states, reference)
        else:
            assert_agrees(states, reference)

    def test_identity_field_matches_a_copying_field(self):
        # a field that returns its argument must not alias the solver's buffers
        config = SolverConfig(step=0.002, t_end=1.0)
        same = solve_pece(
            FodeProblem(order=0.6, initial_state=np.array([1.0, 3.0]), rhs=lambda t, y: y),
            config,
        )
        copied = solve_pece(
            FodeProblem(
                order=0.6, initial_state=np.array([1.0, 3.0]), rhs=lambda t, y: y.copy()
            ),
            config,
        )
        assert np.array_equal(same.states, copied.states)
        assert np.all(np.diff(same.states[:, 0]) > 0.0)  # the growth is carried forward

    def test_model_divergence_is_the_same_on_both_paths(self):
        # example1-unstable at order 0.6 leaves E* and blows up; the model's
        # text, stepped inline, and the same field behind a lambda (called
        # through the ndarray adapter) stop at the same node with the same state
        field = vector_field(preset("example1-unstable").params)
        errors = []
        for rhs in (field, lambda t, y: field(t, y)):
            problem = FodeProblem(order=0.6, initial_state=np.array([30.0, 5.0, 10.0]), rhs=rhs)
            with pytest.raises(DivergenceError) as excinfo:
                solve_pece(problem, SolverConfig(step=0.05, t_end=500.0))
            errors.append(excinfo.value)
        for error in errors:
            assert (error.node, error.time) == (1773, 88.65)
            assert error.state.tolist() == [
                7415762114453.555, -7415719863753.807, 717.0096217169267
            ]
        assert errors[0].state.tobytes() == errors[1].state.tobytes()

    def test_blowup_past_the_first_blocks_reports_the_direct_node(self):
        problem = FodeProblem(
            order=1.0, initial_state=np.array([1.0]), rhs=lambda t, y: y * y
        )
        with pytest.raises(DivergenceError) as excinfo:
            solve_pece(problem, SolverConfig(step=0.001, t_end=2.0))
        assert excinfo.value.node == 1003  # as the direct-sum solver reported
