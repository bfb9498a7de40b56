"""Segments between the profiles' kinks, and the oracle's integrator.

Table knots (``params.breakpoints``) cut a window into segments on which
H(t) is smooth.  The sample grid (its edges at ``edge_indices``), the
derivatives of sampled series, the running integral of the mode frequency
and the oracle's ODE solve are split at them here; the angle route's
integrator (:mod:`susyjc.magnus`) takes them as step boundaries too.  A
kink is a step boundary: the solver restarts there, and its runs join into
one dense output in which a time on a step boundary belongs to the step
that starts there in ascending time, as a sample on an edge belongs to the
segment that starts there.

The oracle's ODE solver is DOP853, the Dormand-Prince 8(5,3) pair with its
7th-order dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, 2nd ed.,
sections II.5-II.6), with the error norm, step controller and initial step
of the widely used scipy implementation, so that it takes the same steps.  It
integrates the oracle's linear system, y' = y G(t) with the state's rows
times a real generator.  Once a step's length is chosen, all its stage
times are fixed, so the step asks for its generators at all of them in one
call.  States are real (the oracle passes the (re, im) view of its complex
amplitudes), so every per-step product is a real BLAS product.
Sampled series are differentiated with 7-point finite-difference stencils
(sixth order) on each segment's uniform grid, and integrated with the local
degree-5 interpolant (sixth order); the stencil weights come from
Fornberg's algorithm (Math. Comp. 51, 699 (1988)).  Sixth-order derivatives
keep certification residuals well below the ODE tolerances they audit, and
the error of either is measured on the grid itself by Richardson's
two-grid estimate: the change when it is taken on every other sample
(:func:`stride2`), over 63.
Sampled arrays are time first, (n_t, n).  numpy is the only dependency.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import ConfigurationError

RTOL_FLOOR = 100 * float(np.finfo(float).eps)  # smallest rtol DOP853 accepts; callers clamp to it
_STENCIL = 7  # finite-difference stencil width: sixth-order first derivatives
_UNIFORM = 1e-6  # largest spread of a segment's spacings, relative to the spacing
# a sixth-order result on spacing h is off by about (F(2 h) - F(h)) / 63
# (Richardson, Phil. Trans. R. Soc. A 210, 307 (1911))
RICHARDSON = 2 ** (_STENCIL - 1) - 1  # 63


def _fornberg(z: float, nodes, order: int) -> np.ndarray:
    """Weights w[d, j]: the d-th derivative at z of the polynomial through
    (nodes[j], y[j]) is sum_j w[d, j] y[j], for d = 0 .. order (Fornberg)."""
    n = len(nodes)
    w = np.zeros((order + 1, n))
    w[0, 0] = 1.0
    c1, c4 = 1.0, nodes[0] - z
    for i in range(1, n):
        c2, c5, c4 = 1.0, c4, nodes[i] - z
        top = min(i, order)
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for d in range(top, 0, -1):
                    w[d, i] = c1 * (d * w[d - 1, i - 1] - c5 * w[d, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for d in range(top, 0, -1):
                w[d, j] = (c4 * w[d, j] - d * w[d - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w


# first derivative at each node of a 7-node stencil, in units of the spacing
_DERIVATIVE = np.array([_fornberg(p, range(_STENCIL), 1)[1] for p in range(_STENCIL)])
_CENTRED = _DERIVATIVE[_STENCIL // 2, _STENCIL // 2 + 1 :]  # odd: w(-j) = -w(j)
# int_0^x of the degree-5 interpolant through nodes 0 .. 5, started at node o:
# _ANTIDERIVATIVE[o, j, p] multiplies y[j] x^(p + 1); one Taylor term per p
_FACTORIALS = np.array([math.factorial(p + 1) for p in range(6)], dtype=float)
_ANTIDERIVATIVE = np.array([(_fornberg(o, range(6), 5) / _FACTORIALS[:, None]).T for o in range(5)])
_INTERVAL = _ANTIDERIVATIVE.sum(axis=2)  # the same integrals at x = 1: [o, j]

# DOP853 (Hairer, Norsett & Wanner): 12 stages, the 8th-order step from the
# first 12 and the 5th- and 3rd-order error estimates from 13 (the 13th is
# the end point's derivative), plus 3 stages for the 7th-order dense output
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])  # fmt: skip
_A = np.zeros((16, 16))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [
    2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]  # fmt: skip
_A[5, :5] = [
    3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]  # fmt: skip
_A[6, :6] = [
    3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
]  # fmt: skip
_A[7, :7] = [
    3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]  # fmt: skip
_A[8, :8] = [
    6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]  # fmt: skip
_A[9, :9] = [
    4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]  # fmt: skip
_A[10, :10] = [
    -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]  # fmt: skip
_A[11, :11] = [
    2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]  # fmt: skip
_A[12, :12] = [
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]  # fmt: skip
_A[13, :13] = [
    5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3,
]  # fmt: skip
_A[14, :14] = [
    3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
    2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1,
]  # fmt: skip
_A[15, :15] = [
    -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
    -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
    -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
    -9.15095847217987001081870187138,
]  # fmt: skip
_B = _A[12, :12]  # the 8th-order weights
_E3 = np.zeros(13)
_E3[:12] = _B
_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]  # fmt: skip
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]  # fmt: skip
# a step's 7 dense-output rows are h (_DENSE @ K) + outer(_DELTA, y_new - y):
# delta, h K0 - delta, 2 delta - h (K0 + K12), then the 4 rows of the stages' weights
_DELTA = np.array([1.0, -1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
_DENSE = np.zeros((7, 16))
_DENSE[1, 0] = 1.0
_DENSE[2, [0, 12]] = -1.0
_DENSE[3:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [
        -0.84289382761090128651353491142e1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
        0.21170345824450282767155149946e1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
        -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1,
    ],
    [
        0.10427508642579134603413151009e2, 0.24228349177525818288430175319e3,
        0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
        -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1,
        -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
        0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
        -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2,
    ],
    [
        0.19985053242002433820987653617e2, -0.38703730874935176555105901742e3,
        -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
        -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1,
        -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
        0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2,
    ],
    [
        -0.25693933462703749003312586129e2, -0.15418974869023643374053993627e3,
        -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
        0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2,
        0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
        -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
        -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3,
    ],
]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0  # the error estimate is 7th order
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _sq_norm(x) -> float:
    """||x||^2 as the square of numpy's 2-norm: the rounding of scipy's error norm."""
    return math.sqrt(x.dot(x)) ** 2


def _rms(x) -> float:
    return float(np.linalg.norm(x)) / x.size**0.5


def _initial_step(fun, t0, y0, f0, span, direction, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's starting step for a 7th-order error estimate."""
    if span == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, span)


class Dop853Solution:
    """DOP853's accepted steps and their dense output, over one integration.

    ``times`` are the step boundaries in integration order, both ends
    included, ``states`` (len(times), n) the states there, time first,
    ``nfev`` the stage evaluations, as scipy counts them (12 per attempted
    step, 3 more per kept step for the dense output, and 2 per run, 1 on an
    empty window), and ``message`` None, or why the solver stopped early at
    ``times[-1]``.  The generators are asked for fewer times: 14 per
    attempted step, and the same 2 per run.  Calling it at scalar t gives
    (n,), over an array of N times (N, n), all times in one vectorized
    pass.  A kink is a step boundary (:func:`integrate_segments`), and any
    time on a step boundary belongs to the step that starts there in
    ascending time, so a kink takes the state the solver restarted from;
    the first or last step extrapolates.
    """

    def __init__(self, times, states, coefficients, nfev, message):
        self.times = np.asarray(times, dtype=float)
        self.states = states
        self._coefficients = coefficients  # (steps, 7, n)
        self._h = np.diff(self.times)
        # step boundaries ascending in the direction of integration; a
        # boundary goes to the step after it forward, before it backward
        backward = self.times[-1] < self.times[0]
        self._sign, self._side = (-1.0, "left") if backward else (1.0, "right")
        self.nfev = nfev
        self.message = message

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        steps = self._h.size
        if steps == 0:  # an empty window
            y = np.repeat(self.states[:1], t.size, axis=0)
            return y[0] if scalar else y
        idx = np.searchsorted(self._sign * self.times, self._sign * t, side=self._side) - 1
        np.clip(idx, 0, steps - 1, out=idx)
        x = ((t - self.times[idx]) / self._h[idx])[:, None]
        rest = 1 - x
        coefficients = self._coefficients
        y = coefficients[idx, 6] * x
        for i in range(5, -1, -1):
            y += coefficients[idx, i]
            y *= rest if i % 2 else x
        y += self.states[idx]
        return y[0] if scalar else y


def dop853(generators, span, y0, rtol: float, atol) -> Dop853Solution:
    """Integrate the linear system y' = y G(t) over ``span`` (either
    direction) by DOP853.

    The flat state ``y0`` is read as rows of n, (R, n), each multiplied by
    the real (n, n) generator: ``generators(times)`` takes a 1-d array of
    times and returns their generators, (len(times), n, n), which fixes n.
    Each attempted step asks for its 14 distinct stage times at once (stages
    11 and 12 share t + h; the 3 dense-output stages' times are asked for
    even if the step is rejected); the first stage of a run and the
    initial-step estimate's probe ask for one time each.  Each stage's
    derivative, its state times its generator, is written straight into its
    row of stages.
    The state is real: ``y0`` is cast to float64, and a complex ``y0`` is a
    ConfigurationError (integrate its real view, as the oracle does).
    ``atol`` is a scalar or one value per component.  An rtol below
    ``RTOL_FLOOR`` is a ConfigurationError: callers clamp.
    The steps, stage evaluations and rounding are those of the scipy
    implementation (error norm, step controller, initial step) on the
    right-hand side y G(t).
    """
    if not rtol >= RTOL_FLOOR:
        raise ConfigurationError(f"rtol={rtol!r} is below the DOP853 floor {RTOL_FLOOR!r}")
    if np.iscomplexobj(y0):
        raise ConfigurationError("DOP853 integrates real states: pass a complex state's real view")
    y = np.array(y0, dtype=float)
    atol = np.asarray(atol, dtype=float)
    t, t_end = float(span[0]), float(span[1])
    direction = 1.0 if t_end >= t else -1.0

    G0 = generators(np.array([t]))[0]
    n = G0.shape[-1]
    K = np.empty((16, y.size))  # the stages, one per row
    rows = K.reshape(16, -1, n)  # each stage's (R, n) view

    def derivative(t, y):  # one stage at one time, as the initial step's probe asks
        return np.dot(y.reshape(-1, n), generators(np.array([t]))[0]).reshape(-1)

    np.dot(y.reshape(-1, n), G0, out=rows[0])
    nfev = 1 if t == t_end else 2
    h_abs = _initial_step(derivative, t, y, K[0], abs(t_end - t), direction, rtol, atol)
    # stage s at t + c_s h, y + h sum_j a_sj K[j]: (its node, K[:s]^T, a_s[:s],
    # K[s] as (R, n)); a step's 14 nodes are c_1 .. c_11 and c_13 .. c_15, as
    # the end point's stage 12 shares stage 11's t + h
    nodes = np.delete(_C, [0, 12])
    stages = [(s - 1 if s < 12 else s - 2, K[:s].T, _A[s, :s], rows[s]) for s in range(16)]
    trial, dense = stages[1:12], stages[13:]
    K12, K13 = K[:12].T, K[:13].T

    dy = np.empty(y.size)  # a stage's state, y + h sum_j a_sj K[j]
    dy_rows = dy.reshape(-1, n)

    def evaluate(stages, y, h, G):
        for node, previous, a, row in stages:
            np.dot(previous, a, out=dy)
            np.multiply(dy, h, out=dy)
            np.add(dy, y, out=dy)
            np.dot(dy_rows, G[node], out=row)

    times, states, coefficients = [t], [y], []
    abs_y = np.abs(y)  # carried from step to step into the error scale
    message = None
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step, from a NaN state, stops too
                message = _TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            G = generators(t + nodes * h)  # every stage's generator, the dense three's too
            evaluate(trial, y, h, G)
            y_new = np.dot(K12, _B)
            y_new *= h
            y_new += y
            np.dot(y_new.reshape(-1, n), G[10], out=rows[12])  # at t + h, stage 11's node
            nfev += 12
            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)
            scale *= rtol
            scale += atol
            err5 = np.dot(K13, _E5)
            err5 /= scale
            err3 = np.dot(K13, _E3)
            err3 /= scale
            err5, err3 = _sq_norm(err5), _sq_norm(err3)
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * y.size)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_EXPONENT)
            rejected = True
        if message is not None:
            break
        # the dense output: three more stages, then the 7 rows in one product
        evaluate(dense, y, h, G)
        nfev += 3
        F = np.dot(_DENSE, K)
        F *= h
        F += np.outer(_DELTA, y_new - y)
        coefficients.append(F)
        t, y, abs_y = t_new, y_new, abs_new
        K[0] = K[12]
        times.append(t)
        states.append(y)
    stacked = np.array(coefficients) if coefficients else np.empty((0, 7, y.size))
    return Dop853Solution(times, np.array(states), stacked, nfev, message)


def check_window(t, a: float, b: float, name: str) -> np.ndarray:
    """``t`` as a float array, or a ConfigurationError naming the first time
    outside the window between a and b, NaN included (and, for an array, how
    many are)."""
    t = np.asarray(t, dtype=float)
    lo, hi = min(a, b), max(a, b)
    outside = ~((t >= lo - 1e-12) & (t <= hi + 1e-12))  # NaN compares False
    if outside.any():
        count = f"; {outside.sum()} of {t.size} times outside" if t.ndim else ""
        first = t[outside].flat[0]
        raise ConfigurationError(f"t={first} outside {name} window [{lo}, {hi}]{count}")
    return t


def integrate_segments(generators, window, y0, kinks, rtol, atol, failure) -> Dop853Solution:
    """:func:`dop853` on y' = y G(t), ``generators`` giving G at an array
    of times, with dense output over ``window``, restarted at every kink:
    ``kinks`` are the profiles' interior breakpoints, ascending.

    ``window`` may run backward (t1 < t0).  The segments' runs join into one
    :class:`Dop853Solution` in integration order: each kink is in ``times``
    once, as a step boundary, and ``nfev`` is summed over the segments.  A
    failed segment raises ``failure(message, time)`` at the time the solver
    reached.
    """
    t0, t1 = float(window[0]), float(window[1])
    points = np.concatenate([[t0], kinks if t1 >= t0 else kinks[::-1], [t1]])
    runs, y = [], y0
    for span in zip(points[:-1], points[1:]):
        run = dop853(generators, span, y, rtol, atol)
        if run.message is not None:
            raise failure(run.message, float(run.times[-1]))
        runs.append(run)
        y = run.states[-1]
    # a run starts where the one before it ended: its first boundary is a repeat
    rest = runs[1:]
    return Dop853Solution(
        np.concatenate([runs[0].times] + [run.times[1:] for run in rest]),
        np.concatenate([runs[0].states] + [run.states[1:] for run in rest]),
        np.concatenate([run._coefficients for run in runs]),
        sum(run.nfev for run in runs),
        None,
    )


def segmented_grid(edges: np.ndarray, n: int) -> tuple[np.ndarray, tuple]:
    """Sample grid containing every edge exactly, and ``edge_indices``: each
    segment gets an even share of the n - 1 gaps (n odd) by length, but at
    least 12, so that every other sample (:func:`stride2`) is a grid on the
    same edges with a stencil's 7 samples or more on each segment.  The grid
    has n points unless a segment's share is under 12 gaps, which adds the
    difference (n = 2001 on edges 0, 9.99, 10 gives 2011 points)."""
    pairs = np.round((n - 1) // 2 * (edges - edges[0]) / (edges[-1] - edges[0]))
    gaps = np.maximum(2 * _STENCIL - 2, 2 * np.diff(pairs).astype(int))
    bounds = tuple(accumulate(gaps.tolist(), initial=0))
    pieces = [np.linspace(a, b, c + 1) for a, b, c in zip(edges[:-1], edges[1:], gaps)]
    # neighbouring segments share their edge sample
    times = np.concatenate([pieces[0]] + [piece[1:] for piece in pieces[1:]])
    return times, bounds


def stride2(ts: np.ndarray, edge_indices=None) -> tuple[np.ndarray, tuple]:
    """Every other sample of ts and the edge indices among them: a grid on
    the same edges with twice the spacing.  Each segment must have an even
    number of gaps, as :func:`segmented_grid` gives it (ConfigurationError
    otherwise)."""
    bounds = _bounds(edge_indices, ts.size)
    if any(i % 2 for i in bounds):
        raise ConfigurationError(f"segment edges {bounds} are not all every other sample")
    return ts[::2], tuple(i // 2 for i in bounds)


def _bounds(edge_indices, size: int) -> list:
    """Sample indices of the segment edges; the whole grid is one segment if None."""
    return [0, size - 1] if edge_indices is None else list(edge_indices)


def _spacing(ts: np.ndarray, fewest: int) -> float:
    """The spacing of a uniform segment of at least ``fewest`` samples, or a
    ConfigurationError; the spacings may differ by rounding."""
    if ts.size < fewest:
        raise ConfigurationError(f"a segment of {ts.size} samples is shorter than {fewest}")
    h = (ts[-1] - ts[0]) / (ts.size - 1)
    rounding = 4 * np.spacing(max(abs(ts[0]), abs(ts[-1])))
    if not (h > 0 and np.max(np.abs(np.diff(ts) - h)) <= _UNIFORM * h + rounding):
        raise ConfigurationError(
            f"samples on [{ts[0]}, {ts[-1]}] are not uniform: "
            "finite differences need a uniform grid"
        )
    return h


def _segment_derivative(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """d(ys)/dt on one uniform segment: centred 7-point stencils inside,
    shifted ones at the 3 samples nearest each end."""
    h = _spacing(ts, _STENCIL)
    n, half = ts.size, _STENCIL // 2
    out = np.empty(ys.shape, dtype=np.result_type(ys, float))
    inner = out[half : n - half]
    # in place, one scratch array: a temporary per term costs twice the time
    np.subtract(ys[half + 1 : n - half + 1], ys[half - 1 : n - half - 1], out=inner)
    inner *= _CENTRED[0]
    term = np.empty_like(inner)
    for j in range(2, half + 1):
        np.subtract(ys[half + j : n - half + j], ys[half - j : n - half - j], out=term)
        term *= _CENTRED[j - 1]
        inner += term
    # the shifted stencils, one (3, 7) product at each end: matmul on the
    # samples' 2-d view gives tensordot's result at a fifth of its overhead
    first, last, tail = ys[:_STENCIL], ys[n - _STENCIL :], (half,) + ys.shape[1:]
    out[:half] = (_DERIVATIVE[:half] @ first.reshape(_STENCIL, -1)).reshape(tail)
    out[n - half :] = (_DERIVATIVE[half + 1 :] @ last.reshape(_STENCIL, -1)).reshape(tail)
    out /= h
    return out


def spline_derivative(ts: np.ndarray, ys: np.ndarray, edge_indices=None) -> np.ndarray:
    """d(ys)/dt sampled at ts; ys may be complex and have trailing axes
    (differentiated along axis 0).

    Sixth-order finite differences on each smooth segment, which must be
    uniform with at least 7 samples (ConfigurationError otherwise); the
    stencils never reach across a kink.  An edge sample takes the value of
    the segment that starts there.  (The name is kept for the benchmark's
    tracer, which wraps it by name.)
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys)
    bounds = _bounds(edge_indices, ts.size)
    if len(bounds) == 2:  # no kinks: spare the copy of a whole sample block
        return _segment_derivative(ts, ys)
    out = np.empty(ys.shape, dtype=np.result_type(ys, float))
    for a, b in zip(bounds[:-1], bounds[1:]):
        out[a : b + 1] = _segment_derivative(ts[a : b + 1], ys[a : b + 1])
    return out


def antiderivative_error(ts: np.ndarray, ys: np.ndarray, edge_indices=None) -> float:
    """Richardson's estimate of the largest error of
    :func:`cumulative_antiderivative` at the samples ts: its largest change
    when taken on the :func:`stride2` subgrid instead, at the samples the
    two share, over 63.  Constant ys integrate exactly: 0.0."""
    coarse_ts, coarse_edges = stride2(ts, edge_indices)
    if ys.min() == ys.max():
        return 0.0
    fine = _running_integral(ts, ys, _bounds(edge_indices, ts.size))[-1][::2]
    coarse = _running_integral(coarse_ts, ys[::2], coarse_edges)[-1]
    return float(np.max(np.abs(fine - coarse))) / RICHARDSON


def _running_integral(ts: np.ndarray, ys: np.ndarray, bounds) -> tuple:
    """The pieces of :func:`cumulative_antiderivative`'s F on the segments
    between the sample indices ``bounds``: (firsts, lasts, spacings,
    starts, nodes, at_samples), the segments' first and last sample and
    spacing, the first sample of each interval's 6-sample stencil and the
    interval's node in it, and F at every sample."""
    firsts, lasts = np.array(bounds[:-1]), np.array(bounds[1:])
    spacings = np.array([_spacing(ts[a : b + 1], 6) for a, b in zip(firsts, lasts)])
    # interval i, ts[i] .. ts[i + 1], is node nodes[i] of the 6-sample
    # stencil that starts at starts[i], inside the interval's segment
    intervals = np.arange(ts.size - 1)
    segment = np.repeat(np.arange(firsts.size), lasts - firsts)
    starts = np.clip(intervals - 2, firsts[segment], lasts[segment] - 5)
    nodes = intervals - starts
    steps = spacings[segment] * _combine(ys, starts, _INTERVAL[nodes], intervals)
    at_samples, carried = [], 0.0  # F at each interval's start; F at the segment's end
    for a, b in zip(firsts, lasts):
        piece = np.concatenate([[0.0], np.cumsum(steps[a:b])])
        piece += carried
        at_samples.append(piece[:-1])
        carried = piece[-1]
    at_samples.append([carried])
    return firsts, lasts, spacings, starts, nodes, np.concatenate(at_samples)


def _combine(ys, starts, weights, i):
    """sum_j weights[:, j] ys[starts[i] + j] over a 6-sample stencil, (len(i),)."""
    return sum(weights[:, j] * ys[starts[i] + j] for j in range(6))


def cumulative_antiderivative(ts: np.ndarray, ys: np.ndarray, edge_indices=None):
    """Callable F with F(ts[0]) = 0 and F' interpolating (ts, ys), both (n,).

    On each smooth segment, which must be uniform with at least 6 samples,
    F(t) integrates the degree-5 interpolant through the 6 samples around
    t's interval (shifted at the segment's ends; sixth order) and carries
    the integral over the segments before it, so it stays continuous across
    the edges; an edge belongs to the segment that starts there.  F(t) is
    (n_t,) over n_t times and 0-d at a scalar t.  (The name is kept for the
    benchmark's tracer, which wraps it by name.)
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    bounds = _bounds(edge_indices, ts.size)
    firsts, lasts, spacings, starts, nodes, running = _running_integral(ts, ys, bounds)
    edges = ts[bounds]

    def antiderivative(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        seg = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, firsts.size - 1)
        first, h = firsts[seg], spacings[seg]
        i = first + np.clip(np.floor((t - ts[first]) / h).astype(int), 0, lasts[seg] - first - 1)
        x = (t - ts[i]) / h
        powers = np.cumprod(np.repeat(x[:, None], 6, axis=1), axis=1)  # x .. x^6
        weights = np.einsum("ijp,ip->ij", _ANTIDERIVATIVE[nodes[i]], powers)
        out = running[i] + h * _combine(ys, starts, weights, i)
        return out[0] if scalar else out

    return antiderivative
