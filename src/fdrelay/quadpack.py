"""Adaptive Gauss-Kronrod quadrature in pure Python.

A port of the two QUADPACK drivers the quadrature oracles use: QAGPE
(finite interval with user break points, 21-point Kronrod rule) and QAGIE
(semi-infinite interval mapped onto (0, 1], 15-point Kronrod rule). Each
front end computes its first estimates and then hands its interval list to
one bisection-extrapolation loop, `_adapt`, with Wynn's epsilon-algorithm
extrapolation (QELG) and the error-ordered interval list (QPSRT). Every
arithmetic step keeps QUADPACK's order, so results and error estimates match
`scipy.integrate.quad` bit for bit (tests/test_quadpack.py checks this)
while importing neither numpy nor scipy.

The shared loop tracks bisection levels as QAGPE does. QAGIE's original
tests compare widths against `small`, which starts at 0.375 and halves with
each extrapolation round; since it bisects (0, 1], an interval at level L is
exactly 2**-L wide, and after k halvings `width > small` holds exactly when
L <= k + 1. That is QAGPE's `level + 1 <= levmax` with `levmax` starting at
2 instead of 1. A flag keeps the rest of what differs: QAGIE seeds the
epsilon table and the extrapolation bounds after its first bisection, and
it stops on an extrapolated error equal to the tolerance, where QAGPE goes
on.

Reference: R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, "QUADPACK: A Subroutine Package for Automatic Integration",
Springer, 1983. Arrays below are 1-based, as in the original, so the index
arithmetic reads the same; slot 0 is unused.
"""

from __future__ import annotations

import math
import sys

__all__ = ["qagpe", "qagie"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# 21-point Kronrod rule: abscissae (descending, centre last) and weights;
# _WG21 are the weights of the embedded 10-point Gauss rule, whose nodes are
# the odd-numbered Kronrod abscissae
_XGK21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK21 = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG21 = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# 15-point Kronrod rule and the 7-point Gauss weights on its nodes (zero
# where a Kronrod node is not a Gauss node)
_XGK15 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK15 = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG15 = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)


def _scaled_error(abserr: float, resabs: float, resasc: float) -> float:
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5), without the OverflowError Python raises for huge r
        r = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if r >= 1.0 else r ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return abserr


# the order in which QUADPACK adds the symmetric node pairs: those at the
# Gauss nodes (odd 0-based index) first, then the Kronrod-only ones
_ORDER21 = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)


def _qk21(f, a: float, b: float):
    """21-point Kronrod rule on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = f(centr)
    absc = [hlgth * x for x in _XGK21[:10]]
    fv1 = [f(centr - d) for d in absc]
    fv2 = [f(centr + d) for d in absc]
    wgk = _WGK21
    resk = wgk[10] * fc
    resabs = abs(resk)
    for j in _ORDER21:
        fval1 = fv1[j]
        fval2 = fv2[j]
        resk = resk + wgk[j] * (fval1 + fval2)
        resabs = resabs + wgk[j] * (abs(fval1) + abs(fval2))
    resg = 0.0
    for j, w in zip(_ORDER21[:5], _WG21):
        resg = resg + w * (fv1[j] + fv2[j])
    reskh = resk * 0.5
    resasc = wgk[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    return result, _scaled_error(abserr, resabs, resasc), resabs, resasc


def _qk15i(f, boun: float, a: float, b: float):
    """15-point Kronrod rule for [boun, inf) mapped by x = boun + (1-t)/t,
    on the t-subinterval [a, b] of (0, 1]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (f(boun + (1.0 - centr) / centr) / centr) / centr
    absc = [hlgth * x for x in _XGK15[:7]]
    t1 = [centr - d for d in absc]
    t2 = [centr + d for d in absc]
    fv1 = [(f(boun + (1.0 - t) / t) / t) / t for t in t1]
    fv2 = [(f(boun + (1.0 - t) / t) / t) / t for t in t2]
    wgk = _WGK15
    wg = _WG15
    resg = wg[7] * fc
    resk = wgk[7] * fc
    resabs = abs(resk)
    for j in range(7):
        fval1 = fv1[j]
        fval2 = fv2[j]
        fsum = fval1 + fval2
        resg = resg + wg[j] * fsum
        resk = resk + wgk[j] * fsum
        resabs = resabs + wgk[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    return result, _scaled_error(abserr, resabs, resasc), resabs, resasc


class _Extrapolation:
    """Wynn's epsilon table (QELG): the table, its length and the last three
    extrapolated values."""

    _LIMEXP = 50

    def __init__(self, first: float):
        self.epstab = [0.0] * (self._LIMEXP + 3)
        self.epstab[1] = first
        self.n = 1
        self.res3la = [0.0] * 4
        self.nres = 0

    def append(self, area: float) -> None:
        self.n += 1
        self.epstab[self.n] = area

    def add(self, area: float) -> tuple[float, float]:
        """Append `area` and extrapolate: (result, abserr)."""
        self.append(area)
        return self._qelg()

    def _qelg(self) -> tuple[float, float]:
        epstab = self.epstab
        self.nres += 1
        n = self.n
        abserr = _OFLOW
        result = epstab[n]
        if n < 3:
            return result, max(abserr, 5.0 * _EPMACH * abs(result))
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                self.n = n
                return result, max(abserr, 5.0 * _EPMACH * abs(result))
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if n == self._LIMEXP:
            n = 2 * (self._LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            ib2 = ib + 2
            epstab[ib] = epstab[ib2]
            ib = ib2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        self.n = n
        res3la = self.res3la
        if self.nres < 4:
            res3la[self.nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
        return result, max(abserr, 5.0 * _EPMACH * abs(result))


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """Keep iord ordered by decreasing error after a bisection (QPSRT):
    returns (maxerr, errmax, nrmax) for the next interval to bisect."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > (limit // 2 + 2):
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        i = ibeg
        inserted = False
        while i <= jbnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                inserted = True
                break
            iord[i - 1] = isucc
            i += 1
        if not inserted:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            iord[i - 1] = maxerr
            k = jbnd
            placed = False
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    placed = True
                    break
                iord[k + 1] = isucc
                k -= 1
            if not placed:
                iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _roundoff(rlist_max, area12, erro12, errmax, defab1, error1, defab2, error2,
              last, extrap, counts):
    # QUADPACK's roundoff bookkeeping: iroff1/iroff2 count bisections that
    # changed neither the area nor the error, iroff3 ones that raised it
    if defab1 != error1 and defab2 != error2:
        if not (abs(rlist_max - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
            if extrap:
                counts[1] += 1
            else:
                counts[0] += 1
        if last > 10 and erro12 > errmax:
            counts[2] += 1


def _finish(ier, ierro, abserr, correc, result, area, errsum, resabs_ref, ksgn,
            rlist, last):
    """The common exit of QAGIE and QAGPE (labels 100-130 / 170-210)."""
    summed = False
    if abserr == _OFLOW:
        summed = True
    elif ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                summed = True
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier
        if not summed:
            ier = _divergence(ier, ksgn, result, area, errsum, resabs_ref)
    else:
        ier = _divergence(ier, ksgn, result, area, errsum, resabs_ref)
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, ier


def _divergence(ier, ksgn, result, area, errsum, resabs_ref):
    if ksgn == -1 and max(abs(result), abs(area)) <= resabs_ref * 0.01:
        return ier
    # IEEE quotient, as in the original (Python raises on division by zero)
    if area != 0.0:
        ratio = result / area
    else:
        ratio = math.nan if result == 0.0 else math.copysign(math.inf, result)
    if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
        return 6
    return ier


def _adapt(rule, lists, nint, limit, epsabs, epsrel, result, errsum, resabs,
           qagie):
    """QUADPACK's bisection-extrapolation loop, shared by QAGIE and QAGPE.

    `lists` are the 1-based (alist, blist, rlist, elist, iord, level) arrays
    holding the `nint` first intervals, `result` and `errsum` their summed
    areas and errors, `resabs` the summed integral of |f|. Returns
    (result, abserr, ier) with QUADPACK's final ier.
    """
    alist, blist, rlist, elist, iord, level = lists
    table = _Extrapolation(result)
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    nrmax = 1
    ktmin = 0
    extrap = False
    noext = False
    ier = 0
    ierro = 0
    counts = [0, 0, 0]
    erlarg = errsum
    ertest = errbnd
    # QAGIE's width bound `small = 0.375` is level 2 (see the module docstring)
    levmax = 2 if qagie else 1
    abserr = _OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1
    correc = 0.0
    last = nint  # QAGPE without interior points at limit 1 skips the loop

    for last in range(nint + 1, limit + 1):
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        _roundoff(rlist[maxerr], area12, erro12, errmax, defab1, error1, defab2,
                  error2, last, extrap, counts)
        level[maxerr] = levcur
        level[last] = levcur
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if counts[0] + counts[1] >= 10 or counts[2] >= 20:
            ier = 2
        if counts[1] >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            abserr = _OFLOW  # go straight to summing the interval list
            break
        if ier != 0:
            break
        if qagie and last == 2:
            erlarg = errsum
            ertest = errbnd
            table.append(area)
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # bisect further unless the interval to be bisected next is
            # one of the smallest
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: first bisect the
            # larger intervals whose errors exceed ertest
            jupbnd = last
            if last > (2 + limit // 2):
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        if table.n < 2:
            table.append(area)
        else:
            reseps, abseps = table.add(area)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                # QAGIE accepts an error equal to the tolerance, QAGPE not
                if abserr < ertest or (qagie and abserr == ertest):
                    break
            if table.n == 1:
                noext = True
            if ier == 5:
                break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    result, abserr, ier = _finish(ier, ierro, abserr, correc, result, area,
                                  errsum, resabs, ksgn, rlist, last)
    return result, abserr, (ier - 1 if ier > 2 else ier)


def _lists(limit: int):
    """Empty 1-based (alist, blist, rlist, elist, iord, level) arrays."""
    return ([0.0] * (limit + 1), [0.0] * (limit + 1), [0.0] * (limit + 1),
            [0.0] * (limit + 1), [0] * (limit + 1), [0] * (limit + 1))


def qagie(f, bound: float, epsabs: float, epsrel: float, limit: int = 50):
    """Integral of f over [bound, inf) (QAGIE with inf = 1).

    Returns (result, abserr, ier); ier 0 is success, the other codes are
    QUADPACK's (1 subdivision limit, 2 roundoff, 3 bad integrand behaviour,
    4 extrapolation roundoff, 5 divergence, 6 invalid input).
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 6
    lists = _lists(limit)
    alist, blist, rlist, elist, iord, _ = lists
    ier = 0
    # QUADPACK's naming: defabs holds the rule's resabs, resabs its resasc
    result, abserr, defabs, resabs = _qk15i(f, bound, 0.0, 1.0)
    alist[1] = 0.0
    blist[1] = 1.0
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier  # 0, 1 or 2 here
    return _adapt(lambda lo, hi: _qk15i(f, bound, lo, hi), lists, 1, limit,
                  epsabs, epsrel, result, abserr, defabs, qagie=True)


def qagpe(f, a: float, b: float, points, epsabs: float, epsrel: float,
          limit: int = 50):
    """Integral of f over the finite interval [a, b], a < b, with break points
    (QAGPE).

    `points` are where the integrand has local difficulties; as in
    `scipy.integrate.quad`, duplicates and points outside (a, b) are dropped.
    Returns (result, abserr, ier) with QUADPACK's ier codes (see qagie).
    """
    pts_in = sorted({p for p in points if a < p < b})
    npts = len(pts_in)
    if limit <= npts or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6
    lists = _lists(limit)
    alist, blist, rlist, elist, iord, _ = lists
    pts = [0.0, a, *pts_in, b]
    nint = npts + 1
    ier = 0

    # first integral and error approximations, one per break-point interval
    result = abserr = resabs = 0.0
    ndin = [0] * (nint + 1)
    a1 = pts[1]
    for i in range(1, nint + 1):
        b1 = pts[i + 1]
        area1, error1, defabs, resa = _qk21(f, a1, b1)
        abserr = abserr + error1
        result = result + area1
        if error1 == resa and error1 != 0.0:
            ndin[i] = 1
        resabs = resabs + defabs
        elist[i] = error1
        alist[i] = a1
        blist[i] = b1
        rlist[i] = area1
        iord[i] = i
        a1 = b1
    errsum = 0.0
    for i in range(1, nint + 1):
        if ndin[i] == 1:
            elist[i] = abserr
        errsum = errsum + elist[i]

    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint != 1:
        for i in range(1, npts + 1):
            ind1 = iord[i]
            k = i
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if elist[ind1] > elist[ind2]:
                    continue
                ind1 = ind2
                k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts + 2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return result, abserr, ier  # 0, 1 or 2 here
    return _adapt(lambda lo, hi: _qk21(f, lo, hi), lists, nint, limit,
                  epsabs, epsrel, result, errsum, resabs, qagie=False)
