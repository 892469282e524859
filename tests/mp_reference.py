"""Johansen's eigenproblem in mpmath, the exact references of the accuracy tests.

The float64 levels are converted exactly, so only this module's own
arithmetic rounds, at ``dps`` digits. It follows the textbook chain on the
uncentred level term [z_{t-1}, 1] (rconst) or z_{t-1} (uconst): the
concentration by the normal equations of the short-run regression, the
moments R'R / T_eff, the whitened symmetric eigenproblem, and beta
candidates back-transformed from the whitened eigenvectors. mpmath is
imported lazily, so a test that needs it can skip when it is missing.
"""


def moments(z, k, case):
    """S00, S01, S11 of the levels z (T, p) as mpmath matrices, at the
    caller's working precision."""
    import mpmath

    T, p = z.shape
    levels = [[mpmath.mpf(float(v)) for v in row] for row in z]
    dz = [[levels[t][j] - levels[t - 1][j] for j in range(p)] for t in range(1, T)]
    W, X = [], []
    for t in range(k, T):  # dz[t - 1] = z[t] - z[t - 1]
        W.append(dz[t - 1] + levels[t - 1] + [mpmath.mpf(1)] * (case == "rconst"))
        short = [v for i in range(1, k) for v in dz[t - 1 - i]]
        X.append(short + [mpmath.mpf(1)] * (case == "uconst"))
    W = mpmath.matrix(W)
    if X[0]:
        X = mpmath.matrix(X)
        W = W - X * ((X.T * X) ** -1 * (X.T * W))
    S = W.T * W / (T - k)
    m = S.cols
    return S[:p, :p], S[:p, p:m], S[p:m, p:m]


def johansen(z, k, case, dps):
    """(eigenvalues, beta candidates, alpha, trace statistics) of the levels
    z (T, p) as mpf: the eigenvalues descending, beta a list of columns, the
    i-th belonging to the i-th eigenvalue and scaled so its first coordinate
    is 1, alpha the loadings (S01 b / b'S11 b) of the first column, the
    rank-1 model, and the trace statistics for r = 0..p-1."""
    import mpmath

    T, p = z.shape
    with mpmath.workdps(dps):
        S00, S01, S11 = moments(z, k, case)
        L0, L1 = mpmath.cholesky(S00), mpmath.cholesky(S11)
        G = L1**-1 * (L0**-1 * S01).T  # L1^-1 S10 L0^-T
        eigenvalues, vectors = mpmath.eigsy(G * G.T)
        order = sorted(range(S11.rows), key=lambda i: -eigenvalues[i])
        eigenvalues = [eigenvalues[i] for i in order]
        beta = L1.T**-1 * vectors
        columns = [[beta[row, i] / beta[0, i] for row in range(S11.rows)] for i in order]
        b = mpmath.matrix(columns[0])
        alpha = S01 * b / (b.T * S11 * b)[0]
        logs = [mpmath.log(1 - lam) for lam in eigenvalues[:p]]
        trace = [-(T - k) * mpmath.fsum(logs[r:]) for r in range(p)]
        return eigenvalues, columns, list(alpha), trace
