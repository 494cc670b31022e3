"""Grid of the Tracy-Widom CDF table for beta in {1, 2}.

Generated by scripts/make_tw_table.py (Painleve II / Hastings-McLeod
integration); do not edit by hand.  The CDF columns are tabulated on the
grid np.round(np.arange(X_MIN, X_MAX + STEP / 2, STEP), 6), and stored in
_tw_cdf.bin beside this module: the beta = 1 column, then the beta = 2
column, as little-endian float64.
"""

X_MIN = -10.0
X_MAX = 10.0
STEP = 0.025
