"""Shifted-even certificates: inequalities survive an imaginary shift.

If an even real entire function G of genus at most 1 has only real zeros,
then for every real c the combination (G(sqrt(z)-ic) + G(sqrt(z)+ic)) /
(2 G(ic)) is a genus-0 product with positive zeros, so its derivative-form
cells must all be nonpositive.  The pipeline: check that G is even, form
the real even coefficients of G(w-ic)+G(w+ic) directly (only even powers
of c enter), reduce z^2 -> z, normalize by G(ic), certify.
"""

from fractions import Fraction as F

from posroot import FunctionKind, FunctionSpec, certify_shifted_even
from posroot.catalog import sinc_even_series
from posroot.criterion import shifted_reduced_series


def show(rep):
    c = rep.counts()
    print(f"  {rep.function:44s} {rep.verdict:12s} "
          f"cells +{c['NONNEGATIVE']} -{c['NEGATIVE']} ?{c['INDETERMINATE']}")


sinc = FunctionSpec(FunctionKind.SINC, mode="ratfunc", precision=224)
print("cardinal sine under imaginary shifts:")
for c in (F(0), F(1, 2), F(1)):
    show(certify_shifted_even(sinc, c, 6))

kiz = FunctionSpec(FunctionKind.BESSEL_K, params={"a": F(1)}, mode="float",
                   precision=224)
print("\nmodified Bessel kernel (only real zeros in the spectral variable):")
show(certify_shifted_even(kiz, F(1, 2), 6))

print("\nzero shift degenerates to the plain reduction; first coefficients:")
G = sinc_even_series(24, 192)
f0 = shifted_reduced_series(G, F(0), 192)
for k in range(4):
    print(f"  [z^{k}] = {f0[k]}")
