"""See exactly what the server sees, and why it learns nothing.

The server's whole view of a retrieval is the query: a handful of index
sets with coefficients.  Privacy means the posterior over the demanded
index, given that view, stays uniform.  This script first enumerates the
full query distribution of a small cell exactly (rational arithmetic, no
sampling), then lets the chi-square screen catch a deliberately broken
builder that a human eyeball would likely miss.
"""
from random import Random

from pircsi import MODEL_I, audit_exact, audit_montecarlo

K, M = 4, 1

print(f"exact enumeration, first model, K={K}, M={M}")
report = audit_exact(MODEL_I, K, M)
print(f"distinct order-stripped queries: {len(report.fingerprint_probs)}")
print(f"{'query shape':<24} {'probability':>11}   posterior over W'=1..{K}")
for fp in sorted(report.fingerprint_probs):
    shape = " | ".join("{" + ",".join(map(str, s)) + "}" for s in fp)
    prob = report.fingerprint_probs[fp]
    posterior = "  ".join(str(p) for p in report.posteriors[fp])
    print(f"{shape:<24} {str(prob):>11}   {posterior}")
print(f"uniform: {report.uniform}, worst deviation: {report.worst_deviation}")
print()
print("every observable query leaves all four demands equally likely, as an")
print("identity of rationals, not an approximation.")
print()

trials = 30_000
print(f"chi-square screen at {trials} sampled queries per run")
honest = audit_montecarlo(MODEL_I, 5, 1, trials, Random(2))
print(
    f"honest builder:     passed={honest.passed}  "
    f"min p-value {honest.min_p:.2e} over {honest.tests} tests"
)
broken = audit_montecarlo(
    MODEL_I, 5, 1, trials, Random(2), mutation="unshuffled_sets"
)
print(
    f"unshuffled sets:    passed={broken.passed}  "
    f"min p-value {broken.min_p:.2e}"
)
index, slot = broken.worst_bin.key
print(
    f"  worst bin: index {index} in set {slot}, "
    f"samples per demand W'=1..5: {list(broken.worst_bin.counts)}"
)
skewed = audit_montecarlo(
    MODEL_I, 5, 1, trials, Random(2), mutation="skewed_class_pmf"
)
print(
    f"skewed class pmf:   passed={skewed.passed}  "
    f"min p-value {skewed.min_p:.2e}"
)
print()
print("forgetting to shuffle the set order, or flattening the repeat-class")
print("weights, leaves the per-query marginals looking plausible; the screen")
print("still detects both within seconds.")
