"""Walk through the network's building blocks on a tiny point set:
shared per-point layers, the order-free global max-pool, the local/global
concatenation, and the softmax output.

Run:  python demos/01_network_basics.py
"""

import numpy as np

from pointlabel import network as net

rng = np.random.default_rng(0)

# a "cloud" of 6 points with the full 9 feature columns
x = rng.standard_normal((6, 9)).astype(np.float32)

enc, head = net.default_architecture(in_width=9, n_classes=9)
params = net.init_params(enc, head, rng)
print(f"default architecture: {net.param_count(params):,} learnable parameters")

trace = net.forward(x, params, "eval")
print("per-point class probabilities (rows sum to 1):")
print(np.round(trace.q, 3))

# permutation invariance: shuffling the points shuffles the answers,
# and the pooled global feature does not move at all
perm = rng.permutation(len(x))
trace_p = net.forward(x[perm], params, "eval")
assert np.array_equal(trace_p.q, trace.q[perm])
assert trace_p.g_segments.tobytes() == trace.g_segments.tobytes()
print("permuted input -> identically permuted output, bitwise-equal "
      "global feature")

# the global feature is the column-wise max over the points
assert np.array_equal(trace.g_segments[0], trace.pooled_input.max(axis=0))
print("global feature == column max of the deepest per-point features")

# training mode normalizes with batch statistics and returns a trace
# that the manual backward pass consumes
labels = rng.integers(0, 9, len(x))
train_trace = net.forward(x, params, "train")
loss = net.cross_entropy(train_trace.q, labels)
grads = net.backward(train_trace, labels, params)
print(f"cross-entropy {loss:.4f}; gradient tensors: {len(grads)}")
