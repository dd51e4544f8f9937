"""The dense pair-feature map of a Boltzmann machine: the test oracle for
`BoltzmannModel.bind` and `log_f_batch`, which never form it.

Row y of `pair_features(dim, indices)` holds 2 * y_i * y_j for every pair
i < j in upper-triangle order, so log f = F @ upper and the pullback of g
is F' @ g. It takes |U| x D(D-1)/2 floats: 397 MB for 10^5 points at D=32.
"""

import numpy as np

from localscores import indices_to_signs


def pair_features(dim, indices) -> np.ndarray:
    signs = indices_to_signs(indices, dim).astype(np.float64)
    rows, cols = np.triu_indices(dim, 1)
    return 2.0 * signs[:, rows] * signs[:, cols]
