"""The frame K(v) built as a full matrix: the test oracle of
polyxport.scattering.to_frame, whose bits it must reproduce."""
import numpy as np


def frame_matrix_slow(v):
    """Rotation K with v K = e_1, continuous except at v = -e_1.

    Rotation in the (v, e_1) plane written with the subtraction-free
    denominator |v + e_1|^2 / 2 = 1 + v_1, so it stays accurate arbitrarily
    close to the excluded direction; exactly there a half-turn is used.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    e1 = np.zeros(d)
    e1[0] = 1.0
    s = v + e1
    ss = float(s @ s)
    if ss < 1e-18:
        K = np.eye(d)
        K[0, 0] = -1.0
        K[1, 1] = -1.0
        return K
    K = np.eye(d) - 2.0 * np.outer(s, s) / ss + 2.0 * np.outer(v, e1)
    return K
