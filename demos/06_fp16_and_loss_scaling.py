"""FP16 training without a master copy: loss scaling and momentum rescaling.

Everything persistent lives on the binary16 grid.  Dynamic loss scaling
keeps gradients representable (watch the scale halve after an injected
overflow and recover), and per-tensor power-of-two momentum rescaling keeps
small momenta from flushing to zero when they are rounded back to FP16.
"""

import numpy as np

from trainmem.builders import build_desk_cnn
from trainmem.numerics import FlatLayout, NumericFormat, half_round
from trainmem.optim import SGDState, fp16_update_path
from trainmem.train import TrainSettings, train_desk

if __name__ == "__main__":
    g = build_desk_cnn([6, 6], classes=4, input_shape=(3, 8, 8))

    def inject(step, grads):
        if step == 10:  # simulate a gradient overflow
            grads[next(iter(grads))][...] = np.inf

    settings = TrainSettings(steps=40, minibatch=16, lr=0.02, seed=3,
                             precision=NumericFormat.FP16, log_every=10)
    result = train_desk(g, settings, on_after_backward=inject)
    print("loss-scale trace around the injected overflow (step 10):")
    for i, s in enumerate(result.scale_trace[:14], start=1):
        marker = "  <- halved, step skipped" if i == 10 else ""
        print(f"  step {i:2d}: scale 2^{int(np.log2(s))}{marker}")
    print(f"steps skipped: {result.steps_skipped}; "
          f"final accuracy {result.final_accuracy:.3f}\n")

    # momentum rescaling: tiny momenta survive the round-trip to FP16
    tiny = np.full(8, 2.0e-8)  # below half the smallest binary16 subnormal
    print(f"momentum entries of {tiny[0]:.1e}:")
    print(f"  plain round to FP16:      {float(half_round(tiny)[0])!r}")
    w = np.ones(8, np.float32)  # one tensor, in the FP16 path's float32 carrier
    state = SGDState.init(w, mu=1.0, weight_decay=0.0)
    state.momentum[...] = tiny
    fp16_update_path(w, np.zeros_like(w), state, lr=0.0, layout=FlatLayout({"w": w}))
    s = state.fp16_scales[0][0]  # the momentum's scale for its one tensor
    print(f"  stored rescaled by {s:.3e}: {float(state.momentum[0])!r} "
          f"(recovers {state.momentum[0] * s:.3e})")
