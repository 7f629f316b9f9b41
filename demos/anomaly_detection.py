"""Train the sensor observation model on successful executions and use its
reconstruction-error statistics to spot *when* a run goes wrong.

The synthetic rig: 8 sensor channels of phase-jittered sinusoids plus noise.
Negative sequences pick up a constant bias of 3x the noise level from
timestep 120 on (alternating sign across channels, the way a miscalibrated
sensor bank drifts). The model never sees an anomalous sequence during
training; detection is purely "this no longer reconstructs like success".

Takes ~10 s on a laptop CPU (500 training epochs).

Run:  python demos/anomaly_detection.py
"""
import time

import numpy as np

from blamebox import (MomConfig, SensorSynthSpec, detect_failure_time,
                      error_series, fit_error_stats, gen_sensor_suite, train)

spec = SensorSynthSpec()  # 8 channels, 200 steps, shift anomaly at t=120
suite = gen_sensor_suite(spec, n_train=30, n_pos=10, n_neg=10,
                         rng=np.random.default_rng(0))
config = MomConfig(seed=0)

print(f"training on {len(suite.train)} successful sequences "
      f"({spec.channels} channels x {spec.T} steps), {config.epochs} epochs ...")
t0 = time.perf_counter()
model = train(list(suite.train), config)
print(f"done in {time.perf_counter() - t0:.1f} s; bottleneck {model.bottleneck} "
      f"of {model.D} dims; loss {model.loss_history[0]:.3f} -> {model.loss_history[-1]:.3f}")

stats = fit_error_stats(model, list(suite.train))


def flag(seq):
    likelihood, t_fail = detect_failure_time(stats, error_series(model, seq), config)
    return t_fail, likelihood


print(f"\nheld-out successes (should stay quiet):")
for i, seq in enumerate(suite.positive):
    t_fail, _ = flag(seq)
    print(f"  positive {i}: {'clean' if t_fail is None else f'FLAGGED at {t_fail}'}")

print(f"\nanomalous sequences (bias starts at t={suite.onset}):")
hits = []
for i, seq in enumerate(suite.negative):
    t_fail, _ = flag(seq)
    hits.append(t_fail)
    shown = "missed" if t_fail is None else f"flagged at t={t_fail}"
    print(f"  negative {i}: {shown}")

detected = [t for t in hits if t is not None]
print(f"\ndetected {len(detected)}/{len(hits)}; "
      f"flag times {min(detected)}..{max(detected)} around onset {suite.onset}")
