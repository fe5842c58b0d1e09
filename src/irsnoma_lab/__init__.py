"""Simulation and optimization lab for IRS-aided MISO-NOMA downlink networks.

The package is organized as a numpy library:

- ``channel``    -- scenario geometry, Rician fading, IRS reflection states
- ``precoding``  -- per-cluster combined channels and zero-forcing beamforming
- ``noma``       -- SINR/rate evaluation, SIC and QoS feasibility, OMA baseline
- ``mobility``   -- rejection-sampled positions and an LSTM position predictor
- ``clustering`` -- K-means-seeded Gaussian mixture user clustering (EM)
- ``rl``         -- tabular Q-learning and DQN over phase/power adjustments
- ``oracle``     -- exhaustive ground-truth search on small instances
- ``harness``    -- seeded experiment pipelines and CSV emission
- ``cli``        -- command-line front-end for the harness
"""

__version__ = "0.1.0"
