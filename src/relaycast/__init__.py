"""relaycast: layered broadcast-approach throughput for the collocated relay channel.

Closed-form and simulated average throughputs of layered (superposition
coded) transmission over a block-Rayleigh-fading channel with an
occasionally present relay near the source: single-layer and two-layer
sequential decode-and-forward, 2x1 MISO limits, continuous-broadcasting
bounds, allocation optimizers, high-SNR outage exponents and a
reproducible Monte-Carlo oracle.
"""

__version__ = "0.1.0"

from .model import (DecodingTimes, PowerConfig, ThroughputResult, TwoLayerAllocation,
                    decoding_times, layer_rates)
from .outage import (ergodic_miso_capacity, miso_single_layer_throughput,
                     optimal_single_user_rate, sdf_single_layer_throughput,
                     single_user_throughput, y_sum_tail)
from .broadcast import (FadingDistribution, PowerDensity, broadcast_rate,
                        optimal_power_density, rayleigh_distribution,
                        relay_or_miso_broadcast_bound, siso_broadcast_rate,
                        sum_fading_distribution)
from .bounds import (BoundContext, discontinuity_point, relay_threshold_bound,
                     t_factor, u_bound)
from .twolayer import (DuplexVerdict, direct_multilayer_throughput,
                       duplex_gain_condition, miso_equal_throughput,
                       miso_max_throughput, miso_unequal_throughput,
                       simplex_equal_throughput, simplex_unequal_throughput)
from .montecarlo import (SimConfig, SimEstimate, conditional_layer_probability,
                         simulate_strategy)
from .optimize import (OptResult, horizontal_db_gain, maximize_throughput,
                       oblivious_rate_plan)
from .dmt import DmtConfig, DmtExponents, dmt_average_rate, dmt_outage_exponents
