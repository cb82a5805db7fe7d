// Fleet configurations shared by the suites that pin network digests.
#pragma once

#include "sim/faults.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace itb::sim::test {

/// bench/net_resilience.cpp's 5000-tag grid at fault intensity 1: AP
/// outages, interference bursts, brownouts and SNR slumps. With `arq` the
/// fleet also runs ARQ, rate + ZigBee fallback and AP failover.
inline NetworkConfig net_resilience_config(bool arq) {
  NetworkConfig cfg;
  cfg.topology.kind = TopologyKind::kGrid;
  cfg.topology.num_tags = 5000;
  cfg.topology.extent_m = 30.0;
  cfg.topology.num_helpers = 324;
  cfg.topology.num_aps = 16;
  cfg.wifi_channels = {1, 6, 11};
  cfg.rounds = 10;
  cfg.ambient_busy_probability = 0.05;
  cfg.tag_medium_loss_db = 0.0;
  cfg.detector_sensitivity_dbm = -60.0;
  cfg.seed = 2026;
  FaultProfile profile;
  profile.horizon_us = 10.0 * static_cast<double>((5000 + 2) / 3) * 20160.0;
  profile.outages_per_ap = 1.0;
  profile.outage_mean_us = 0.1 * profile.horizon_us;
  profile.bursts_per_channel = 2.0;
  profile.burst_mean_us = 0.05 * profile.horizon_us;
  profile.burst_rise_db = 20.0;
  profile.brownouts_per_tag = 0.2;
  profile.brownout_mean_us = 0.02 * profile.horizon_us;
  profile.snr_slumps = 1.0;
  profile.slump_mean_us = 0.05 * profile.horizon_us;
  profile.slump_depth_db = 6.0;
  cfg.faults = generate_fault_schedule(profile, cfg.topology.num_aps,
                                       cfg.wifi_channels,
                                       cfg.topology.num_tags,
                                       cfg.seed ^ 0xFA17u);
  if (arq) {
    cfg.enable_arq = true;
    cfg.arq.max_attempts = 8;
    cfg.arq.retry_budget = 16;
    cfg.arq.backoff_base_slots = 0;
    cfg.fallback.enable_rate_fallback = true;
    cfg.fallback.enable_zigbee_fallback = true;
    cfg.fallback.down_after_failures = 2;
    cfg.ap_failover = true;
  }
  return cfg;
}

}  // namespace itb::sim::test
