// Fig. 12 — Efficacy of single-sideband backscatter: throughput of a
// concurrent iperf flow on Wi-Fi channel 6 while the tag backscatters
// {50, 650, 1000} packets/s.
//
// DSB's mirror copy lands on channel 6 and collides with the victim flow;
// SSB's packets live on channel 11 and leave the flow untouched.
// Extension series: DSB interference with the paper's §2.3.3 CTS-to-Self
// reservation enabled (collision-free by construction).
#include <cstdio>

#include "bench_util.h"
#include "mac/dcf.h"
#include "mac/reservation.h"

int main() {
  using namespace itb;

  bench::header("Fig.12",
                "iperf throughput vs backscatter rate: baseline / SSB / DSB",
                "baseline ~20 Mbps; SSB indistinguishable from baseline at all "
                "rates; DSB collapses as the rate grows (roughly halved at "
                "1000 pkt/s)");

  const double duration_s = 4.0;

  const mac::DcfResult baseline =
      mac::simulate_dcf(mac::InterfererConfig{}, duration_s, 99);

  std::printf("backscatter_pkts_per_s,baseline_mbps,ssb_mbps,dsb_mbps,dsb_collision_rate\n");
  for (const double rate : {50.0, 650.0, 1000.0}) {
    mac::InterfererConfig ssb;
    ssb.packets_per_second = rate;
    ssb.on_victim_channel = false;

    mac::InterfererConfig dsb;
    dsb.packets_per_second = rate;
    dsb.on_victim_channel = true;

    const auto s = mac::simulate_dcf(ssb, duration_s, 7);
    const auto d = mac::simulate_dcf(dsb, duration_s, 7);
    std::printf("%.0f,%.1f,%.1f,%.1f,%.2f\n", rate, baseline.throughput_mbps,
                s.throughput_mbps, d.throughput_mbps, d.collision_rate);
  }

  // §2.3.3 extension: reservation schemes remove tag-side collisions.
  bench::note("reservation ablation (tag-side collision fraction, busy=0.3):");
  for (const auto [name, scheme] :
       {std::pair{"none", mac::ReservationScheme::kNone},
        std::pair{"cts-to-self", mac::ReservationScheme::kCtsToSelf},
        std::pair{"tag-rts", mac::ReservationScheme::kTagRts},
        std::pair{"data-as-rts", mac::ReservationScheme::kDataAsRts}}) {
    mac::ReservationConfig rc;
    rc.scheme = scheme;
    const auto r = mac::evaluate_reservation(rc, 5000, 11);
    std::printf("#   %-12s collisions=%.3f clean_tx/event=%.2f control_us=%.0f\n",
                name, r.collision_fraction, r.clean_transmissions_per_event,
                r.control_overhead_us);
  }
  return 0;
}
