// Microbenchmarks (google-benchmark) of the PHY processing chains: useful
// for tracking the simulator's own performance and for the DESIGN.md claim
// that every experiment runs at waveform level in reasonable time.
#include <benchmark/benchmark.h>

#include "backscatter/ssb_modulator.h"
#include "backscatter/wifi_synth.h"
#include "ble/gfsk.h"
#include "ble/single_tone.h"
#include "channel/impairments.h"
#include "core/monte_carlo.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/fir.h"
#include "dsp/rng.h"
#include "dsp/simd/dispatch.h"
#include "wifi/cck.h"
#include "wifi/convolutional.h"
#include "wifi/dsss_rx.h"
#include "wifi/dsss_tx.h"
#include "wifi/ofdm_rx.h"
#include "wifi/ofdm_tx.h"
#include "zigbee/frame.h"

namespace {

using namespace itb;

void BM_Fft1024(benchmark::State& state) {
  dsp::Xoshiro256 rng(1);
  dsp::CVec x(1024);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    dsp::CVec y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Fft1024);

// The seed's per-call twiddle-recurrence FFT, kept verbatim as the baseline
// the planned engine is measured against (see bench/baselines/).
void seed_fft_inplace(dsp::CVec& x) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const dsp::Real ang = -dsp::kTwoPi / static_cast<dsp::Real>(len);
    const dsp::Complex wlen{std::cos(ang), std::sin(ang)};
    for (std::size_t i = 0; i < n; i += len) {
      dsp::Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const dsp::Complex u = x[i + k];
        const dsp::Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void BM_Fft1024Seed(benchmark::State& state) {
  dsp::Xoshiro256 rng(1);
  dsp::CVec x(1024);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    dsp::CVec y = x;
    seed_fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Fft1024Seed);

void BM_FftPlanned4096(benchmark::State& state) {
  dsp::Xoshiro256 rng(1);
  dsp::CVec x(4096);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  const dsp::FftPlan& plan = dsp::fft_plan(4096);
  for (auto _ : state) {
    dsp::CVec y = x;
    plan.forward(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_FftPlanned4096);

void BM_CorrelateDirect1kPattern(benchmark::State& state) {
  dsp::Xoshiro256 rng(7);
  dsp::CVec x(16384), p(1024);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto& v : p) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    auto c = dsp::cross_correlate(x, p);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_CorrelateDirect1kPattern);

void BM_ConvolveDirect129Taps(benchmark::State& state) {
  dsp::Xoshiro256 rng(8);
  dsp::CVec x(8192);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  const dsp::RVec taps = dsp::design_lowpass(129, 0.2);
  for (auto _ : state) {
    auto y = dsp::convolve(x, taps);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConvolveDirect129Taps);

void BM_PerVsSnrSweep(benchmark::State& state) {
  core::MonteCarloConfig cfg;
  cfg.trials_per_point = 8;
  cfg.psdu_bytes = 24;
  cfg.num_threads = static_cast<std::size_t>(state.range(0));
  const std::vector<double> grid{-2.0, 2.0, 6.0};
  for (auto _ : state) {
    auto pts = core::per_vs_snr(cfg, grid);
    benchmark::DoNotOptimize(pts.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cfg.trials_per_point * grid.size()));
}
BENCHMARK(BM_PerVsSnrSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---------------------------------------------------------------------------
// SIMD A/B pairs: Arg(0) forces the scalar kernel table, Arg(1) runs the
// detected dispatch level (AVX2 when compiled in and present). Results
// are bit-identical by the dispatch-invariance contract; only throughput may
// differ. `set_simd_enabled` is restored after the timing loop so the pairs
// compose with the rest of the suite in either order.
// ---------------------------------------------------------------------------

class DispatchScope {
 public:
  explicit DispatchScope(bool enable) { dsp::simd::set_simd_enabled(enable); }
  ~DispatchScope() { dsp::simd::set_simd_enabled(true); }
};

void BM_DsssRx2MbpsDispatch(benchmark::State& state) {
  const DispatchScope scope(state.range(0) != 0);
  wifi::DsssTxConfig cfg;
  const wifi::DsssTransmitter tx(cfg);
  const auto frame = tx.modulate(phy::Bytes(31, 0xA5));
  const wifi::DsssReceiver rx;
  for (auto _ : state) {
    auto r = rx.receive(frame.baseband);
    benchmark::DoNotOptimize(&r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 31);
}
BENCHMARK(BM_DsssRx2MbpsDispatch)->Arg(0)->Arg(1);

void BM_ImpairmentChainDispatch(benchmark::State& state) {
  const DispatchScope scope(state.range(0) != 0);
  const channel::ImpairmentChain chain(
      channel::ward_mobility_preset(22e6));
  dsp::Xoshiro256 rng(11);
  dsp::CVec x(4096);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    auto y = chain.apply(x, 42, 0);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ImpairmentChainDispatch)->Arg(0)->Arg(1);

void BM_BleSingleTonePayload(benchmark::State& state) {
  for (auto _ : state) {
    auto payload = ble::single_tone_payload(38, ble::ToneSign::kHigh, 31);
    benchmark::DoNotOptimize(payload.data());
  }
}
BENCHMARK(BM_BleSingleTonePayload);

void BM_GfskModulatePacket(benchmark::State& state) {
  ble::SingleToneSpec spec;
  const auto tone = ble::make_single_tone_packet(spec);
  ble::GfskModulator mod;
  for (auto _ : state) {
    auto s = mod.modulate(tone.packet.air_bits);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tone.packet.air_bits.size()));
}
BENCHMARK(BM_GfskModulatePacket);

void BM_DsssTx2Mbps(benchmark::State& state) {
  wifi::DsssTxConfig cfg;
  const wifi::DsssTransmitter tx(cfg);
  const phy::Bytes psdu(31, 0xA5);
  for (auto _ : state) {
    auto f = tx.modulate(psdu);
    benchmark::DoNotOptimize(f.baseband.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 31);
}
BENCHMARK(BM_DsssTx2Mbps);

void BM_DsssRx2Mbps(benchmark::State& state) {
  wifi::DsssTxConfig cfg;
  const wifi::DsssTransmitter tx(cfg);
  const auto frame = tx.modulate(phy::Bytes(31, 0xA5));
  const wifi::DsssReceiver rx;
  for (auto _ : state) {
    auto r = rx.receive(frame.baseband);
    benchmark::DoNotOptimize(&r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 31);
}
BENCHMARK(BM_DsssRx2Mbps);

void BM_CckModulate11Mbps(benchmark::State& state) {
  wifi::CckModulator mod(wifi::DsssRate::k11Mbps);
  dsp::Xoshiro256 rng(2);
  phy::Bits bits(8 * 256);
  for (auto& b : bits) b = rng.bit();
  for (auto _ : state) {
    dsp::CVec chips;
    mod.modulate(bits, chips);
    benchmark::DoNotOptimize(chips.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bits.size()));
}
BENCHMARK(BM_CckModulate11Mbps);

void BM_ViterbiDecode(benchmark::State& state) {
  dsp::Xoshiro256 rng(3);
  phy::Bits data(864);
  for (auto& b : data) b = rng.bit();
  const phy::Bits coded = wifi::convolutional_encode(data);
  for (auto _ : state) {
    auto out = wifi::viterbi_decode(coded, data.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ViterbiDecode);

void BM_OfdmTx36Mbps(benchmark::State& state) {
  wifi::OfdmTxConfig cfg;
  cfg.rate = wifi::OfdmRate::k36;
  const wifi::OfdmTransmitter tx(cfg);
  const phy::Bytes psdu(100, 0x3C);
  for (auto _ : state) {
    auto t = tx.transmit(psdu);
    benchmark::DoNotOptimize(t.baseband.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_OfdmTx36Mbps);

void BM_OfdmRx36Mbps(benchmark::State& state) {
  wifi::OfdmTxConfig cfg;
  cfg.rate = wifi::OfdmRate::k36;
  const wifi::OfdmTransmitter tx(cfg);
  const auto t = tx.transmit(phy::Bytes(100, 0x3C));
  const wifi::OfdmReceiver rx;
  for (auto _ : state) {
    auto r = rx.receive(t.baseband);
    benchmark::DoNotOptimize(&r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_OfdmRx36Mbps);

void BM_SsbModulateCarrier(benchmark::State& state) {
  backscatter::SsbConfig cfg;
  const backscatter::SsbModulator mod(cfg);
  for (auto _ : state) {
    auto w = mod.states_to_waveform(mod.carrier_states(14300));
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 14300);
}
BENCHMARK(BM_SsbModulateCarrier);

void BM_SynthesizeWifiFrame(benchmark::State& state) {
  backscatter::WifiSynthConfig cfg;
  const phy::Bytes psdu(31, 0x5A);
  for (auto _ : state) {
    auto s = backscatter::synthesize_wifi(psdu, cfg);
    benchmark::DoNotOptimize(s.waveform.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 31);
}
BENCHMARK(BM_SynthesizeWifiFrame);

void BM_ZigbeeTransmit(benchmark::State& state) {
  const phy::Bytes payload(20, 0x42);
  for (auto _ : state) {
    auto t = zigbee::zigbee_transmit(payload);
    benchmark::DoNotOptimize(t.baseband.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 20);
}
BENCHMARK(BM_ZigbeeTransmit);

}  // namespace

BENCHMARK_MAIN();
