// Complex-envelope (baseband-equivalent) signal representation.
//
// Simulating the 5 us signature capture at the 900 MHz carrier rate would
// need >10 GS/s; the complex envelope around the carrier is the standard
// exact equivalent for bandlimited modulation and is what this module uses
// throughout. A real passband signal x(t) = Re{ x~(t) e^{j 2 pi fc t} } is
// represented by its envelope samples x~ at a rate fs that covers the
// modulation bandwidth only.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace stf::rf {

using Cplx = std::complex<double>;

/// Envelope samples plus the rates that give them meaning.
struct EnvelopeSignal {
  double fs = 0.0;  ///< Envelope sample rate (Hz).
  double fc = 0.0;  ///< Carrier frequency the envelope is referenced to (Hz).
  std::vector<Cplx> x;

  std::size_t size() const { return x.size(); }
};

/// Mean envelope power E|x~|^2 (passband power is half this).
double envelope_power(const EnvelopeSignal& s);

}  // namespace stf::rf
