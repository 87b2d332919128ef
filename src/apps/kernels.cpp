#include "apps/kernels.h"

#include <cmath>
#include <string>

#include "base/error.h"
#include "base/fixed_point.h"
#include "base/table.h"

namespace mhs::apps {

namespace {

/// Q16.16 representation of a double coefficient.
std::int64_t q16(double v) { return Q16::from_double(v).raw(); }

/// value * coeff in Q16.16: (value * coeff) >> 16.
ir::OpId qmul(ir::Cdfg& c, ir::OpId value, std::int64_t coeff_q16) {
  const ir::OpId k = c.constant(coeff_q16);
  const ir::OpId sixteen = c.constant(16);
  return c.shr(c.mul(value, k), sixteen);
}

}  // namespace

ir::Cdfg fir_kernel(std::size_t taps) {
  MHS_CHECK(taps >= 1 && taps <= 64, "fir taps out of [1,64]");
  ir::Cdfg c("fir" + std::to_string(taps));
  // Windowed-sinc-ish low-pass coefficients, normalized to sum ~ 1.
  std::vector<double> h(taps);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double x = static_cast<double>(i) - static_cast<double>(taps - 1) / 2.0;
    h[i] = std::exp(-0.5 * (x * x) / (static_cast<double>(taps) / 4.0 + 1.0));
    sum += h[i];
  }
  ir::OpId acc = ir::OpId::invalid();
  for (std::size_t i = 0; i < taps; ++i) {
    const ir::OpId x = c.input(concat("x", std::to_string(i)));
    const ir::OpId term = qmul(c, x, q16(h[i] / sum));
    acc = acc.valid() ? c.add(acc, term) : term;
  }
  c.output("y", acc);
  return c;
}

ir::Cdfg iir_biquad_kernel() {
  ir::Cdfg c("iir_biquad");
  // Butterworth-ish low-pass section.
  const double b0 = 0.2929, b1 = 0.5858, b2 = 0.2929;
  const double a1 = -0.0000, a2 = 0.1716;
  const ir::OpId x = c.input("x");
  const ir::OpId x1 = c.input("x1");
  const ir::OpId x2 = c.input("x2");
  const ir::OpId y1 = c.input("y1");
  const ir::OpId y2 = c.input("y2");
  ir::OpId acc = qmul(c, x, q16(b0));
  acc = c.add(acc, qmul(c, x1, q16(b1)));
  acc = c.add(acc, qmul(c, x2, q16(b2)));
  acc = c.sub(acc, qmul(c, y1, q16(a1)));
  acc = c.sub(acc, qmul(c, y2, q16(a2)));
  c.output("y", acc);
  return c;
}

ir::Cdfg dct8_kernel() {
  ir::Cdfg c("dct8");
  std::vector<ir::OpId> x;
  for (int i = 0; i < 8; ++i) {
    x.push_back(c.input(concat("x", std::to_string(i))));
  }
  for (int k = 0; k < 8; ++k) {
    ir::OpId acc = ir::OpId::invalid();
    const double scale = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (int n = 0; n < 8; ++n) {
      const double coeff =
          scale * std::cos((2.0 * n + 1.0) * k * M_PI / 16.0);
      const ir::OpId term = qmul(c, x[static_cast<std::size_t>(n)], q16(coeff));
      acc = acc.valid() ? c.add(acc, term) : term;
    }
    c.output(concat("X", std::to_string(k)), acc);
  }
  return c;
}

ir::Cdfg xtea_kernel(std::size_t rounds) {
  MHS_CHECK(rounds >= 1, "xtea needs at least one round");
  ir::Cdfg c("xtea" + std::to_string(rounds));
  constexpr std::int64_t kDelta = 0x9E3779B9;
  constexpr std::int64_t kMask = 0xFFFFFFFF;  // keep arithmetic in 32 bits

  ir::OpId v0 = c.input("v0");
  ir::OpId v1 = c.input("v1");
  const ir::OpId key[4] = {c.input("k0"), c.input("k1"), c.input("k2"),
                           c.input("k3")};
  const ir::OpId mask = c.constant(kMask);
  const ir::OpId four = c.constant(4);
  const ir::OpId five = c.constant(5);
  const ir::OpId eleven = c.constant(11);
  const ir::OpId three = c.constant(3);

  std::int64_t sum = 0;
  auto mix = [&](ir::OpId v, ir::OpId other, std::int64_t s,
                 ir::OpId k_lo) {
    // v += (((other << 4) ^ (other >> 5)) + other) ^ (sum + key[..]);
    const ir::OpId shifted =
        c.bxor(c.band(c.shl(other, four), mask), c.shr(other, five));
    const ir::OpId lhs = c.band(c.add(shifted, other), mask);
    const ir::OpId rhs =
        c.band(c.add(c.constant(s & kMask), k_lo), mask);
    return c.band(c.add(v, c.bxor(lhs, rhs)), mask);
  };

  for (std::size_t r = 0; r < rounds; ++r) {
    // key index sum & 3 — sum is a compile-time constant per round, so the
    // key selection is static, exactly as an unrolled XTEA would be.
    v0 = mix(v0, v1, sum, key[static_cast<std::size_t>(sum & 3)]);
    sum = (sum + kDelta) & kMask;
    v1 = mix(v1, v0, sum, key[static_cast<std::size_t>((sum >> 11) & 3)]);
    (void)eleven;
    (void)three;
  }
  c.output("v0_out", v0);
  c.output("v1_out", v1);
  return c;
}

ir::Cdfg median5_kernel() {
  ir::Cdfg c("median5");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  const ir::OpId d = c.input("c");
  const ir::OpId e = c.input("d");
  const ir::OpId f = c.input("e");
  // Median-of-5 via a small exchange network of min/max pairs.
  auto lo = [&](ir::OpId x, ir::OpId y) { return c.binary(ir::OpKind::kMin, x, y); };
  auto hi = [&](ir::OpId x, ir::OpId y) { return c.binary(ir::OpKind::kMax, x, y); };
  const ir::OpId ab_lo = lo(a, b), ab_hi = hi(a, b);
  const ir::OpId de_lo = lo(d, e), de_hi = hi(d, e);
  const ir::OpId s1 = hi(ab_lo, de_lo);   // drop global min candidate
  const ir::OpId s2 = lo(ab_hi, de_hi);   // drop global max candidate
  const ir::OpId m1 = lo(s1, s2);
  const ir::OpId m2 = hi(s1, s2);
  const ir::OpId med = hi(m1, lo(m2, f));
  c.output("median", med);
  return c;
}

ir::Cdfg checksum_kernel(std::size_t words) {
  MHS_CHECK(words >= 1, "checksum needs at least one word");
  ir::Cdfg c("checksum" + std::to_string(words));
  const ir::OpId mod = c.constant(65535);
  ir::OpId a = c.constant(1);
  ir::OpId b = c.constant(0);
  for (std::size_t i = 0; i < words; ++i) {
    const ir::OpId w = c.input(concat("w", std::to_string(i)));
    a = c.band(c.add(a, w), mod);
    b = c.band(c.add(b, a), mod);
  }
  c.output("ck_a", a);
  c.output("ck_b", b);
  return c;
}

ir::Cdfg sad_kernel(std::size_t n) {
  MHS_CHECK(n >= 1, "sad needs at least one pair");
  ir::Cdfg c("sad" + std::to_string(n));
  ir::OpId acc = ir::OpId::invalid();
  for (std::size_t i = 0; i < n; ++i) {
    const ir::OpId a = c.input(concat("a", std::to_string(i)));
    const ir::OpId b = c.input(concat("b", std::to_string(i)));
    const ir::OpId diff = c.unary(ir::OpKind::kAbs, c.sub(a, b));
    acc = acc.valid() ? c.add(acc, diff) : diff;
  }
  c.output("sad", acc);
  return c;
}

ir::Cdfg matmul_kernel(std::size_t n) {
  MHS_CHECK(n >= 1 && n <= 6, "matmul size out of [1,6]");
  ir::Cdfg c("matmul" + std::to_string(n));
  std::vector<std::vector<ir::OpId>> a(n), b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      a[r].push_back(
          c.input(concat("a", std::to_string(r), std::to_string(k))));
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      b[r].push_back(
          c.input(concat("b", std::to_string(r), std::to_string(k))));
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      ir::OpId acc = ir::OpId::invalid();
      for (std::size_t j = 0; j < n; ++j) {
        const ir::OpId term = c.mul(a[r][j], b[j][k]);
        acc = acc.valid() ? c.add(acc, term) : term;
      }
      c.output(concat("c", std::to_string(r), std::to_string(k)), acc);
    }
  }
  return c;
}

ir::Cdfg sobel3_kernel() {
  ir::Cdfg c("sobel3");
  ir::OpId p[3][3];
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 3; ++k) {
      // The Sobel gradient never reads the window's centre pixel, so the
      // kernel does not declare it (a dead input would fail strict lint).
      if (r == 1 && k == 1) continue;
      p[r][k] = c.input(concat("p", std::to_string(r), std::to_string(k)));
    }
  }
  const ir::OpId two = c.constant(2);
  // gx = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
  const ir::OpId right =
      c.add(c.add(p[0][2], c.mul(two, p[1][2])), p[2][2]);
  const ir::OpId left =
      c.add(c.add(p[0][0], c.mul(two, p[1][0])), p[2][0]);
  const ir::OpId gx = c.sub(right, left);
  // gy = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
  const ir::OpId bottom =
      c.add(c.add(p[2][0], c.mul(two, p[2][1])), p[2][2]);
  const ir::OpId top =
      c.add(c.add(p[0][0], c.mul(two, p[0][1])), p[0][2]);
  const ir::OpId gy = c.sub(bottom, top);
  c.output("mag", c.add(c.unary(ir::OpKind::kAbs, gx),
                        c.unary(ir::OpKind::kAbs, gy)));
  return c;
}

ir::Cdfg quantize_kernel(std::size_t n) {
  MHS_CHECK(n >= 1 && n <= 64, "quantizer size out of [1,64]");
  ir::Cdfg c("quantize" + std::to_string(n));
  const ir::OpId sixteen = c.constant(16);
  for (std::size_t i = 0; i < n; ++i) {
    const ir::OpId x = c.input(concat("x", std::to_string(i)));
    // Reciprocal of a JPEG-ish quant step (steps grow with index).
    const std::int64_t step = static_cast<std::int64_t>(8 + 3 * i);
    const ir::OpId recip = c.constant((std::int64_t{1} << 16) / step);
    const ir::OpId scaled = c.shr(c.mul(x, recip), sixteen);
    // Clamp to [-1024, 1023].
    const ir::OpId lo = c.constant(-1024);
    const ir::OpId hi = c.constant(1023);
    const ir::OpId clamped = c.binary(
        ir::OpKind::kMin, c.binary(ir::OpKind::kMax, scaled, lo), hi);
    c.output(concat("q", std::to_string(i)), clamped);
  }
  return c;
}

}  // namespace mhs::apps
