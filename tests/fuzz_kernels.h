// The shared random-kernel generator behind the CDFG fuzz campaigns
// (absint_fuzz's soundness sweep, equiv_fuzz's differential RTL/SW
// sweep). One generator, one distribution: a kernel seeded with the
// same value is bit-identical across fuzzers and across runs, so a seed
// printed by any campaign reproduces the exact kernel everywhere.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/table.h"
#include "ir/cdfg.h"

namespace mhs::fuzz {

/// A random input range biased toward the shapes that stress the
/// domains: unannotated (full), small ranges near zero, single points,
/// sign-crossing spans, and the i64 corners.
inline ir::ValueRange random_range(Rng& rng) {
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return {kI64Min, kI64Max};  // unannotated
    case 1: {                     // small, near zero
      const std::int64_t lo = rng.uniform_int(-300, 300);
      return {lo, lo + rng.uniform_int(0, 64)};
    }
    case 2: {  // single point (often a hazardous one)
      const std::int64_t v =
          rng.bernoulli(0.3) ? rng.uniform_int(-2, 2)
                             : rng.uniform_int(-100000, 100000);
      return {v, v};
    }
    case 3: {  // top corner
      const std::int64_t lo = kI64Max - rng.uniform_int(0, 1000);
      return {lo, kI64Max};
    }
    case 4: {  // bottom corner
      const std::int64_t hi = kI64Min + rng.uniform_int(0, 1000);
      return {kI64Min, hi};
    }
    default: {  // wide, sign-crossing
      const std::int64_t lo = rng.uniform_int(-1'000'000'000, 0);
      return {lo, rng.uniform_int(0, 1'000'000'000)};
    }
  }
}

inline std::int64_t random_constant(Rng& rng) {
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  switch (rng.uniform_int(0, 4)) {
    case 0:  return rng.uniform_int(-4, 4);           // small (0, ±1, ±2...)
    case 1:  return std::int64_t{1} << rng.uniform_int(0, 62);  // pow2
    case 2:  return rng.uniform_int(0, 70);           // shift-amount-ish
    case 3:  return rng.bernoulli(0.5) ? kI64Min : kI64Max;     // corners
    default: return rng.uniform_int(-100000, 100000);
  }
}

/// One random kernel: a few ranged inputs and constants, then a chain of
/// random compute ops over random existing operands, then one output.
inline ir::Cdfg random_kernel(std::uint64_t seed) {
  Rng rng(seed);
  ir::Cdfg k("fuzz" + std::to_string(seed));
  std::vector<ir::OpId> pool;
  const std::int64_t num_inputs = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < num_inputs; ++i) {
    const ir::ValueRange r = random_range(rng);
    pool.push_back(k.input(concat("x", std::to_string(i)), r));
  }
  const std::int64_t num_consts = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < num_consts; ++i) {
    pool.push_back(k.constant(random_constant(rng)));
  }
  static const std::vector<ir::OpKind> kComputeKinds = {
      ir::OpKind::kAdd, ir::OpKind::kSub,   ir::OpKind::kMul,
      ir::OpKind::kDiv, ir::OpKind::kShl,   ir::OpKind::kShr,
      ir::OpKind::kAnd, ir::OpKind::kOr,    ir::OpKind::kXor,
      ir::OpKind::kNeg, ir::OpKind::kAbs,   ir::OpKind::kMin,
      ir::OpKind::kMax, ir::OpKind::kCmpLt, ir::OpKind::kCmpEq,
      ir::OpKind::kSelect};
  const std::int64_t num_ops = rng.uniform_int(1, 12);
  for (std::int64_t i = 0; i < num_ops; ++i) {
    const ir::OpKind kind = rng.pick(kComputeKinds);
    const auto operand = [&] { return rng.pick(pool); };
    switch (ir::op_arity(kind)) {
      case 1:
        pool.push_back(k.unary(kind, operand()));
        break;
      case 2:
        pool.push_back(k.binary(kind, operand(), operand()));
        break;
      default:
        pool.push_back(k.select(operand(), operand(), operand()));
        break;
    }
  }
  k.output("y", pool.back());
  return k;
}

}  // namespace mhs::fuzz
