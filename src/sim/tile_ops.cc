#include "tile_ops.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "tensor/dispatch.hh"
#include "tensor/vector_ops.hh"

namespace manna::sim
{

using isa::Opcode;

namespace
{

void
execVmm(const TileOp &op)
{
    const float *v = op.a;
    const float *block = op.b;
    float *d = op.d;
    const std::uint32_t numRows = op.rows;
    const std::uint32_t numCols = op.n;
    const std::uint32_t pitch = op.pitchA;
    const bool accumulate = (op.flags & kTileOpAccumulate) != 0;
    const auto &k = tensor::simd::kernels();
    if ((op.flags & kTileOpRowDot) != 0) {
        float *dn = op.dn;
        for (std::uint32_t r = 0; r < numRows; ++r) {
            const float *row = block + r * pitch;
            float dotAcc = 0.0f;
            if ((op.flags & kTileOpWithNorms) != 0) {
                float normAcc = 0.0f;
                k.dotNorm(row, v, numCols, &dotAcc, &normAcc);
                if (accumulate) {
                    d[r] += dotAcc;
                    dn[r] += normAcc;
                } else {
                    d[r] = dotAcc;
                    dn[r] = normAcc;
                }
            } else {
                dotAcc = k.dot(row, v, numCols);
                if (accumulate)
                    d[r] += dotAcc;
                else
                    d[r] = dotAcc;
            }
        }
    } else {
        if (!accumulate)
            std::fill(d, d + numCols, 0.0f);
        // Unlike vecMatMulInto() there is no w == 0 row skip here: the
        // eMAC array always streams every row, so NaN/inf rows reach
        // the accumulator even under a zero weight.
        for (std::uint32_t r = 0; r < numRows; ++r)
            k.axpy(v[r], block + r * pitch, d, numCols);
    }
}

void
execElementwise(const TileOp &op)
{
    const float *pa = op.a;
    const float *pb = op.b;
    float *pd = op.d;
    const std::uint32_t len = op.n;
    const std::uint32_t aLen = op.pitchA; // 0 = unused, 1 = broadcast
    const std::uint32_t bLen = op.pitchD;
    // Full-length operands route through the dispatched SIMD kernels;
    // broadcast (len == 1) sources and the remaining immediate forms
    // keep the scalar loop below. All of these are non-accumulating
    // elementwise maps (EwMac accumulates per element but each output
    // is independent), so the kernels are bit-identical to the loop.
    if ((pa == nullptr || aLen == len) &&
        (pb == nullptr || bLen == len)) {
        const auto &k = tensor::simd::kernels();
        switch (op.op) {
          case Opcode::EwAdd:
            k.add(pa, pb, pd, len);
            return;
          case Opcode::EwSub:
            k.sub(pa, pb, pd, len);
            return;
          case Opcode::EwMul:
            k.mul(pa, pb, pd, len);
            return;
          case Opcode::EwMac:
            k.mac(pa, pb, pd, len);
            return;
          case Opcode::EwMulImm:
            k.scale(pa, op.imm, pd, len);
            return;
          default:
            break;
        }
    }
    auto valA = [&](std::uint32_t i) {
        return aLen == 1 ? pa[0] : pa[i];
    };
    auto valB = [&](std::uint32_t i) {
        return bLen == 1 ? pb[0] : pb[i];
    };
    for (std::uint32_t i = 0; i < len; ++i) {
        switch (op.op) {
          case Opcode::EwAdd:
            pd[i] = valA(i) + valB(i);
            break;
          case Opcode::EwSub:
            pd[i] = valA(i) - valB(i);
            break;
          case Opcode::EwMul:
            pd[i] = valA(i) * valB(i);
            break;
          case Opcode::EwMac:
            pd[i] += valA(i) * valB(i);
            break;
          case Opcode::EwAddImm:
            pd[i] = valA(i) + op.imm;
            break;
          case Opcode::EwMulImm:
            pd[i] = valA(i) * op.imm;
            break;
          case Opcode::EwRsubImm:
            pd[i] = op.imm - valA(i);
            break;
          case Opcode::Fill:
            pd[i] = op.imm;
            break;
          default:
            panic("bad elementwise opcode");
        }
    }
}

void
execSfu(const TileOp &op)
{
    const float *pa = op.a;
    float *pd = op.d;
    const std::uint32_t len = op.n;
    switch (op.op) {
      case Opcode::SfuExp:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::exp(pa[i]);
        break;
      case Opcode::SfuPow: {
        // The exponent lives in tile memory and can change between
        // steps, so it is re-read at execution time.
        const float gamma = *op.b;
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::pow(std::max(pa[i], 0.0f), gamma);
        break;
      }
      case Opcode::SfuRecip:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = 1.0f / pa[i];
        break;
      case Opcode::SfuSqrt:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::sqrt(pa[i]);
        break;
      case Opcode::SfuSigmoid:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = tensor::sigmoidScalar(pa[i]);
        break;
      case Opcode::SfuTanh:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::tanh(pa[i]);
        break;
      case Opcode::SfuSoftplus:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = tensor::softplusScalar(pa[i]);
        break;
      case Opcode::SfuAccSum: {
        float acc = 0.0f;
        for (std::uint32_t i = 0; i < len; ++i)
            acc += pa[i];
        pd[0] = acc;
        break;
      }
      case Opcode::SfuAccMax: {
        float acc = pa[0];
        for (std::uint32_t i = 1; i < len; ++i)
            acc = std::max(acc, pa[i]);
        pd[0] = acc;
        break;
      }
      default:
        panic("bad SFU opcode");
    }
}

} // namespace

void
execTileOp(const TileOp &op)
{
    switch (op.kind) {
      case TileOpKind::Copy2d:
        for (std::uint32_t r = 0; r < op.rows; ++r) {
            const float *from = op.a + r * op.pitchA;
            float *to = op.d + r * op.pitchD;
            std::copy(from, from + op.n, to);
        }
        break;
      case TileOpKind::Vmm:
        execVmm(op);
        break;
      case TileOpKind::Elementwise:
        execElementwise(op);
        break;
      case TileOpKind::Sfu:
        execSfu(op);
        break;
    }
}

} // namespace manna::sim
