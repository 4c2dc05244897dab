#ifndef D2STGNN_NN_INIT_H_
#define D2STGNN_NN_INIT_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace d2stgnn::nn {

/// Xavier/Glorot uniform initialization: U(-a, a) with
/// a = gain * sqrt(6 / (fan_in + fan_out)). For 2-D weights fan_in/out are
/// the matrix dimensions; for higher ranks the leading dims fold into
/// fan_in.
Tensor XavierUniform(const Shape& shape, Rng& rng, float gain = 1.0f);

/// Xavier/Glorot normal initialization: N(0, gain^2 * 2/(fan_in+fan_out)).
Tensor XavierNormal(const Shape& shape, Rng& rng, float gain = 1.0f);

}  // namespace d2stgnn::nn

#endif  // D2STGNN_NN_INIT_H_
