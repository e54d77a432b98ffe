#include "tensor/tensor_io.h"

#include <limits>

namespace rlgraph {

void write_tensor(ByteWriter* writer, const Tensor& tensor) {
  writer->write_u8(static_cast<uint8_t>(tensor.dtype()));
  writer->write_u32(static_cast<uint32_t>(tensor.shape().rank()));
  for (int64_t d : tensor.shape().dims()) writer->write_i64(d);
  writer->write_u64(tensor.byte_size());
  writer->write_bytes(tensor.raw(), tensor.byte_size());
}

Tensor read_tensor(ByteReader* reader) {
  const uint8_t dtype_byte = reader->read_u8();
  if (dtype_byte > static_cast<uint8_t>(DType::kBool)) {
    throw SerializationError("tensor stream has invalid dtype tag " +
                             std::to_string(dtype_byte));
  }
  DType dtype = static_cast<DType>(dtype_byte);
  uint32_t rank = reader->read_u32();
  std::vector<int64_t> dims(rank);
  for (uint32_t d = 0; d < rank; ++d) {
    dims[d] = reader->read_i64();
    if (dims[d] < 0) {
      throw SerializationError("tensor stream has negative dimension " +
                               std::to_string(dims[d]));
    }
  }
  uint64_t nbytes = reader->read_u64();
  // Validate the declared byte count against dtype/dims and the bytes left
  // in the stream BEFORE allocating, so corrupt dims fail as the documented
  // SerializationError instead of a multi-GB allocation or bad_alloc.
  uint64_t expected = dtype_size(dtype);
  for (int64_t d : dims) {
    if (d != 0 &&
        expected > std::numeric_limits<uint64_t>::max() /
                       static_cast<uint64_t>(d)) {
      throw SerializationError("tensor stream byte size overflows (corrupt "
                               "dimensions)");
    }
    expected *= static_cast<uint64_t>(d);
  }
  if (expected != nbytes) {
    throw SerializationError(
        "tensor stream byte count " + std::to_string(nbytes) +
        " does not match declared dtype/shape (" + std::to_string(expected) +
        " expected)");
  }
  if (nbytes > reader->remaining()) {
    throw SerializationError(
        "tensor stream truncated: " + std::to_string(nbytes) +
        " bytes declared, " + std::to_string(reader->remaining()) +
        " remaining");
  }
  Tensor t(dtype, Shape(dims));
  reader->read_bytes(t.mutable_raw(), nbytes);
  return t;
}

}  // namespace rlgraph
