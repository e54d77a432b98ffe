#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/buffer_pool.h"

namespace rlgraph {

namespace {
std::shared_ptr<void> allocate(size_t bytes) {
  if (bytes == 0) bytes = 1;  // keep a valid pointer for 0-element tensors
  // A shape-specialized plan step may have preplanned this allocation into
  // its arena (exact byte-size match); that beats any pool lookup.
  if (std::shared_ptr<void> planned = PlannedAllocScope::try_take(bytes)) {
    return planned;
  }
  if (BufferPool* pool = BufferPool::current()) return pool->allocate(bytes);
  return std::shared_ptr<void>(::operator new(bytes),
                               [](void* p) { ::operator delete(p); });
}
}  // namespace

Tensor::Tensor() : Tensor(DType::kFloat32, Shape{}) {
  *mutable_data<float>() = 0.0f;
}

Tensor::Tensor(DType dtype, const Shape& shape)
    : dtype_(dtype), shape_(shape) {
  RLG_REQUIRE(shape.fully_specified(),
              "Tensor requires fully specified shape, got "
                  << shape.to_string());
  num_elements_ = shape.num_elements();
  buffer_ = allocate(byte_size());
}

Tensor Tensor::zeros(DType dtype, const Shape& shape) {
  Tensor t(dtype, shape);
  std::memset(t.mutable_raw(), 0, t.byte_size());
  return t;
}

Tensor Tensor::filled(DType dtype, const Shape& shape, double value) {
  Tensor t(dtype, shape);
  for (int64_t i = 0; i < t.num_elements(); ++i) t.set_flat(i, value);
  return t;
}

Tensor Tensor::scalar(float v) {
  Tensor t(DType::kFloat32, Shape{});
  *t.mutable_data<float>() = v;
  return t;
}

Tensor Tensor::scalar_int(int32_t v) {
  Tensor t(DType::kInt32, Shape{});
  *t.mutable_data<int32_t>() = v;
  return t;
}

Tensor Tensor::scalar_bool(bool v) {
  Tensor t(DType::kBool, Shape{});
  *t.mutable_data<uint8_t>() = v ? 1 : 0;
  return t;
}

Tensor Tensor::from_floats(const Shape& shape, std::vector<float> values) {
  Tensor t(DType::kFloat32, shape);
  RLG_REQUIRE(static_cast<int64_t>(values.size()) == t.num_elements(),
              "from_floats: " << values.size() << " values for shape "
                              << shape.to_string());
  std::memcpy(t.mutable_raw(), values.data(), t.byte_size());
  return t;
}

Tensor Tensor::from_ints(const Shape& shape, std::vector<int32_t> values) {
  Tensor t(DType::kInt32, shape);
  RLG_REQUIRE(static_cast<int64_t>(values.size()) == t.num_elements(),
              "from_ints: " << values.size() << " values for shape "
                            << shape.to_string());
  std::memcpy(t.mutable_raw(), values.data(), t.byte_size());
  return t;
}

Tensor Tensor::from_bools(const Shape& shape, const std::vector<bool>& values) {
  Tensor t(DType::kBool, shape);
  RLG_REQUIRE(static_cast<int64_t>(values.size()) == t.num_elements(),
              "from_bools: " << values.size() << " values for shape "
                             << shape.to_string());
  uint8_t* out = t.mutable_data<uint8_t>();
  for (size_t i = 0; i < values.size(); ++i) out[i] = values[i] ? 1 : 0;
  return t;
}

double Tensor::scalar_value() const {
  RLG_REQUIRE(num_elements_ == 1,
              "scalar_value on tensor with " << num_elements_ << " elements");
  return at_flat(0);
}

double Tensor::at_flat(int64_t i) const {
  RLG_REQUIRE(i >= 0 && i < num_elements_, "flat index out of range");
  switch (dtype_) {
    case DType::kFloat32: return static_cast<const float*>(buffer_.get())[i];
    case DType::kInt32: return static_cast<const int32_t*>(buffer_.get())[i];
    case DType::kUInt8: return static_cast<const uint8_t*>(buffer_.get())[i];
    case DType::kBool: return static_cast<const uint8_t*>(buffer_.get())[i];
  }
  throw ValueError("unknown dtype");
}

void Tensor::set_flat(int64_t i, double v) {
  RLG_REQUIRE(i >= 0 && i < num_elements_, "flat index out of range");
  switch (dtype_) {
    case DType::kFloat32:
      static_cast<float*>(buffer_.get())[i] = static_cast<float>(v);
      return;
    case DType::kInt32:
      static_cast<int32_t*>(buffer_.get())[i] = static_cast<int32_t>(v);
      return;
    case DType::kUInt8:
      static_cast<uint8_t*>(buffer_.get())[i] = static_cast<uint8_t>(v);
      return;
    case DType::kBool:
      static_cast<uint8_t*>(buffer_.get())[i] = v != 0.0 ? 1 : 0;
      return;
  }
  throw ValueError("unknown dtype");
}

Tensor Tensor::clone() const {
  Tensor t(dtype_, shape_);
  std::memcpy(t.mutable_raw(), buffer_.get(), byte_size());
  return t;
}

Tensor Tensor::reshaped(const Shape& shape) const {
  RLG_REQUIRE(shape.fully_specified() &&
                  shape.num_elements() == num_elements_,
              "reshape " << shape_.to_string() << " -> " << shape.to_string()
                         << " changes element count");
  Tensor t = *this;
  t.shape_ = shape;
  return t;
}

Tensor Tensor::cast(DType target) const {
  if (target == dtype_) return *this;
  Tensor t(target, shape_);
  for (int64_t i = 0; i < num_elements_; ++i) t.set_flat(i, at_flat(i));
  return t;
}

std::vector<float> Tensor::to_floats() const {
  std::vector<float> out(static_cast<size_t>(num_elements_));
  if (dtype_ == DType::kFloat32) {
    std::memcpy(out.data(), buffer_.get(), byte_size());
  } else {
    for (int64_t i = 0; i < num_elements_; ++i) {
      out[static_cast<size_t>(i)] = static_cast<float>(at_flat(i));
    }
  }
  return out;
}

std::vector<int32_t> Tensor::to_ints() const {
  std::vector<int32_t> out(static_cast<size_t>(num_elements_));
  if (dtype_ == DType::kInt32) {
    std::memcpy(out.data(), buffer_.get(), byte_size());
  } else {
    for (int64_t i = 0; i < num_elements_; ++i) {
      out[static_cast<size_t>(i)] = static_cast<int32_t>(at_flat(i));
    }
  }
  return out;
}

bool Tensor::equals(const Tensor& other) const {
  return dtype_ == other.dtype_ && shape_ == other.shape_ &&
         std::memcmp(buffer_.get(), other.buffer_.get(), byte_size()) == 0;
}

bool Tensor::all_close(const Tensor& other, double tol) const {
  if (dtype_ != other.dtype_ || shape_ != other.shape_) return false;
  for (int64_t i = 0; i < num_elements_; ++i) {
    double a = at_flat(i);
    double b = other.at_flat(i);
    if (std::isnan(a) != std::isnan(b)) return false;
    if (!std::isnan(a) && std::fabs(a - b) > tol) return false;
  }
  return true;
}

std::string Tensor::to_string(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor<" << dtype_name(dtype_) << ", " << shape_.to_string() << ">[";
  int64_t n = std::min(num_elements_, max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << at_flat(i);
  }
  if (n < num_elements_) os << ", ...";
  os << "]";
  return os.str();
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  RLG_REQUIRE(a.shape() == b.shape(),
              op << ": shape mismatch " << a.shape().to_string() << " vs "
                 << b.shape().to_string());
}

void check_dtype(const Tensor& t, DType expected, const char* op) {
  RLG_REQUIRE(t.dtype() == expected, op << ": expected dtype "
                                        << dtype_name(expected) << ", got "
                                        << dtype_name(t.dtype()));
}

Tensor stack_leading(const std::vector<Tensor>& parts) {
  RLG_REQUIRE(!parts.empty(), "stack_leading: no tensors to stack");
  const Tensor& first = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    RLG_REQUIRE(parts[i].dtype() == first.dtype() &&
                    parts[i].shape() == first.shape(),
                "stack_leading: part " << i << " is "
                    << dtype_name(parts[i].dtype())
                    << parts[i].shape().to_string() << ", expected "
                    << dtype_name(first.dtype()) << first.shape().to_string());
  }
  Tensor out(first.dtype(),
             first.shape().prepend(static_cast<int64_t>(parts.size())));
  uint8_t* dst = static_cast<uint8_t*>(out.mutable_raw());
  const size_t stride = first.byte_size();
  for (size_t i = 0; i < parts.size(); ++i) {
    std::memcpy(dst + i * stride, parts[i].raw(), stride);
  }
  return out;
}

std::vector<Tensor> unstack_leading(const Tensor& batch) {
  RLG_REQUIRE(batch.shape().rank() >= 1,
              "unstack_leading: need rank >= 1, got scalar");
  const int64_t n = batch.shape().dim(0);
  const Shape part_shape = batch.shape().drop_front(1);
  const size_t stride =
      static_cast<size_t>(part_shape.num_elements()) * dtype_size(batch.dtype());
  const uint8_t* src = static_cast<const uint8_t*>(batch.raw());
  std::vector<Tensor> parts;
  parts.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Tensor part(batch.dtype(), part_shape);
    std::memcpy(part.mutable_raw(), src + static_cast<size_t>(i) * stride,
                stride);
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace rlgraph
