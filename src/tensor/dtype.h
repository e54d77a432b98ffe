// Element types supported by the tensor substrate.
#pragma once

#include <cstdint>
#include <string>

#include "util/errors.h"

namespace rlgraph {

enum class DType : uint8_t {
  kFloat32 = 0,
  kInt32 = 1,
  kUInt8 = 2,
  kBool = 3,
};

inline size_t dtype_size(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return 4;
    case DType::kInt32: return 4;
    case DType::kUInt8: return 1;
    case DType::kBool: return 1;
  }
  throw ValueError("unknown dtype");
}

inline const char* dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return "float32";
    case DType::kInt32: return "int32";
    case DType::kUInt8: return "uint8";
    case DType::kBool: return "bool";
  }
  return "?";
}

inline DType dtype_from_name(const std::string& name) {
  if (name == "float32" || name == "float") return DType::kFloat32;
  if (name == "int32" || name == "int") return DType::kInt32;
  if (name == "uint8") return DType::kUInt8;
  if (name == "bool") return DType::kBool;
  throw ValueError("unknown dtype name: " + name);
}

// Maps C++ types to DType tags for the typed Tensor accessors.
template <typename T>
struct DTypeOf;
template <>
struct DTypeOf<float> {
  static constexpr DType value = DType::kFloat32;
};
template <>
struct DTypeOf<int32_t> {
  static constexpr DType value = DType::kInt32;
};
template <>
struct DTypeOf<uint8_t> {
  static constexpr DType value = DType::kUInt8;
};
template <>
struct DTypeOf<bool> {
  static constexpr DType value = DType::kBool;
};

}  // namespace rlgraph
