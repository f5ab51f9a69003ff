// Host-compiler shim for syntax-checking generated CUDA with g++.
//
//   g++ -std=c++17 -fsyntax-only -include tests/codegen/cuda_shim.h -x c++ kernel.cu
//
// It stands in for the CUDA keywords, built-ins and intrinsics the code
// generator emits; nothing here models their semantics.
#pragma once
#include <cfloat>
#include <cmath>
#include <cstdlib>

#define __global__
#define __device__
#define __shared__
#define CUDART_INF HUGE_VAL

struct repro_uint3 { unsigned int x, y, z; };
extern repro_uint3 threadIdx, blockIdx, blockDim, gridDim;

inline void __syncthreads() {}
template <class T> T atomicAdd(T* address, T value) {
    T old = *address;
    *address = old + value;
    return old;
}
template <class A, class B> auto min(A a, B b) { return b < a ? b : a; }
template <class A, class B> auto max(A a, B b) { return a < b ? b : a; }
