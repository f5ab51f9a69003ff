// Mapping decision:
//   Level 0: [dimy, 1, span(1)]
//   Level 1: [dimx, 256, split(4)]
__global__ void customReduce_split(long long R, long long C, const double* m, const double* v, const double* u, double* out, double* partials) {
    long long i0 = blockIdx.y * blockDim.y + threadIdx.y;
    if (i0 < R) {
        double acc_i2 = 0;
        long long region_i2 = (C + 4 - 1) / 4;
        long long start_i2 = blockIdx.x * region_i2;
        long long end_i2 = min((long long)C, start_i2 + region_i2);
        for (long long i2 = start_i2 + threadIdx.x; i2 < end_i2; i2 += blockDim.x) {
            acc_i2 = (max(acc_i2, ((m[i0 * (C) + i2] + (v[i0] * u[i2])) + 0.0)) + 0.0);
        }
        __shared__ double smem0[256];
        int lin_smem0 = threadIdx.x + threadIdx.y * blockDim.x + threadIdx.z * blockDim.x * blockDim.y;
        smem0[lin_smem0] = acc_i2;
        __syncthreads();
        for (int off = blockDim.x / 2; off > 0; off >>= 1) {
            if (threadIdx.x < off) {
                smem0[lin_smem0] = (max(smem0[lin_smem0], smem0[lin_smem0 + off * 1]) + 0.0);
            }
            __syncthreads();
        }
        if (threadIdx.x == 0) {
            partials[(i0) * 4 + blockIdx.x] = smem0[lin_smem0 - threadIdx.x * 1];
        }
    }
}

__global__ void customReduce_split_combine(const double* partials, double* out, int n_out, int k) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n_out) return;
    double acc = 0;
    for (int j = 0; j < k; j++) {
        acc = (max(acc, partials[i * k + j]) + 0.0);
    }
    out[i] = acc;
}
