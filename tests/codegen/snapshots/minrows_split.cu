// Mapping decision:
//   Level 0: [dimy, 1, span(1)]
//   Level 1: [dimx, 256, split(4)]
__global__ void minRows_split(long long R, long long C, const double* m, double* out, double* partials) {
    long long i0 = blockIdx.y * blockDim.y + threadIdx.y;
    if (i0 < R) {
        double acc_k0 = DBL_MAX;
        long long region_k0 = (C + 4 - 1) / 4;
        long long start_k0 = blockIdx.x * region_k0;
        long long end_k0 = min((long long)C, start_k0 + region_k0);
        for (long long k0 = start_k0 + threadIdx.x; k0 < end_k0; k0 += blockDim.x) {
            acc_k0 = min(acc_k0, m[i0 * (C) + k0]);
        }
        __shared__ double smem0[256];
        int lin_smem0 = threadIdx.x + threadIdx.y * blockDim.x + threadIdx.z * blockDim.x * blockDim.y;
        smem0[lin_smem0] = acc_k0;
        __syncthreads();
        for (int off = blockDim.x / 2; off > 0; off >>= 1) {
            if (threadIdx.x < off) {
                smem0[lin_smem0] = min(smem0[lin_smem0], smem0[lin_smem0 + off * 1]);
            }
            __syncthreads();
        }
        if (threadIdx.x == 0) {
            partials[(i0) * 4 + blockIdx.x] = smem0[lin_smem0 - threadIdx.x * 1];
        }
    }
}

__global__ void minRows_split_combine(const double* partials, double* out, int n_out, int k) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n_out) return;
    double acc = DBL_MAX;
    for (int j = 0; j < k; j++) {
        acc = min(acc, partials[i * k + j]);
    }
    out[i] = acc;
}
