// Mapping decision:
//   Level 0: [dimx, 1024, split(4)]
__global__ void groupby_snapshot(long long R, long long C, const double* m, const double* v, const double* u, double* out, int* group_counts, int max_per_group) {
    long long region_i0 = (R + 4 - 1) / 4;
    long long start_i0 = blockIdx.x * region_i0;
    long long end_i0 = min((long long)R, start_i0 + region_i0);
    for (long long i0 = start_i0 + threadIdx.x; i0 < end_i0; i0 += blockDim.x) {
        int k = (int)((i0 % 3));
        int pos = atomicAdd(&group_counts[k], 1);
        out[k * max_per_group + pos] = (((double)i0) + 1.0);
    }
}
