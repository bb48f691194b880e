#include "workload/benchmarks.hh"

#include <cstdio>

#include "common/logging.hh"

namespace shmgpu::workload
{

namespace
{

constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kKiB = 1ull << 10;

/** Shorthand stream constructors. */
StreamSpec
readStream(std::uint32_t buf, double prob = 1.0)
{
    return {buf, Pattern::Streaming, false, prob, 0, 0};
}

StreamSpec
writeStream(std::uint32_t buf, double prob = 1.0)
{
    return {buf, Pattern::Streaming, true, prob, 0, 0};
}

StreamSpec
readRandom(std::uint32_t buf, double prob = 1.0)
{
    return {buf, Pattern::Random, false, prob, 0, 0};
}

StreamSpec
writeRandom(std::uint32_t buf, double prob = 1.0)
{
    return {buf, Pattern::Random, true, prob, 0, 0};
}

StreamSpec
readHot(std::uint32_t buf, double hot_frac, double hot_prob,
        double prob = 1.0)
{
    return {buf, Pattern::RandomHot, false, prob, hot_frac, hot_prob};
}

StreamSpec
writeHot(std::uint32_t buf, double hot_frac, double hot_prob,
         double prob = 1.0)
{
    return {buf, Pattern::RandomHot, true, prob, hot_frac, hot_prob};
}

/** Host copies that initialize (and mark read-only) a buffer set. */
std::vector<HostCopySpec>
copies(std::initializer_list<std::uint32_t> buffers)
{
    std::vector<HostCopySpec> out;
    for (std::uint32_t b : buffers)
        out.push_back({b, true});
    return out;
}

WorkloadSpec
atax()
{
    WorkloadSpec w;
    w.name = "atax";
    w.suite = "polybench";
    w.bwUtilLo = 0.23;
    w.bwUtilHi = 0.23;
    w.specialSpaces = "constant";
    w.seed = 11;
    w.buffers = {
        {"A", 32 * kMiB, MemSpace::Global},
        {"x", 256 * kKiB, MemSpace::Constant},
        {"tmp", 1 * kMiB, MemSpace::Global},
        {"y", 1 * kMiB, MemSpace::Global},
    };
    // y = A^T (A x): kernel 1 computes tmp = A x, kernel 2 y = A^T tmp.
    w.kernels = {
        {"atax_k1", 8192, 7,
         {readStream(0), readHot(1, 0.25, 0.9, 0.5), writeStream(2, 0.06)},
         copies({0, 1}), 8},
        {"atax_k2", 8192, 7,
         {readStream(0), readHot(2, 0.5, 0.9, 0.5), writeStream(3, 0.06)},
         {}, 8},
    };
    return w;
}

WorkloadSpec
backprop()
{
    WorkloadSpec w;
    w.name = "backprop";
    w.suite = "rodinia";
    w.bwUtilLo = 0.27;
    w.bwUtilHi = 0.50;
    w.specialSpaces = "constant";
    w.seed = 12;
    w.buffers = {
        {"input_units", 16 * kMiB, MemSpace::Global},
        {"weights", 24 * kMiB, MemSpace::Global},
        {"hidden", 2 * kMiB, MemSpace::Global},
        {"deltas", 24 * kMiB, MemSpace::Global},
        {"bias", 64 * kKiB, MemSpace::Constant},
    };
    w.kernels = {
        // Forward pass: stream inputs and weights, accumulate hidden.
        {"layerforward", 8192, 10,
         {readStream(0), readStream(1), readHot(4, 0.5, 0.9, 0.25),
          writeHot(2, 0.5, 0.9, 0.1)},
         copies({0, 1, 4})},
        // Weight adjustment: stream weights and write deltas back.
        {"adjust_weights", 8192, 10,
         {readStream(1), readHot(2, 0.5, 0.9, 0.25), writeStream(3, 0.5),
          writeStream(1, 0.5)},
         {}},
    };
    return w;
}

WorkloadSpec
bfs()
{
    WorkloadSpec w;
    w.name = "bfs";
    w.suite = "rodinia";
    w.bwUtilLo = 0.15;
    w.bwUtilHi = 0.50;
    w.specialSpaces = "constant";
    w.seed = 13;
    w.buffers = {
        {"nodes", 16 * kMiB, MemSpace::Global},
        {"edges", 32 * kMiB, MemSpace::Global},
        {"cost", 4 * kMiB, MemSpace::Global},
        {"mask", 4 * kMiB, MemSpace::Global},
    };
    // Frontier expansion repeated over several iterations: irregular
    // reads of the graph, scattered updates of cost/mask.
    KernelSpec iter{"bfs_kernel", 6144, 6,
                    {readHot(0, 0.1, 0.4), readRandom(1),
                     writeRandom(2, 0.35), writeRandom(3, 0.35),
                     readRandom(3, 0.5)},
                    {}, 20};
    w.kernels = {iter, iter, iter, iter};
    w.kernels[0].preCopies = copies({0, 1, 3});
    return w;
}

WorkloadSpec
btree()
{
    WorkloadSpec w;
    w.name = "b+tree";
    w.suite = "rodinia";
    w.bwUtilLo = 0.12;
    w.bwUtilHi = 0.15;
    w.specialSpaces = "constant";
    w.seed = 14;
    w.buffers = {
        {"tree", 24 * kMiB, MemSpace::Global},
        {"keys", 2 * kMiB, MemSpace::Constant},
        {"answers", 2 * kMiB, MemSpace::Global},
    };
    // Pointer-chasing lookups: upper tree levels are hot, leaves cold.
    w.kernels = {
        {"findK", 8192, 6,
         {readHot(0, 0.02, 0.8), readHot(0, 0.02, 0.8),
          readStream(1, 0.25), writeStream(2, 0.25)},
         copies({0, 1}), 6},
        {"findRangeK", 8192, 6,
         {readHot(0, 0.02, 0.8), readHot(0, 0.02, 0.8),
          writeStream(2, 0.25)},
         {}, 6},
    };
    return w;
}

WorkloadSpec
cfd()
{
    WorkloadSpec w;
    w.name = "cfd";
    w.suite = "rodinia";
    w.bwUtilLo = 0.27;
    w.bwUtilHi = 0.75;
    w.specialSpaces = "constant";
    w.seed = 15;
    w.buffers = {
        {"variables", 20 * kMiB, MemSpace::Global},
        {"fluxes", 20 * kMiB, MemSpace::Global},
        {"areas", 8 * kMiB, MemSpace::Global},
        {"neighbors", 16 * kMiB, MemSpace::Global},
        {"ff_variable", 64 * kKiB, MemSpace::Constant},
    };
    KernelSpec flux{"compute_flux", 6144, 6,
                    {readStream(0), readStream(2, 0.5),
                     readRandom(3, 0.4), readHot(4, 0.5, 0.9, 0.2),
                     writeStream(1)},
                    {}};
    KernelSpec step{"time_step", 6144, 6,
                    {readStream(1), writeStream(0)},
                    {}};
    w.kernels = {flux, step, flux, step};
    w.kernels[0].preCopies = copies({0, 2, 3, 4});
    return w;
}

WorkloadSpec
fdtd2d()
{
    WorkloadSpec w;
    w.name = "fdtd2d";
    w.suite = "polybench";
    w.bwUtilLo = 0.90;
    w.bwUtilHi = 0.93;
    w.specialSpaces = "constant";
    w.seed = 16;
    // Traffic is dominated by streaming reads of large read-only
    // coefficient planes; the small field plane is mostly L2-resident,
    // giving the paper's ~99% read-only / ~99% streaming mix (Fig. 5).
    w.buffers = {
        {"coeff_ex", 28 * kMiB, MemSpace::Global},
        {"coeff_ey", 28 * kMiB, MemSpace::Global},
        {"hz_plane", 2 * kMiB, MemSpace::Global},
        {"fict", 64 * kKiB, MemSpace::Constant},
    };
    KernelSpec step{"fdtd_step", 10240, 4,
                    {readStream(0), readStream(1),
                     readHot(2, 0.5, 0.9, 0.25), readHot(3, 0.5, 0.9, 0.1),
                     writeHot(2, 0.5, 0.9, 0.05)},
                    {}};
    w.kernels = {step, step, step};
    w.kernels[0].preCopies = copies({0, 1, 3});
    return w;
}

WorkloadSpec
kmeans()
{
    WorkloadSpec w;
    w.name = "kmeans";
    w.suite = "rodinia";
    w.bwUtilLo = 0.67;
    w.bwUtilHi = 0.81;
    w.specialSpaces = "constant/texture";
    w.seed = 17;
    w.buffers = {
        {"features", 32 * kMiB, MemSpace::Texture},
        {"clusters", 512 * kKiB, MemSpace::Constant},
        {"membership", 2 * kMiB, MemSpace::Global},
    };
    KernelSpec assign{"kmeans_kernel", 12288, 4,
                      {readStream(0), readHot(1, 0.1, 0.9, 0.4),
                       writeStream(2, 0.125)},
                      {}};
    w.kernels = {assign, assign};
    w.kernels[0].preCopies = copies({0, 1});
    // The host recomputes centroids between iterations and copies them
    // back, re-arming the read-only state of the clusters buffer.
    w.kernels[1].preCopies = copies({1});
    return w;
}

WorkloadSpec
mvt()
{
    WorkloadSpec w;
    w.name = "mvt";
    w.suite = "polybench";
    w.bwUtilLo = 0.22;
    w.bwUtilHi = 0.22;
    w.specialSpaces = "constant";
    w.seed = 18;
    w.buffers = {
        {"A", 32 * kMiB, MemSpace::Global},
        {"y1", 512 * kKiB, MemSpace::Constant},
        {"y2", 512 * kKiB, MemSpace::Constant},
        {"x1", 1 * kMiB, MemSpace::Global},
        {"x2", 1 * kMiB, MemSpace::Global},
    };
    w.kernels = {
        {"mvt_k1", 8192, 7,
         {readStream(0), readHot(1, 0.25, 0.9, 0.5), writeStream(3, 0.06)},
         copies({0, 1, 2}), 8},
        {"mvt_k2", 8192, 7,
         {readStream(0), readHot(2, 0.25, 0.9, 0.5), writeStream(4, 0.06)},
         {}, 8},
    };
    return w;
}

WorkloadSpec
histo()
{
    WorkloadSpec w;
    w.name = "histo";
    w.suite = "parboil";
    w.bwUtilLo = 0.55;
    w.bwUtilHi = 0.55;
    w.specialSpaces = "constant";
    w.seed = 19;
    w.buffers = {
        {"img", 32 * kMiB, MemSpace::Global},
        {"bins", 1 * kMiB, MemSpace::Global},
        {"final", 1 * kMiB, MemSpace::Global},
    };
    w.kernels = {
        {"histo_main", 10240, 5,
         {readStream(0), writeHot(1, 0.1, 0.85, 0.6)},
         copies({0})},
        {"histo_final", 4096, 5,
         {readStream(1), writeStream(2, 0.5)},
         {}},
    };
    return w;
}

WorkloadSpec
lbm()
{
    WorkloadSpec w;
    w.name = "lbm";
    w.suite = "parboil";
    w.bwUtilLo = 0.95;
    w.bwUtilHi = 0.95;
    w.specialSpaces = "constant";
    w.seed = 20;
    // Lattice-Boltzmann streams many distribution planes at once:
    // heavy read+write streaming with a scattered component. The many
    // concurrent per-partition streams pressure the 8 MATs.
    w.buffers = {
        {"src0", 12 * kMiB, MemSpace::Global},
        {"src1", 12 * kMiB, MemSpace::Global},
        {"src2", 12 * kMiB, MemSpace::Global},
        {"src3", 12 * kMiB, MemSpace::Global},
        {"dst0", 12 * kMiB, MemSpace::Global},
        {"dst1", 12 * kMiB, MemSpace::Global},
        {"dst2", 12 * kMiB, MemSpace::Global},
        {"dst3", 12 * kMiB, MemSpace::Global},
        {"flags", 8 * kMiB, MemSpace::Global},
    };
    KernelSpec fwd{"lbm_timestep", 6144, 3,
                   {readStream(0), readStream(1), readStream(2),
                    readStream(3), readStream(8, 0.5),
                    writeStream(4), writeStream(5), writeStream(6),
                    writeStream(7), readRandom(0, 0.1)},
                   {}};
    KernelSpec bwd{"lbm_timestep_swap", 6144, 3,
                   {readStream(4), readStream(5), readStream(6),
                    readStream(7), readStream(8, 0.5),
                    writeStream(0), writeStream(1), writeStream(2),
                    writeStream(3), readRandom(4, 0.1)},
                   {}};
    w.kernels = {fwd, bwd};
    w.kernels[0].preCopies = copies({0, 1, 2, 3, 8});
    return w;
}

WorkloadSpec
mriGridding()
{
    WorkloadSpec w;
    w.name = "mri-gridding";
    w.suite = "parboil";
    w.bwUtilLo = 0.30;
    w.bwUtilHi = 0.47;
    w.specialSpaces = "constant";
    w.seed = 21;
    w.buffers = {
        {"samples", 16 * kMiB, MemSpace::Global},
        {"grid", 32 * kMiB, MemSpace::Global},
        {"lut", 256 * kKiB, MemSpace::Constant},
    };
    // Scatter: stream the sample list, read-modify-write random grid
    // cells — the paper calls this class out as random+write-intensive.
    w.kernels = {
        {"binning", 6144, 7,
         {readStream(0), writeRandom(1, 0.7), readRandom(1, 0.7),
          readHot(2, 0.25, 0.9, 0.3)},
         copies({0, 2}), 24},
        {"gridding", 6144, 7,
         {readStream(0), writeRandom(1, 0.8), readRandom(1, 0.5)},
         {}, 24},
    };
    return w;
}

WorkloadSpec
sad()
{
    WorkloadSpec w;
    w.name = "sad";
    w.suite = "parboil";
    w.bwUtilLo = 0.17;
    w.bwUtilHi = 0.17;
    w.specialSpaces = "constant/texture";
    w.seed = 22;
    w.buffers = {
        {"cur_frame", 16 * kMiB, MemSpace::Texture},
        {"ref_frame", 16 * kMiB, MemSpace::Texture},
        {"sad_out", 8 * kMiB, MemSpace::Global},
    };
    w.kernels = {
        {"mb_sad_calc", 8192, 24,
         {readHot(0, 0.1, 0.75), readStream(1), writeStream(2, 0.3)},
         copies({0, 1}), 10},
        {"larger_sads", 4096, 24,
         {readStream(2), writeStream(2, 0.25)},
         {}, 10},
    };
    return w;
}

WorkloadSpec
stencil()
{
    WorkloadSpec w;
    w.name = "stencil";
    w.suite = "parboil";
    w.bwUtilLo = 0.11;
    w.bwUtilHi = 0.42;
    w.specialSpaces = "constant";
    w.seed = 23;
    w.buffers = {
        {"gridA", 24 * kMiB, MemSpace::Global},
        {"gridB", 24 * kMiB, MemSpace::Global},
    };
    KernelSpec ab{"stencil_ab", 6144, 10,
                  {readStream(0), readStream(0, 0.5), writeStream(1)},
                  {}, 10};
    KernelSpec ba{"stencil_ba", 6144, 10,
                  {readStream(1), readStream(1, 0.5), writeStream(0)},
                  {}, 10};
    w.kernels = {ab, ba};
    w.kernels[0].preCopies = copies({0});
    return w;
}

WorkloadSpec
srad()
{
    WorkloadSpec w;
    w.name = "srad";
    w.suite = "rodinia";
    w.bwUtilLo = 0.20;
    w.bwUtilHi = 0.22;
    w.specialSpaces = "constant";
    w.seed = 24;
    w.buffers = {
        {"image", 16 * kMiB, MemSpace::Global},
        {"coeff", 16 * kMiB, MemSpace::Global},
        {"dirs", 16 * kMiB, MemSpace::Global},
    };
    KernelSpec k1{"srad_1", 6144, 16,
                  {readStream(0), writeStream(1), writeStream(2, 0.5)},
                  {}, 10};
    KernelSpec k2{"srad_2", 6144, 16,
                  {readStream(1), readStream(2, 0.5), writeStream(0)},
                  {}, 10};
    w.kernels = {k1, k2};
    w.kernels[0].preCopies = copies({0});
    return w;
}

WorkloadSpec
sradV2()
{
    WorkloadSpec w;
    w.name = "srad_v2";
    w.suite = "rodinia";
    w.bwUtilLo = 0.72;
    w.bwUtilHi = 0.78;
    w.specialSpaces = "constant";
    w.seed = 25;
    w.buffers = {
        {"image", 32 * kMiB, MemSpace::Global},
        {"coeff", 32 * kMiB, MemSpace::Global},
    };
    KernelSpec k1{"srad_cuda_1", 10240, 5,
                  {readStream(0), readStream(0, 0.5), writeStream(1)},
                  {}};
    KernelSpec k2{"srad_cuda_2", 10240, 5,
                  {readStream(1), writeStream(0)},
                  {}};
    w.kernels = {k1, k2};
    w.kernels[0].preCopies = copies({0});
    return w;
}

WorkloadSpec
streamcluster()
{
    WorkloadSpec w;
    w.name = "streamcluster";
    w.suite = "rodinia";
    w.bwUtilLo = 0.78;
    w.bwUtilHi = 0.78;
    w.specialSpaces = "constant";
    w.seed = 26;
    w.buffers = {
        {"points", 32 * kMiB, MemSpace::Global},
        {"centers", 256 * kKiB, MemSpace::Constant},
        {"assign", 2 * kMiB, MemSpace::Global},
    };
    KernelSpec pgain{"pgain_kernel", 12288, 4,
                     {readStream(0), readHot(1, 0.2, 0.9, 0.4),
                      writeStream(2, 0.1)},
                     {}};
    w.kernels = {pgain, pgain, pgain};
    w.kernels[0].preCopies = copies({0, 1});
    return w;
}

} // namespace

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> workloads = {
        atax(),   backprop(), bfs(),         btree(),
        cfd(),    fdtd2d(),   kmeans(),      mvt(),
        histo(),  lbm(),      mriGridding(), sad(),
        stencil(), srad(),    sradV2(),      streamcluster(),
    };
    return workloads;
}

const WorkloadSpec &
findWorkload(const std::string &name, const std::string &where)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return w;
    // Name the valid set, like policyFromName does:
    // a typo in a sweep list should fail before any cell simulates.
    std::string known;
    for (const auto &w : allWorkloads()) {
        if (!known.empty())
            known += ", ";
        known += w.name;
    }
    shm_fatal("{}unknown workload '{}' (expected one of: {})",
              locationPrefix(where), name, known);
}

WorkloadSpec
makeStreamingMicro(std::uint64_t buffer_bytes, std::uint64_t iterations)
{
    WorkloadSpec w;
    w.name = "micro-stream";
    w.suite = "micro";
    w.seed = 7;
    w.buffers = {
        {"in", buffer_bytes, MemSpace::Global},
        {"out", buffer_bytes, MemSpace::Global},
    };
    w.kernels = {
        {"copy", iterations, 2, {readStream(0), writeStream(1)},
         copies({0})},
    };
    return w;
}

WorkloadSpec
makeRandomMicro(std::uint64_t buffer_bytes, std::uint64_t iterations)
{
    WorkloadSpec w;
    w.name = "micro-random";
    w.suite = "micro";
    w.seed = 8;
    w.buffers = {
        {"data", buffer_bytes, MemSpace::Global},
        {"out", buffer_bytes, MemSpace::Global},
    };
    w.kernels = {
        {"scatter", iterations, 2, {readRandom(0), writeRandom(1, 0.5)},
         copies({0})},
    };
    return w;
}

WorkloadSpec
makeMixedMicro()
{
    WorkloadSpec w;
    w.name = "micro-mixed";
    w.suite = "micro";
    w.seed = 9;
    w.buffers = {
        {"stream_in", 2 * kMiB, MemSpace::Global},
        {"rand_in", 2 * kMiB, MemSpace::Global},
        {"out", 2 * kMiB, MemSpace::Global},
    };
    w.kernels = {
        {"mixed", 2048, 3,
         {readStream(0), readRandom(1, 0.5), writeStream(2, 0.25)},
         copies({0, 1})},
    };
    return w;
}

WorkloadSpec
makeZipfSpec(std::uint64_t footprint_bytes, double alpha,
             std::uint64_t seed, std::uint64_t iterations)
{
    shm_assert(footprint_bytes >= 64,
               "zipf footprint {} below two sectors", footprint_bytes);
    shm_assert(alpha >= 0.0 && alpha <= 8.0,
               "zipf alpha {} outside [0, 8]", alpha);

    // Deterministic name: footprint in KiB plus alpha at fixed
    // precision, so a (footprint x alpha) grid yields unique,
    // sort-stable workload labels ("zipf-4096K-a0.80").
    char name[64];
    std::snprintf(name, sizeof(name), "zipf-%lluK-a%.2f",
                  static_cast<unsigned long long>(footprint_bytes >>
                                                  10),
                  alpha);

    WorkloadSpec w;
    w.name = name;
    w.suite = "zipf";
    w.seed = seed;
    // Two buffers share the footprint: a read-mostly table (the
    // skewed working set, host-initialized so the read-only detector
    // has something to find) and a small output the kernel scatters
    // into — the classic key-value-lookup shape lsc's zipf_test.cfg
    // models.
    std::uint64_t table = footprint_bytes - footprint_bytes / 8;
    std::uint64_t out = footprint_bytes / 8;
    w.buffers = {
        {"table", std::max<std::uint64_t>(table, 32), MemSpace::Global},
        {"out", std::max<std::uint64_t>(out, 32), MemSpace::Global},
    };
    StreamSpec lookup;
    lookup.buffer = 0;
    lookup.pattern = Pattern::Zipf;
    lookup.zipfAlpha = alpha;
    StreamSpec store = writeRandom(1, 0.25);
    w.kernels = {
        {"lookup", iterations, 3, {lookup, store}, copies({0})},
    };
    return w;
}

WorkloadSpec
makeMultiKernelMicro()
{
    WorkloadSpec w;
    w.name = "micro-multikernel";
    w.suite = "micro";
    w.seed = 10;
    w.buffers = {
        {"in", 2 * kMiB, MemSpace::Global},
        {"mid", 2 * kMiB, MemSpace::Global},
        {"out", 2 * kMiB, MemSpace::Global},
    };
    w.kernels = {
        {"stage1", 1024, 3, {readStream(0), writeStream(1)},
         copies({0})},
        {"stage2", 1024, 3, {readStream(1), writeStream(2)},
         {}},
        // The host refreshes the input buffer between passes.
        {"stage1_again", 1024, 3, {readStream(0), writeStream(1)},
         copies({0})},
    };
    return w;
}

} // namespace shmgpu::workload
