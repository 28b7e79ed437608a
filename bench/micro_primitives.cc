/**
 * @file
 * Google-benchmark microbenchmarks for the machine substrate: SLTF
 * codec throughput and end-to-end compile time for the strlen case
 * study. These guard the simulator's own performance (host-side), not
 * modeled vRDA numbers. Executor and scheduler costs are measured by
 * bench_exec_dispatch.
 */

#include <benchmark/benchmark.h>

#include "core/revet.hh"
#include "sltf/codec.hh"
#include "sltf/ragged.hh"

using namespace revet;

namespace
{

sltf::TokenStream
bigStream(int groups, int per_group)
{
    sltf::StreamBuilder sb;
    for (int g = 0; g < groups; ++g) {
        for (int i = 0; i < per_group; ++i)
            sb.d(g * per_group + i);
        sb.b(1);
    }
    sb.b(2);
    return sb;
}

} // namespace

static void
BM_SltfCompress(benchmark::State &state)
{
    auto stream = bigStream(static_cast<int>(state.range(0)), 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(sltf::compress(stream));
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SltfCompress)->Arg(100)->Arg(10000);

static void
BM_SltfRoundTrip(benchmark::State &state)
{
    auto stream = bigStream(static_cast<int>(state.range(0)), 16);
    for (auto _ : state) {
        auto t = sltf::decode(stream, 2);
        benchmark::DoNotOptimize(sltf::encode(t));
    }
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SltfRoundTrip)->Arg(100)->Arg(1000);

static void
BM_CompileStrlen(benchmark::State &state)
{
    const char *src = R"(
        DRAM<char> input; DRAM<int> offsets; DRAM<int> lengths;
        void main(int count) {
          foreach (count by 64) { int outer =>
            ReadView<64> in_view(offsets, outer);
            WriteView<64> out_view(lengths, outer);
            foreach (64) { int idx =>
              pragma(eliminate_hierarchy);
              int len = 0;
              int off = in_view[idx];
              replicate (4) {
                ReadIt<64> it(input, off);
                while (*it) { len++; it++; };
              };
              out_view[idx] = len;
            };
          };
        })";
    for (auto _ : state)
        benchmark::DoNotOptimize(CompiledArtifact::build(src));
}
BENCHMARK(BM_CompileStrlen);

BENCHMARK_MAIN();
