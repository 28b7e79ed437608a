#include "core/revet.hh"

#include <ios>
#include <sstream>

#include "lang/parse.hh"

namespace revet
{

namespace
{

void
put(std::ostringstream &oss, const char *key, bool v)
{
    oss << key << '=' << (v ? 1 : 0) << ';';
}

void
put(std::ostringstream &oss, const char *key, int v)
{
    oss << key << '=' << v << ';';
}

void
put(std::ostringstream &oss, const char *key, double v)
{
    // Hexfloat: exact round trip, no locale/precision ambiguity.
    oss << key << '=' << std::hexfloat << v << std::defaultfloat << ';';
}

} // namespace

std::string
canonicalOptions(const CompileOptions &opts)
{
    std::ostringstream oss;
    oss << "passes{";
    put(oss, "eliminateHierarchy", opts.passes.eliminateHierarchy);
    put(oss, "ifToSelect", opts.passes.ifToSelect);
    oss << "}graphOpt{";
    put(oss, "enable", opts.graphOpt.enable);
    put(oss, "constFold", opts.graphOpt.constFold);
    put(oss, "crossBlockConstProp", opts.graphOpt.crossBlockConstProp);
    put(oss, "copyProp", opts.graphOpt.copyProp);
    put(oss, "fanoutCoalesce", opts.graphOpt.fanoutCoalesce);
    put(oss, "blockFusion", opts.graphOpt.blockFusion);
    put(oss, "deadNodeElim", opts.graphOpt.deadNodeElim);
    put(oss, "replicateBufferize", opts.graphOpt.replicateBufferize);
    put(oss, "subwordPack", opts.graphOpt.subwordPack);
    put(oss, "verifyBetweenPasses", opts.graphOpt.verifyBetweenPasses);
    put(oss, "validate", opts.graphOpt.validate);
    put(oss, "maxIterations", opts.graphOpt.maxIterations);
    const sim::MachineConfig &m = opts.graphOpt.machine;
    oss << "machine{";
    put(oss, "numCU", m.numCU);
    put(oss, "numMU", m.numMU);
    put(oss, "numAG", m.numAG);
    put(oss, "lanes", m.lanes);
    put(oss, "stages", m.stages);
    put(oss, "vecBuffers", m.vecBuffers);
    put(oss, "scalBuffers", m.scalBuffers);
    put(oss, "vecBufferWords", m.vecBufferWords);
    put(oss, "scalBufferWords", m.scalBufferWords);
    put(oss, "vecOutputs", m.vecOutputs);
    put(oss, "scalOutputs", m.scalOutputs);
    put(oss, "muBanks", m.muBanks);
    put(oss, "muKiB", m.muKiB);
    put(oss, "clockGHz", m.clockGHz);
    put(oss, "areaMM2", m.areaMM2);
    put(oss, "dramPeakGBs", m.dramPeakGBs);
    put(oss, "dramEfficiency", m.dramEfficiency);
    put(oss, "burstBytes", m.burstBytes);
    put(oss, "dramBanks", m.dramBanks);
    put(oss, "tRCns", m.tRCns);
    put(oss, "targetUtilization", m.targetUtilization);
    oss << "}}graph{";
    put(oss, "hoistAllocators", opts.graph.hoistAllocators);
    oss << '}';
    return oss.str();
}

uint64_t
artifactFingerprint(const std::string &source, const CompileOptions &opts)
{
    const std::string key = canonicalOptions(opts);
    uint64_t h = 1469598103934665603ull; // FNV offset basis
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull; // FNV prime
        }
    };
    mix(source);
    h ^= 0xffu; // domain separator between the two strings
    h *= 1099511628211ull;
    mix(key);
    return h;
}

std::shared_ptr<const CompiledArtifact>
CompiledArtifact::build(const std::string &source,
                        const CompileOptions &opts)
{
    // shared_ptr<CompiledArtifact> first (the ctor is private, so no
    // make_shared), const-qualified only once fully built.
    std::shared_ptr<CompiledArtifact> out(new CompiledArtifact());
    out->source_ = source;
    out->cache_key_ = canonicalOptions(opts);
    out->fingerprint_ = artifactFingerprint(source, opts);
    out->opts_ = opts;
    out->ref_ = lang::parseAndAnalyze(source);
    out->hir_ = lang::parseAndAnalyze(source);
    passes::runPipeline(out->hir_, opts.passes);
    out->dfg_ = graph::lower(out->hir_);
    out->opt_report_ = graph::optimize(out->dfg_, opts.graphOpt);
    out->bytecode_ = graph::BytecodeProgram::compile(out->dfg_);
    graph::ResourceOptions ro;
    ro.toggles = opts.graph;
    out->resources_ =
        graph::analyzeResources(out->dfg_, opts.graphOpt.machine, ro);
    // The optimizer usually ends holding the value-analysis fixpoint
    // of this exact graph version; reuse it rather than recompute it.
    // The artifact does not keep it.
    const auto facts = std::move(out->opt_report_.facts);
    out->analysis_ = facts
        ? graph::analyzeGraph(out->dfg_, opts.graphOpt.machine, *facts)
        : graph::analyzeGraph(out->dfg_, opts.graphOpt.machine);
    return out;
}

std::unique_ptr<graph::ExecutionContext>
CompiledArtifact::makeContext() const
{
    return std::make_unique<graph::ExecutionContext>(bytecode_);
}

interp::RunStats
CompiledArtifact::interpret(lang::DramImage &dram,
                            const std::vector<int32_t> &args) const
{
    return interp::run(ref_, dram, args);
}

ArtifactCache &
ArtifactCache::global()
{
    static ArtifactCache cache;
    return cache;
}

std::shared_ptr<const CompiledArtifact>
ArtifactCache::get(const std::string &source, const CompileOptions &opts)
{
    const std::string key = canonicalOptions(opts);
    const uint64_t fp = artifactFingerprint(source, opts);
    std::lock_guard<std::mutex> guard(mu_);
    auto &bucket = buckets_[fp];
    for (const auto &art : bucket) {
        if (art->source() == source && art->cacheKey() == key) {
            ++stats_.hits;
            return art;
        }
    }
    ++stats_.misses;
    // Compile under the lock: concurrent first requests deduplicate
    // into one build (see the class comment). A throwing compile
    // caches nothing and leaves only the miss counted.
    auto art = CompiledArtifact::build(source, opts);
    ++stats_.compiles;
    bucket.push_back(art);
    ++stats_.entries;
    return art;
}

ArtifactCache::Stats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return stats_;
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> guard(mu_);
    buckets_.clear();
    stats_ = Stats{};
}

} // namespace revet
