/**
 * @file
 * The four benchmark workloads and the traced layer sweep.
 *
 *  - compile-cold: uncached CompiledArtifact::build of the 8 Table III
 *    sources, round after round, on 4 independent pinned streams.
 *  - exec-large:   ExecutionContext::run of each app at scale 256 on a
 *    reused context, worklist policy, on 4 independent pinned streams.
 *  - serve-batch:  32-request serve::serveBatch batches, 4 workers,
 *    warm cached artifacts, one app at scale 1/4/16 per batch.
 *  - serve-churn:  4 closed-loop clients, ArtifactCache::get then a
 *    one-request serveBatch; 1 request in 32 is a never-seen variant.
 *
 * Traced runs alternate traced and untraced units of work (rounds,
 * cycles) so the tracing overhead is measured in the same process,
 * then sweep the layers the workload itself does not exercise so every
 * per-layer metric is emitted by every workload (METRICS.md).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <tuple>

#include "baselines/baselines.hh"
#include "bench.hh"
#include "core/revet.hh"
#include "core/serve.hh"
#include "lang/parse.hh"

namespace perfbench
{

namespace
{

using revet::ArtifactCache;
using revet::CompiledArtifact;
using revet::CompileOptions;
using revet::apps::App;
using revet::lang::DramImage;
using ArtifactPtr = std::shared_ptr<const CompiledArtifact>;

constexpr int kExecScale = 256;
/** Independent pinned streams of the single-threaded workloads. */
constexpr int kStreams = 4;
constexpr int kServeScales[] = {1, 4, 16};
constexpr int kNumScales = static_cast<int>(std::size(kServeScales));
constexpr int kBatchSize = 32;
constexpr int kServeWorkers = 4;
constexpr int kChurnClients = 4;
constexpr int kVariantEvery = 32;
/** serve-churn: variants cached before the cache is cleared. */
constexpr size_t kChurnCachedVariants = 64;
constexpr int kSetupReps = 5;
/** First request id of the layer sweep, above every workload's ids. */
constexpr uint64_t kSweepRequest = 1ull << 60;
/** Allowed |stage sum / build() - 1| on compile-cold's traced run. */
constexpr double kReconcileBound = 0.25;

const std::vector<App> &
apps()
{
    return revet::apps::allApps();
}

int
numApps()
{
    return static_cast<int>(apps().size());
}

std::vector<int>
identityOrder()
{
    std::vector<int> order(apps().size());
    std::iota(order.begin(), order.end(), 0);
    return order;
}

/** The seeded request-mix generator: the only thing --seed drives. */
std::mt19937_64
mixRng(uint64_t seed, uint64_t stream)
{
    std::seed_seq seq{static_cast<uint32_t>(seed),
                      static_cast<uint32_t>(seed >> 32),
                      static_cast<uint32_t>(stream)};
    return std::mt19937_64(seq);
}

/** One app's inputs, generated once by the app's own generate(). */
struct Inputs
{
    DramImage dram;
    std::vector<int32_t> args;
};

Inputs
makeInputs(const App &app, const ArtifactPtr &art, int scale)
{
    Inputs in{DramImage(art->hir()), {}};
    in.args = app.generate(in.dram, scale);
    return in;
}

void
copyInputs(const Inputs &in, DramImage &dram)
{
    for (int i = 0; i < in.dram.dramCount(); ++i)
        dram.bytes(i) = in.dram.bytes(i);
}

/** Set-up repeated kSetupReps times, each after a calibration
 * sample; reports the median normalised to the reference host speed.
 * The state the last repetition built is what the workload uses. */
template <typename F>
void
timedSetup(Run &run, F &&setup)
{
    Calibration cal;
    std::vector<double> secs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        cal.sample();
        const auto t0 = Clock::now();
        setup();
        secs.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    const double raw = median(secs);
    run.note("setup_raw_s", raw, "s",
             "median of " + std::to_string(kSetupReps) + " set-ups, raw");
    if (!run.traced)
        run.metric("setup_s", raw * cal.timeScale(), "s",
                   "median of " + std::to_string(kSetupReps) +
                       " set-ups, at reference host speed");
}

/** A timed end-to-end figure under the workload's own name: as
 * measured, and at the reference host speed (see Calibration). */
struct Figure
{
    std::string name;
    double raw = 0, norm = 0;
    std::string detail;
};

void
noteCalibration(Run &run, const Calibration &cal, const std::string &label)
{
    run.note("calib_ms" + label, median(cal.samplesMs), "ms",
             "n=" + std::to_string(cal.samplesMs.size()) + " x " +
                 std::to_string(cal.threads) + " thread(s); time scale " +
                 std::to_string(cal.timeScale()));
}

/** Print the three timed figures by their workload names and, untraced,
 * emit them as the normalised end-to-end metrics. */
void
reportEndToEnd(Run &run, const Figure &throughput, const Figure &p50,
               const Figure &tail)
{
    const std::tuple<const Figure &, const char *, const char *> figs[] = {
        {throughput, "throughput", "1/s"},
        {p50, "latency_p50_ms", "ms"},
        {tail, "latency_tail_ms", "ms"}};
    for (const auto &[f, metric, unit] : figs) {
        char raw[48];
        std::snprintf(raw, sizeof raw, "raw %.6g; ", f.raw);
        run.note(f.name, f.norm, unit, raw + f.detail);
        if (!run.traced)
            run.metric(metric, f.norm, unit, "= " + f.name);
    }
}

/** Figures of a workload calibrated as a whole by run.calib: fills in
 * their normalised values from the raw ones. */
void
reportCalibrated(Run &run, Figure throughput, Figure p50, Figure tail)
{
    noteCalibration(run, run.calib, "");
    const double k = run.calib.timeScale();
    throughput.norm = throughput.raw / k;
    p50.norm = p50.raw * k;
    tail.norm = tail.raw * k;
    reportEndToEnd(run, throughput, p50, tail);
}

/** The largest per-app median: the latency of the slowest app. */
double
slowestAppMedian(const std::vector<std::vector<double>> &per_app)
{
    double worst = 0;
    for (const auto &v : per_app)
        worst = std::max(worst, median(v));
    return worst;
}

std::string
countDetail(size_t n, const std::string &what)
{
    return "n=" + std::to_string(n) + " " + what;
}

// ---- per-layer tallies that are not spans ---------------------------------

/** Counts of the last run of each app at kExecScale. */
struct ExecTally
{
    std::vector<revet::graph::ExecStats> stats =
        std::vector<revet::graph::ExecStats>(apps().size());
};

struct ServeTally
{
    std::vector<double> queueMs, execMs;
    uint64_t created = 0, reused = 0;
    double cpuS = 0, workerWallS = 0;
};

struct CacheTally
{
    uint64_t hits = 0, misses = 0;
};

/** Everything a traced run accumulates besides spans. */
struct Layers
{
    ExecTally exec;
    ServeTally serve;
    CacheTally cache;
    bool compileRun = false, execRun = false, cacheRun = false,
         serveRun = false;
    /** Unit-of-work times for the tracing-overhead comparison. */
    std::vector<double> tracedUnitMs, untracedUnitMs;
};

// ---- compile ---------------------------------------------------------------

void
recordCompileCounts(Run &run, int a, const revet::graph::GraphOptReport &rep,
                    size_t insts)
{
    const std::string &name = apps()[static_cast<size_t>(a)].name;
    run.checks.repeat("opt.validated_passes/" + name,
                      static_cast<uint64_t>(rep.validatedPasses));
    run.checks.repeat("opt.nodes_after/" + name,
                      static_cast<uint64_t>(rep.nodesAfter));
    run.checks.repeat("graph.bytecode_insts/" + name, insts);
}

/** Uncached build() of every app in @p order into @p out; returns the
 * round's wall ms and appends each app's ms to @p app_ms. */
double
buildRound(Run &run, const std::vector<int> &order, std::vector<ArtifactPtr> &out,
           std::vector<double> &app_ms, Tracer *tracer, uint64_t request)
{
    // Drop the previous round's artifacts outside the timed region.
    out.assign(apps().size(), nullptr);
    const auto round_start = Clock::now();
    {
        ScopedSpan round(tracer, "compile.build_round", 0, request);
        for (int a : order) {
            const auto t0 = Clock::now();
            {
                ScopedSpan span(tracer, "core.build", round.id(), request, a);
                out[static_cast<size_t>(a)] =
                    CompiledArtifact::build(apps()[static_cast<size_t>(a)].source);
            }
            app_ms.push_back(msBetween(t0, Clock::now()));
        }
    }
    const double ms = msBetween(round_start, Clock::now());
    for (int a : order) {
        const auto &art = out[static_cast<size_t>(a)];
        recordCompileCounts(run, a, art->optReport(), art->bytecode().insts.size());
    }
    return ms;
}

/**
 * build()'s stages replayed through their public functions, in
 * build()'s order, each in its own span. Also optimizes a copy of the
 * lowered graph with validation off (outside the stage sum) so the
 * validation share can be reported. Returns the stage sum in ms.
 */
double
replayRound(Run &run, const std::vector<int> &order, Tracer *tracer,
            uint64_t request)
{
    namespace graph = revet::graph;
    ScopedSpan round(tracer, "compile.replay_round", 0, request);
    const CompileOptions opts;
    double stage_ms = 0;
    for (int a : order) {
        const std::string &src = apps()[static_cast<size_t>(a)].source;
        auto stage = [&](const char *name, auto &&fn) {
            const auto t0 = Clock::now();
            {
                ScopedSpan span(tracer, name, round.id(), request, a);
                fn();
            }
            stage_ms += msBetween(t0, Clock::now());
        };
        revet::lang::Program ref, hir;
        graph::Dfg dfg;
        graph::GraphOptReport rep;
        graph::BytecodeProgram bc;
        graph::ResourceReport res;
        graph::AnalyzeReport an;
        stage("lang.parseAndAnalyze",
              [&] { ref = revet::lang::parseAndAnalyze(src); });
        stage("lang.parseAndAnalyze",
              [&] { hir = revet::lang::parseAndAnalyze(src); });
        stage("passes.runPipeline",
              [&] { revet::passes::runPipeline(hir, opts.passes); });
        stage("graph.lower", [&] { dfg = graph::lower(hir); });
        graph::Dfg unvalidated = dfg;
        stage("graph.optimize",
              [&] { rep = graph::optimize(dfg, opts.graphOpt); });
        stage("graph.bytecode",
              [&] { bc = graph::BytecodeProgram::compile(dfg); });
        graph::ResourceOptions ro;
        ro.toggles = opts.graph;
        stage("graph.analyzeResources", [&] {
            res = graph::analyzeResources(dfg, opts.graphOpt.machine, ro);
        });
        stage("graph.analyzeGraph", [&] {
            an = graph::analyzeGraph(dfg, opts.graphOpt.machine);
        });
        graph::GraphPassOptions no_validate = opts.graphOpt;
        no_validate.validate = false;
        {
            ScopedSpan span(tracer, "graph.optimize_novalidate", round.id(),
                            request, a);
            graph::optimize(unvalidated, no_validate);
        }
        // Same keys as buildRound: a replay that drifts from build()
        // fails the exact-repeat check.
        recordCompileCounts(run, a, rep, bc.insts.size());
    }
    return stage_ms;
}

// ---- execution -------------------------------------------------------------

/** Artifacts, inputs and reused contexts for every app at one scale. */
struct ExecState
{
    int scale = kExecScale;
    std::vector<ArtifactPtr> arts;
    std::vector<Inputs> inputs;
    std::vector<std::unique_ptr<revet::graph::ExecutionContext>> ctxs;
};

/** Run one app on its reused context and verify it (outside the
 * returned time). */
double
execOne(Run &run, ExecState &st, int a, Tracer *tracer, int64_t parent,
        uint64_t request, Layers *layers)
{
    const App &app = apps()[static_cast<size_t>(a)];
    const auto &in = st.inputs[static_cast<size_t>(a)];
    DramImage dram(st.arts[static_cast<size_t>(a)]->hir());
    copyInputs(in, dram);
    revet::graph::ExecStats stats;
    double ms = 0;
    std::string error;
    {
        ScopedSpan span(tracer, "graph.run", parent, request, a, st.scale);
        const auto t0 = Clock::now();
        try {
            stats = st.ctxs[static_cast<size_t>(a)]->run(dram, in.args);
        } catch (const std::exception &e) {
            error = app.name + ": " + e.what();
        }
        ms = msBetween(t0, Clock::now());
        span.setCount(linkTokens(stats));
    }
    if (!error.empty()) {
        run.checks.operation(error);
        return ms;
    }
    run.checks.verifyRun(app, st.scale, dram, stats);
    const std::string key = app.name + "@" + std::to_string(st.scale);
    run.checks.repeat("dataflow.quanta/" + key, stats.schedQuanta);
    run.checks.repeat("dataflow.link_tokens/" + key, linkTokens(stats));
    if (layers && tracer)
        layers->exec.stats[static_cast<size_t>(a)] = std::move(stats);
    return ms;
}

void
buildExecState(Run &run, ExecState &st, int scale)
{
    st = ExecState{};
    st.scale = scale;
    for (const App &app : apps()) {
        st.arts.push_back(CompiledArtifact::build(app.source));
        st.inputs.push_back(makeInputs(app, st.arts.back(), scale));
        st.ctxs.push_back(st.arts.back()->makeContext());
    }
    // One warm run per app: first-touch of the context's buffers is
    // set-up, not steady-state execution.
    for (int a = 0; a < numApps(); ++a)
        execOne(run, st, a, nullptr, 0, 0, nullptr);
}

/** One round: every app once, in @p order. Returns Σ run ms. */
double
execRound(Run &run, ExecState &st, const std::vector<int> &order,
          Tracer *tracer, uint64_t request, std::vector<double> *app_ms,
          Layers *layers)
{
    ScopedSpan round(tracer, "exec.round", 0, request);
    double total = 0;
    for (int a : order) {
        const double ms = execOne(run, st, a, tracer, round.id(), request, layers);
        total += ms;
        if (app_ms)
            app_ms->push_back(ms);
    }
    return total;
}

// ---- serving ---------------------------------------------------------------

/** Every (app, scale index) pair the serving workloads cycle through. */
std::vector<std::pair<int, int>>
allCombos()
{
    std::vector<std::pair<int, int>> combos;
    for (int a = 0; a < numApps(); ++a)
        for (int s = 0; s < kNumScales; ++s)
            combos.emplace_back(a, s);
    return combos;
}

/** Per (app, scale) inputs for the serving workloads. */
using ServeInputs = std::vector<std::vector<Inputs>>;

ServeInputs
makeServeInputs(const std::vector<ArtifactPtr> &arts)
{
    ServeInputs out(apps().size());
    for (int a = 0; a < numApps(); ++a)
        for (int scale : kServeScales)
            out[static_cast<size_t>(a)].push_back(
                makeInputs(apps()[static_cast<size_t>(a)],
                           arts[static_cast<size_t>(a)], scale));
    return out;
}

/** Requests whose prepare hook copies @p in into the request image;
 * traced requests time the hook in a serve.prepare span. */
std::vector<revet::serve::Request>
makeRequests(const Inputs &in, int n, Tracer *tracer, int64_t parent,
             uint64_t first_request, int app, int scale)
{
    std::vector<revet::serve::Request> reqs(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto &req = reqs[static_cast<size_t>(i)];
        req.args = in.args;
        const uint64_t id = first_request + static_cast<uint64_t>(i);
        req.prepare = [&in, tracer, parent, id, app, scale](DramImage &dram) {
            ScopedSpan span(tracer, "serve.prepare", parent, id, app, scale);
            copyInputs(in, dram);
        };
    }
    return reqs;
}

/** Verify every result of a batch (outside any timed region). */
void
checkBatch(Run &run, revet::serve::BatchReport &rep, int a, int scale)
{
    const App &app = apps()[static_cast<size_t>(a)];
    for (auto &res : rep.results) {
        if (!res.ok || !res.dram) {
            run.checks.operation(app.name + ": " +
                                 (res.error.empty() ? "no result" : res.error));
            continue;
        }
        run.checks.verifyRun(app, scale, *res.dram, res.stats);
        const std::string key = app.name + "@" + std::to_string(scale);
        run.checks.repeat("dataflow.quanta/" + key, res.stats.schedQuanta);
        run.checks.repeat("dataflow.link_tokens/" + key,
                          linkTokens(res.stats));
    }
}

/** One traced-or-not batch of kBatchSize requests at (app, scale). */
revet::serve::BatchReport
serveOneBatch(Run &run, const ArtifactPtr &art, const Inputs &in, int a,
              int scale, Tracer *tracer, uint64_t batch_id, Layers *layers)
{
    revet::serve::ServeOptions opts;
    opts.workers = kServeWorkers;
    revet::serve::BatchReport rep;
    const double cpu0 = cpuSeconds();
    {
        ScopedSpan span(tracer, "serve.batch", 0, batch_id, a, scale);
        auto reqs = makeRequests(in, kBatchSize, tracer, span.id(),
                                 batch_id * kBatchSize, a, scale);
        rep = revet::serve::serveBatch(art, reqs, opts);
    }
    const double cpu = cpuSeconds() - cpu0;
    if (layers && tracer) {
        auto &t = layers->serve;
        for (const auto &res : rep.results) {
            t.queueMs.push_back(res.queueMs);
            t.execMs.push_back(res.execMs);
        }
        t.created += rep.pool.created;
        t.reused += rep.pool.reused;
        t.cpuS += cpu;
        t.workerWallS += rep.wallMs / 1e3 * kServeWorkers;
        layers->serveRun = true;
    }
    checkBatch(run, rep, a, scale);
    return rep;
}

/** A variant the cache has never seen: the app source plus a seeded
 * comment line. Compiles to the same program. */
std::string
variantSource(const App &app, uint64_t seed, uint64_t stream, uint64_t n)
{
    return app.source + "\n// variant " + std::to_string(seed) + "." +
           std::to_string(stream) + "." + std::to_string(n) + "\n";
}

/** Warm the global cache with every base app; returns the artifacts. */
std::vector<ArtifactPtr>
warmCache()
{
    std::vector<ArtifactPtr> arts;
    for (const App &app : apps())
        arts.push_back(ArtifactCache::global().get(app.source));
    return arts;
}

// ---- traced layer sweep and per-layer metrics ------------------------------

std::vector<Span>
spansNamed(const std::vector<Span> &all, const std::string &name)
{
    std::vector<Span> out;
    for (const Span &s : all)
        if (name == s.name)
            out.push_back(s);
    return out;
}

/** Median over requests (rounds) of the summed ms of @p names. */
double
medianPerRequest(const std::vector<Span> &all,
                 const std::vector<std::string> &names)
{
    std::map<uint64_t, double> per;
    for (const Span &s : all)
        if (std::find(names.begin(), names.end(), s.name) != names.end())
            per[s.request] += s.ms();
    std::vector<double> v;
    for (const auto &kv : per)
        v.push_back(kv.second);
    return median(v);
}

std::vector<double>
msOf(const std::vector<Span> &spans)
{
    std::vector<double> v;
    for (const Span &s : spans)
        v.push_back(s.ms());
    return v;
}

/**
 * Exercise, traced, every layer the workload's own loop did not, so
 * each traced run emits every per-layer metric. Runs after the timed
 * loop; its operations are verified like any other.
 */
void
layerSweep(Run &run, Layers &layers, ExecState &exec, uint64_t request)
{
    Tracer *tracer = &run.tracer;
    const std::vector<int> order = identityOrder();
    if (!layers.compileRun) {
        std::vector<ArtifactPtr> arts;
        std::vector<double> app_ms;
        for (int rep = 0; rep < 2; ++rep) {
            buildRound(run, order, arts, app_ms, tracer, request++);
            replayRound(run, order, tracer, request++);
        }
    }
    if (exec.arts.empty())
        buildExecState(run, exec, kExecScale);
    if (!layers.execRun)
        execRound(run, exec, order, tracer, request++, nullptr, &layers);
    if (!layers.cacheRun) {
        auto &cache = ArtifactCache::global();
        warmCache();
        const auto before = cache.stats();
        for (int rep = 0; rep < 16; ++rep)
            for (const App &app : apps()) {
                ScopedSpan span(tracer, "core.cache_get.hit", 0, request++);
                cache.get(app.source);
            }
        for (int a = 0; a < 4; ++a) {
            ScopedSpan span(tracer, "core.cache_get.miss", 0, request++, a);
            cache.get(variantSource(apps()[static_cast<size_t>(a)], run.seed,
                                    0xfeed, static_cast<uint64_t>(a)));
        }
        const auto after = cache.stats();
        layers.cache.hits += after.hits - before.hits;
        layers.cache.misses += after.misses - before.misses;
    }
    if (!layers.serveRun) {
        const auto arts = warmCache();
        for (int a = 0; a < numApps(); ++a) {
            const Inputs in = makeInputs(apps()[static_cast<size_t>(a)],
                                         arts[static_cast<size_t>(a)], 4);
            serveOneBatch(run, arts[static_cast<size_t>(a)], in, a, 4,
                          tracer, request++, &layers);
        }
    }
    // Reference rows, never gated: the AST interpreter on the same
    // inputs, and the 1-thread native kernel of baselines/cpu.cc.
    for (int a = 0; a < numApps(); ++a) {
        const App &app = apps()[static_cast<size_t>(a)];
        const auto &art = exec.arts[static_cast<size_t>(a)];
        DramImage dram(art->hir());
        copyInputs(exec.inputs[static_cast<size_t>(a)], dram);
        std::string error;
        {
            ScopedSpan span(tracer, "interp.run", 0, request++, a, exec.scale);
            try {
                art->interpret(dram, exec.inputs[static_cast<size_t>(a)].args);
            } catch (const std::exception &e) {
                error = e.what();
            }
        }
        if (error.empty())
            error = app.verify(dram, exec.scale);
        run.checks.operation(error.empty() ? "" : "interp " + app.name + ": " + error);
    }
}

void
emitLayers(Run &run, const Layers &layers, const ExecState &exec)
{
    const std::vector<Span> all = run.tracer.spans();
    const auto self = run.tracer.selfTimes();
    std::printf("\n-- layer self time (ms, whole traced run) --\n");
    for (const auto &[name, v] : self)
        std::printf("  %-28s %12.3f ms  spans=%llu\n", name.c_str(), v.first,
                    static_cast<unsigned long long>(v.second));
    std::printf("\n-- per-layer metrics --\n");

    // Compile stages: ms per 8-app round, median over traced rounds.
    const std::vector<std::pair<std::string, std::string>> stages = {
        {"lang.front_ms", "lang.parseAndAnalyze"},
        {"passes.hir_ms", "passes.runPipeline"},
        {"graph.lower_ms", "graph.lower"},
        {"graph.optimize_ms", "graph.optimize"},
        {"graph.analyze_ms", "graph.analyzeGraph"},
        {"graph.resources_ms", "graph.analyzeResources"},
        {"graph.bytecode_ms", "graph.bytecode"},
    };
    std::vector<std::string> stage_spans;
    for (const auto &[metric, span] : stages) {
        stage_spans.push_back(span);
        run.metric(metric, medianPerRequest(all, {span}), "ms",
                   "per 8-app round");
    }
    {
        std::map<uint64_t, double> per;
        for (const Span &s : all) {
            if (std::string(s.name) == "graph.optimize")
                per[s.request] += s.ms();
            else if (std::string(s.name) == "graph.optimize_novalidate")
                per[s.request] -= s.ms();
        }
        std::vector<double> v;
        for (const auto &kv : per)
            v.push_back(kv.second);
        run.metric("graph.validate_ms", median(v), "ms",
                   "optimize minus optimize(validate=false), per round");
    }
    const double build_ms = medianPerRequest(all, {"core.build"});
    const double stage_sum = medianPerRequest(all, stage_spans);
    const double ratio = build_ms > 0 ? stage_sum / build_ms : 0;
    run.metric("core.build_ms", build_ms, "ms", "build() per 8-app round");
    run.metric("trace.stage_sum_ratio", ratio, "ratio",
               "replayed stage sum / build(); bound +-" +
                   std::to_string(kReconcileBound));

    uint64_t validated = 0, nodes = 0, insts = 0;
    for (const auto &art : exec.arts) {
        validated += static_cast<uint64_t>(art->optReport().validatedPasses);
        nodes += static_cast<uint64_t>(art->optReport().nodesAfter);
        insts += art->bytecode().insts.size();
    }
    run.metric("opt.validated_passes", static_cast<double>(validated), "count",
               "sum over 8 apps");
    run.metric("opt.nodes_after", static_cast<double>(nodes), "count",
               "sum over 8 apps");
    run.metric("graph.bytecode_insts", static_cast<double>(insts), "count",
               "sum over 8 apps");

    // Execution at kExecScale.
    double run_ns = 0, tokens = 0;
    std::vector<double> exec_ms(apps().size(), 0);
    for (int a = 0; a < numApps(); ++a) {
        std::vector<double> v;
        for (const Span &s : spansNamed(all, "graph.run"))
            if (s.app == a && s.scale == kExecScale) {
                v.push_back(s.ms());
                run_ns += s.ms() * 1e6;
                tokens += static_cast<double>(s.count);
            }
        exec_ms[static_cast<size_t>(a)] = median(v);
        run.metric("graph.exec_ms." + apps()[static_cast<size_t>(a)].name,
                   exec_ms[static_cast<size_t>(a)], "ms",
                   countDetail(v.size(), "runs @256"));
    }
    run.metric("graph.exec_ns_per_token", tokens > 0 ? run_ns / tokens : 0,
               "ns", "run wall / link tokens @256");
    uint64_t quanta = 0, link_tokens = 0, steps = 0, idle = 0;
    for (size_t a = 0; a < apps().size(); ++a) {
        const auto &st = layers.exec.stats[a];
        quanta += st.schedQuanta;
        link_tokens += linkTokens(st);
        steps += st.schedSteps;
        idle += st.schedIdleSteps;
    }
    run.metric("dataflow.quanta", static_cast<double>(quanta), "count",
               "sum over 8 apps @256");
    run.metric("dataflow.link_tokens", static_cast<double>(link_tokens),
               "count", "sum over 8 apps @256");
    run.metric("dataflow.idle_step_ratio",
               steps ? static_cast<double>(idle) / steps : 0, "ratio",
               "schedIdleSteps / schedSteps @256");

    // Cache.
    const auto hits = msOf(spansNamed(all, "core.cache_get.hit"));
    const auto misses = msOf(spansNamed(all, "core.cache_get.miss"));
    run.metric("core.cache_get_hit_p50_us", median(hits) * 1e3, "us",
               countDetail(hits.size(), "hits"));
    run.metric("core.cache_get_hit_p99_us", percentile(hits, 99) * 1e3, "us",
               countDetail(hits.size(), "hits"));
    run.metric("core.cache_get_miss_ms", median(misses), "ms",
               countDetail(misses.size(), "misses"));
    const uint64_t lookups = layers.cache.hits + layers.cache.misses;
    run.metric("core.cache_hit_rate",
               lookups ? static_cast<double>(layers.cache.hits) / lookups : 0,
               "ratio", "ArtifactCache::Stats");

    // Serving.
    const auto &sv = layers.serve;
    run.metric("serve.queue_p99_ms", percentile(sv.queueMs, 99), "ms",
               countDetail(sv.queueMs.size(), "requests"));
    run.metric("serve.exec_p50_ms", median(sv.execMs), "ms",
               countDetail(sv.execMs.size(), "requests"));
    const auto prep = msOf(spansNamed(all, "serve.prepare"));
    run.metric("serve.prepare_ms", median(prep), "ms",
               countDetail(prep.size(), "prepare hooks"));
    run.metric("serve.pool_reuse_ratio",
               sv.created + sv.reused
                   ? static_cast<double>(sv.reused) / (sv.created + sv.reused)
                   : 0,
               "ratio", "BatchReport::pool");
    run.metric("serve.cpu_util",
               sv.workerWallS > 0 ? sv.cpuS / sv.workerWallS : 0, "ratio",
               "process CPU s / (wall s x workers)");

    // References, never gated.
    std::vector<double> native_x;
    for (int a = 0; a < numApps(); ++a) {
        const App &app = apps()[static_cast<size_t>(a)];
        std::vector<double> v;
        for (const Span &s : spansNamed(all, "interp.run"))
            if (s.app == a)
                v.push_back(s.ms());
        run.metric("interp.run_ms." + app.name, median(v), "ms",
                   "AST interpreter @256");
    }
    for (int a = 0; a < numApps(); ++a) {
        const App &app = apps()[static_cast<size_t>(a)];
        const double gbs = revet::baselines::cpuThroughputGBs(app, kExecScale, 1);
        const double native_ms =
            static_cast<double>(app.accountedBytes(kExecScale)) / (gbs * 1e9) * 1e3;
        const double x = exec_ms[static_cast<size_t>(a)] / native_ms;
        native_x.push_back(x);
        char base[96];
        std::snprintf(base, sizeof base, "base: native 1-thread %.4f ms @256",
                      native_ms);
        run.metric("baselines.native_x." + app.name, x, "x", base);
    }
    run.metric("baselines.native_x_geomean", geomean(native_x), "x",
               "geomean over 8 apps");

    const double traced = median(layers.tracedUnitMs);
    const double untraced = median(layers.untracedUnitMs);
    run.metric("trace.overhead_pct",
               untraced > 0 ? (traced / untraced - 1) * 100 : 0, "%",
               "median traced unit / untraced unit - 1 (" +
                   std::to_string(layers.tracedUnitMs.size()) + " vs " +
                   std::to_string(layers.untracedUnitMs.size()) + ")");
    run.metric("trace.spans", static_cast<double>(all.size()), "count");
    run.metric("host.calib_ms", median(run.calib.samplesMs), "ms",
               "calibration kernel median on " +
                   std::to_string(run.calib.threads) +
                   " thread(s): the host speed these raw times ran at");
}

/** Shared tail of every workload's traced run. */
void
finishTraced(Run &run, Layers &layers, ExecState &exec)
{
    layerSweep(run, layers, exec, kSweepRequest);
    emitLayers(run, layers, exec);
}

Clock::time_point
deadlineAfter(double seconds)
{
    return Clock::now() + std::chrono::microseconds(
                              static_cast<int64_t>(seconds * 1e6));
}

/**
 * Runs body(stream) on kStreams threads, each pinned to its own CPU,
 * and joins them. The single-threaded workloads run one independent
 * stream per CPU: each stream's latency is still single-threaded, but
 * the median over four CPUs, each calibrated on itself, is far
 * steadier than one stream on a host whose cores slow down unevenly.
 */
template <typename F>
void
runStreams(F &&body)
{
    std::vector<std::thread> threads;
    for (int s = 0; s < kStreams; ++s)
        threads.emplace_back([&body, s] {
            const CpuPin pin(s);
            body(s);
        });
    for (auto &t : threads)
        t.join();
}

/** One stream's unit times, raw, with the calibration of its CPU. */
struct Stream
{
    Calibration calib;
    std::vector<double> roundMs, tracedMs, untracedMs;
    std::vector<std::vector<double>> appMs =
        std::vector<std::vector<double>>(apps().size());
};

/** Every stream's samples of @p pick, each scaled by its stream's
 * calibration when @p normalise. */
template <typename Pick>
std::vector<double>
pooled(const std::vector<Stream> &streams, bool normalise, Pick &&pick)
{
    std::vector<double> out;
    for (const Stream &st : streams) {
        const double k = normalise ? st.calib.timeScale() : 1.0;
        for (double v : pick(st))
            out.push_back(v * k);
    }
    return out;
}

/** Round time and slowest-app time over all streams, raw and at the
 * reference host speed, plus the calibration notes. */
std::pair<Figure, Figure>
streamLatencies(Run &run, const std::vector<Stream> &streams, Figure round,
                Figure slowest)
{
    const size_t rounds = pooled(streams, false, [](const Stream &st) {
                              return st.roundMs;
                          }).size();
    round.detail += ", " + countDetail(rounds, "rounds");
    slowest.detail += ", " + countDetail(rounds * apps().size(), "samples");
    for (bool norm : {false, true}) {
        const double r = median(pooled(
            streams, norm, [](const Stream &st) { return st.roundMs; }));
        std::vector<std::vector<double>> per_app(apps().size());
        for (size_t a = 0; a < apps().size(); ++a)
            per_app[a] = pooled(streams, norm, [a](const Stream &st) {
                return st.appMs[a];
            });
        (norm ? round.norm : round.raw) = r;
        (norm ? slowest.norm : slowest.raw) = slowestAppMedian(per_app);
    }
    for (size_t s = 0; s < streams.size(); ++s) {
        const auto &samples = streams[s].calib.samplesMs;
        noteCalibration(run, streams[s].calib, ".stream" + std::to_string(s));
        run.calib.samplesMs.insert(run.calib.samplesMs.end(), samples.begin(),
                                   samples.end());
    }
    return {round, slowest};
}

void
collectOverhead(const std::vector<Stream> &streams, Layers &layers)
{
    for (const Stream &st : streams) {
        layers.tracedUnitMs.insert(layers.tracedUnitMs.end(),
                                   st.tracedMs.begin(), st.tracedMs.end());
        layers.untracedUnitMs.insert(layers.untracedUnitMs.end(),
                                     st.untracedMs.begin(), st.untracedMs.end());
    }
}

} // namespace

// ---- compile-cold ----------------------------------------------------------

void
runCompileCold(Run &run)
{
    // Set-up: scale-1 inputs from a warm-up build of every app.
    std::vector<Inputs> inputs;
    timedSetup(run, [&] {
        inputs.clear();
        for (const App &app : apps())
            inputs.push_back(
                makeInputs(app, CompiledArtifact::build(app.source), 1));
    });

    std::vector<Stream> streams(kStreams);
    runStreams([&](int s) {
        Stream &me = streams[static_cast<size_t>(s)];
        auto rng = mixRng(run.seed, 10 + static_cast<uint64_t>(s));
        std::vector<ArtifactPtr> arts;
        const auto deadline = deadlineAfter(run.seconds);
        for (uint64_t round = 1; Clock::now() < deadline || me.roundMs.empty();
             ++round) {
            me.calib.sample();
            std::vector<int> order = identityOrder();
            std::shuffle(order.begin(), order.end(), rng);
            const uint64_t request = (static_cast<uint64_t>(s) << 32) | round;
            // Traced runs alternate build() rounds with rounds that
            // replay build()'s stages, each stage in its own span.
            if (run.traced && round % 2 == 0) {
                me.tracedMs.push_back(
                    replayRound(run, order, &run.tracer, request));
                continue;
            }
            std::vector<double> app_ms;
            const double ms = buildRound(run, order, arts, app_ms,
                                         run.tracerFor(true), request);
            me.roundMs.push_back(ms);
            me.untracedMs.push_back(ms);
            for (size_t i = 0; i < order.size(); ++i)
                me.appMs[static_cast<size_t>(order[i])].push_back(app_ms[i]);
            // Each fresh artifact runs once at scale 1, outside the
            // timed region, and is verified.
            for (int a : order) {
                const App &app = apps()[static_cast<size_t>(a)];
                const auto &art = arts[static_cast<size_t>(a)];
                const Inputs &in = inputs[static_cast<size_t>(a)];
                DramImage dram(art->hir());
                copyInputs(in, dram);
                try {
                    auto stats = art->makeContext()->run(dram, in.args);
                    run.checks.verifyRun(app, 1, dram, stats);
                    run.checks.repeat("dataflow.quanta/" + app.name + "@1",
                                      stats.schedQuanta);
                    run.checks.repeat("dataflow.link_tokens/" + app.name + "@1",
                                      linkTokens(stats));
                } catch (const std::exception &e) {
                    run.checks.operation(app.name + ": " + e.what());
                }
            }
        }
    });

    const auto [round, slowest] = streamLatencies(
        run, streams,
        {"compile_ms", 0, 0, "median 8-app cold compile round, all streams"},
        {"compile_slowest_app_ms", 0, 0, "slowest app's median compile"});
    const double per_round = kStreams * 8e3;
    reportEndToEnd(run,
                   {"compile_apps_per_s", per_round / round.raw,
                    per_round / round.norm, "streams x 8000 / compile_ms"},
                   round, slowest);
    if (!run.traced)
        return;
    Layers layers;
    layers.compileRun = true;
    collectOverhead(streams, layers);
    ExecState exec;
    finishTraced(run, layers, exec);
    const double ratio =
        median(layers.tracedUnitMs) / median(layers.untracedUnitMs);
    if (std::fabs(ratio - 1) > kReconcileBound)
        run.checks.operation("replayed stage sum / build() = " +
                             std::to_string(ratio) + " is outside 1 +- " +
                             std::to_string(kReconcileBound) +
                             ": build()'s stages drifted from the replay");
}

// ---- exec-large ------------------------------------------------------------

void
runExecLarge(Run &run)
{
    ExecState st;
    timedSetup(run, [&] { buildExecState(run, st, kExecScale); });

    Layers layers;
    layers.execRun = true;
    std::vector<Stream> streams(kStreams);
    runStreams([&](int s) {
        Stream &me = streams[static_cast<size_t>(s)];
        auto rng = mixRng(run.seed, 20 + static_cast<uint64_t>(s));
        // Each stream runs on contexts of its own over the shared
        // artifacts; the first round warms them and is not timed.
        ExecState mine;
        mine.scale = st.scale;
        mine.arts = st.arts;
        mine.inputs = st.inputs;
        for (const auto &art : mine.arts)
            mine.ctxs.push_back(art->makeContext());
        Layers *tally = s == 0 ? &layers : nullptr; // counts are per app
        execRound(run, mine, identityOrder(), nullptr, 0, nullptr, nullptr);
        const auto deadline = deadlineAfter(run.seconds);
        for (uint64_t round = 1; Clock::now() < deadline || me.roundMs.empty();
             ++round) {
            me.calib.sample();
            std::vector<int> order = identityOrder();
            std::shuffle(order.begin(), order.end(), rng);
            const bool traced_unit = round % 2 == 0;
            std::vector<double> app_ms;
            const double ms = execRound(
                run, mine, order, run.tracerFor(traced_unit),
                (static_cast<uint64_t>(s) << 32) | round, &app_ms, tally);
            for (size_t i = 0; i < order.size(); ++i)
                me.appMs[static_cast<size_t>(order[i])].push_back(app_ms[i]);
            me.roundMs.push_back(ms);
            (traced_unit ? me.tracedMs : me.untracedMs).push_back(ms);
        }
    });

    // Table V's metric per stream: geomean over apps of accounted
    // input+output MB over the app's median run time.
    Figure mbps{"exec_mbps_all_streams", 0, 0,
                "streams x exec_mbps (accounted MB/s, geomean over apps)"};
    for (bool norm : {false, true}) {
        std::vector<double> per_app;
        for (size_t a = 0; a < apps().size(); ++a) {
            const double ms = median(pooled(
                streams, norm, [a](const Stream &s) { return s.appMs[a]; }));
            const double mb =
                static_cast<double>(apps()[a].accountedBytes(kExecScale)) / 1e6;
            per_app.push_back(mb / (ms / 1e3));
            if (norm)
                run.note("exec_ms." + apps()[a].name, ms, "ms",
                         "median run @256, at reference host speed");
        }
        (norm ? mbps.norm : mbps.raw) = kStreams * geomean(per_app);
    }
    run.note("exec_mbps", mbps.norm / kStreams, "MB/s",
             "per stream, at reference host speed");
    const auto [round, slowest] = streamLatencies(
        run, streams, {"exec_round_ms", 0, 0, "median 8-app round @256"},
        {"exec_slowest_app_ms", 0, 0, "slowest app's median run @256"});
    reportEndToEnd(run, mbps, round, slowest);
    if (!run.traced)
        return;
    collectOverhead(streams, layers);
    finishTraced(run, layers, st);
}

// ---- serve-batch -----------------------------------------------------------

void
runServeBatch(Run &run)
{
    std::vector<ArtifactPtr> arts;
    ServeInputs inputs;
    timedSetup(run, [&] {
        ArtifactCache::global().clear();
        arts = warmCache();
        inputs = makeServeInputs(arts);
        for (int a = 0; a < numApps(); ++a)
            serveOneBatch(run, arts[static_cast<size_t>(a)],
                          inputs[static_cast<size_t>(a)][0], a, 1, nullptr, 0,
                          nullptr);
    });

    auto rng = mixRng(run.seed, 3);
    Layers layers;
    std::vector<double> latency;
    double wall_ms = 0;
    uint64_t batch = 0, cycle = 0;
    auto combos = allCombos();
    const auto deadline = deadlineAfter(run.seconds);
    // Cycles visit every (app, scale) once in a seeded order, so the
    // mix is the same on every seed up to order and the cut at the end.
    run.calib.threads = kServeWorkers;
    while (Clock::now() < deadline || latency.empty()) {
        run.calib.sample();
        std::shuffle(combos.begin(), combos.end(), rng);
        ++cycle;
        const bool traced_unit = cycle % 2 == 0;
        Tracer *tracer = run.tracerFor(traced_unit);
        double cycle_ms = 0;
        for (const auto &[a, s] : combos) {
            if (Clock::now() >= deadline && !latency.empty())
                break;
            const auto rep = serveOneBatch(
                run, arts[static_cast<size_t>(a)],
                inputs[static_cast<size_t>(a)][static_cast<size_t>(s)], a,
                kServeScales[s], tracer, ++batch, &layers);
            wall_ms += rep.wallMs;
            cycle_ms += rep.wallMs;
            for (const auto &res : rep.results)
                latency.push_back(res.queueMs + res.execMs);
        }
        if (run.traced)
            (traced_unit ? layers.tracedUnitMs : layers.untracedUnitMs)
                .push_back(cycle_ms);
    }

    const std::string n = countDetail(latency.size(), "requests");
    reportCalibrated(
        run,
        {"serve_rps", static_cast<double>(latency.size()) / (wall_ms / 1e3), 0,
         n + " / batch wall"},
        {"serve_p50_ms", median(latency), 0, n + ", queue + exec"},
        {"serve_p99_ms", percentile(latency, 99), 0, n + ", queue + exec"});
    if (!run.traced)
        return;
    ExecState exec;
    finishTraced(run, layers, exec);
}

// ---- serve-churn -----------------------------------------------------------

void
runServeChurn(Run &run)
{
    ServeInputs inputs;
    timedSetup(run, [&] {
        ArtifactCache::global().clear();
        inputs = makeServeInputs(warmCache());
    });

    /** One closed-loop client; its state carries across phases. */
    struct Client
    {
        std::mt19937_64 rng;
        std::vector<std::pair<int, int>> combos;
        std::vector<int> variantApps;
        size_t next = 0;
        uint64_t n = 0, cycle = 0, variantAt = 0;
        std::vector<double> hitMs, tracedHitMs, untracedHitMs;
        uint64_t variants = 0, requests = 0;
        ServeTally serve;
    };
    std::vector<Client> clients(kChurnClients);
    for (int c = 0; c < kChurnClients; ++c) {
        Client &cl = clients[static_cast<size_t>(c)];
        cl.rng = mixRng(run.seed, 100 + static_cast<uint64_t>(c));
        cl.combos = allCombos();
        cl.next = cl.combos.size();
        cl.variantApps = identityOrder();
        std::shuffle(cl.variantApps.begin(), cl.variantApps.end(), cl.rng);
    }

    // One request: get() then a one-request serveBatch, timed from get
    // to run end; verified after the clock stops.
    auto one_request = [&](int c) {
        Client &me = clients[static_cast<size_t>(c)];
        if (me.next == me.combos.size()) {
            std::shuffle(me.combos.begin(), me.combos.end(), me.rng);
            me.next = 0;
            ++me.cycle;
        }
        // Exactly one request in each block of kVariantEvery is a
        // never-seen variant, at a seeded position; variants rotate
        // through the apps in a seeded order.
        const uint64_t n = me.n++;
        if (n % kVariantEvery == 0)
            me.variantAt = n + me.rng() % kVariantEvery;
        const bool variant = n == me.variantAt;
        auto [a, s] = me.combos[me.next++];
        if (variant)
            a = me.variantApps[me.variants % me.variantApps.size()];
        const App &app = apps()[static_cast<size_t>(a)];
        const int scale = kServeScales[s];
        const Inputs &in = inputs[static_cast<size_t>(a)][static_cast<size_t>(s)];
        Tracer *tracer = run.tracerFor(me.cycle % 2 == 0);
        const uint64_t req_id = (static_cast<uint64_t>(c) << 40) | n;
        const std::string variant_src =
            variant ? variantSource(app, run.seed, static_cast<uint64_t>(c), n)
                    : std::string();
        revet::serve::ServeOptions opts;
        opts.workers = 1; // runs inline on the client thread

        revet::serve::BatchReport rep;
        double total_ms = 0;
        std::string error;
        {
            ScopedSpan request(tracer, "serve.request", 0, req_id, a, scale);
            const auto t0 = Clock::now();
            try {
                ArtifactPtr art;
                {
                    ScopedSpan span(tracer,
                                    variant ? "core.cache_get.miss"
                                            : "core.cache_get.hit",
                                    request.id(), req_id, a, scale);
                    art = ArtifactCache::global().get(variant ? variant_src
                                                              : app.source);
                }
                ScopedSpan span(tracer, "serve.batch", request.id(), req_id, a,
                                scale);
                rep = revet::serve::serveBatch(
                    art, makeRequests(in, 1, tracer, span.id(), req_id, a, scale),
                    opts);
            } catch (const std::exception &e) {
                error = app.name + ": " + e.what();
            }
            total_ms = msBetween(t0, Clock::now());
        }
        ++me.requests;
        if (variant)
            ++me.variants;
        if (!error.empty()) {
            run.checks.operation(error);
            return;
        }
        checkBatch(run, rep, a, scale);
        if (!variant) {
            me.hitMs.push_back(total_ms);
            if (run.traced)
                (tracer ? me.tracedHitMs : me.untracedHitMs).push_back(total_ms);
        }
        if (tracer) {
            for (const auto &res : rep.results) {
                me.serve.queueMs.push_back(res.queueMs);
                me.serve.execMs.push_back(res.execMs);
            }
            me.serve.created += rep.pool.created;
            me.serve.reused += rep.pool.reused;
        }
    };

    // Phases of about a second: all clients run until the phase ends,
    // then the host speed is sampled while the clients are idle.
    Layers layers;
    layers.cacheRun = layers.serveRun = true;
    // Calibrate on one thread: misses compile under the cache lock, so
    // the lock holder's single-threaded compile is the critical path
    // (a 4-thread kernel tracked this workload worse in trials).
    // The cache never evicts, so variants pile up at a rate set by
    // throughput. Once kChurnCachedVariants have piled up, the cache is
    // cleared and re-warmed between phases (untimed), so peak memory
    // does not grow with throughput.
    auto &cache = ArtifactCache::global();
    ArtifactCache::Stats since = cache.stats(); // as of the last warm-up
    auto harvest = [&] {
        const auto now = cache.stats();
        layers.cache.hits += now.hits - since.hits;
        layers.cache.misses += now.misses - since.misses;
    };
    double wall_s = 0, cpu_s = 0;
    const auto deadline = deadlineAfter(run.seconds);
    while (Clock::now() < deadline || wall_s == 0) {
        run.calib.sample();
        const auto phase_end = std::min(deadline, deadlineAfter(1.0));
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kChurnClients; ++c)
            threads.emplace_back([&, c] {
                do
                    one_request(c);
                while (Clock::now() < phase_end);
            });
        for (auto &t : threads)
            t.join();
        wall_s += msBetween(t0, Clock::now()) / 1e3;
        cpu_s += cpuSeconds() - cpu0;
        if (cache.stats().entries >= apps().size() + kChurnCachedVariants) {
            harvest();
            cache.clear();
            warmCache();
            since = cache.stats();
        }
    }
    harvest();

    std::vector<double> hit_ms;
    uint64_t requests = 0, variants = 0;
    for (auto &cl : clients) {
        hit_ms.insert(hit_ms.end(), cl.hitMs.begin(), cl.hitMs.end());
        requests += cl.requests;
        variants += cl.variants;
        layers.tracedUnitMs.insert(layers.tracedUnitMs.end(),
                                   cl.tracedHitMs.begin(), cl.tracedHitMs.end());
        layers.untracedUnitMs.insert(layers.untracedUnitMs.end(),
                                     cl.untracedHitMs.begin(),
                                     cl.untracedHitMs.end());
        auto &sv = layers.serve;
        sv.queueMs.insert(sv.queueMs.end(), cl.serve.queueMs.begin(),
                          cl.serve.queueMs.end());
        sv.execMs.insert(sv.execMs.end(), cl.serve.execMs.begin(),
                         cl.serve.execMs.end());
        sv.created += cl.serve.created;
        sv.reused += cl.serve.reused;
    }
    layers.serve.cpuS = cpu_s;
    layers.serve.workerWallS = wall_s * kChurnClients;
    // Every variant must have missed and every base lookup hit.
    if (layers.cache.misses != variants)
        run.checks.operation("cache misses " +
                             std::to_string(layers.cache.misses) +
                             " != variants " + std::to_string(variants));

    const std::string hits = countDetail(hit_ms.size(), "cache hits, get to run end");
    reportCalibrated(
        run,
        {"churn_rps", static_cast<double>(requests) / wall_s, 0,
         countDetail(requests, "requests, ") + std::to_string(variants) +
             " variants (misses)"},
        {"churn_hit_p50_ms", median(hit_ms), 0, hits},
        {"churn_hit_p99_ms", percentile(hit_ms, 99), 0, hits});
    if (!run.traced)
        return;
    ExecState exec;
    finishTraced(run, layers, exec);
}

} // namespace perfbench
