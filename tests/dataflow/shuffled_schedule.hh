/**
 * @file
 * Seeded shuffled schedules: the schedule-independence oracle.
 *
 * dataflow::Engine has one scheduler. Kahn-network determinism says
 * its order must not be observable, so the tests drive the same
 * processes under other orders and compare. runSweeps() never calls
 * Engine::run(): each sweep visits every process once, in a fresh
 * seeded shuffle of the process order, and runs it for a random burst
 * of 1..8 quanta; sweeps repeat until a full sweep moves nothing.
 *
 * runShuffled() wires a compiled program onto a test-owned engine
 * through graph::instantiateAll — the wiring every ExecutionContext
 * uses — and runs it that way. The caller holds the result to the
 * engine's own run: DRAM identical to the AST interpreter, the same
 * per-link token and barrier counts, the same useful quanta, a
 * drained network and no park residue. The park high-water mark is
 * not schedule-independent (a different order can buffer fewer
 * threads at once), so only the engine's run pins it.
 *
 * runShuffled() is also the one place the per-link value watches
 * (dataflow::Channel::ValueWatch) are turned on: it hands them back to
 * the absint soundness oracle, and it checks on every run that each
 * link's watch saw every push (dataPushed + barriersPushed equals the
 * link's token count), so the oracle cannot go vacuous by observing
 * nothing.
 *
 * scheduleSeeds() is the seed list every such sweep uses: 8 fixed
 * seeds, or 64 starting at REVET_FUZZ_SEED when a fuzz sweep sets it
 * (scripts/check.sh --sanitize and --tsan do). allSchedules() puts the
 * engine's own schedule first, so a test loops once over
 * "engine, then every seed" with runSchedule().
 */

#ifndef REVET_TESTS_DATAFLOW_SHUFFLED_SCHEDULE_HH
#define REVET_TESTS_DATAFLOW_SHUFFLED_SCHEDULE_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/bytecode.hh"
#include "graph/exec_detail.hh"
#include "lang/dram_image.hh"

namespace revet
{
namespace shuffled_test
{

/** Seeds for one shuffled-schedule sweep (see the file comment). */
inline std::vector<uint64_t>
scheduleSeeds()
{
    const char *env = std::getenv("REVET_FUZZ_SEED");
    const uint64_t base = env ? std::strtoull(env, nullptr, 10) : 20260730;
    const int count = env ? 64 : 8;
    std::vector<uint64_t> seeds;
    for (int i = 0; i < count; ++i)
        seeds.push_back(base + static_cast<uint64_t>(i) * 7919u);
    return seeds;
}

/**
 * Run @p procs to quiescence under seeded shuffled sweeps (see the
 * file comment). Returns the quanta that made progress.
 * @throws std::runtime_error if tokens still move after
 * Engine::defaultMaxRounds sweeps.
 */
inline uint64_t
runSweeps(std::vector<dataflow::Process *> procs, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> burst(1, 8);
    uint64_t quanta = 0;
    for (uint64_t sweep = 0;; ++sweep) {
        if (sweep > dataflow::Engine::defaultMaxRounds)
            throw std::runtime_error("shuffled schedule: livelock");
        std::shuffle(procs.begin(), procs.end(), rng);
        bool progress = false;
        for (dataflow::Process *proc : procs) {
            const int done = proc->runQuanta(burst(rng));
            quanta += static_cast<uint64_t>(done);
            progress |= done > 0;
        }
        if (!progress)
            return quanta;
    }
}

/** Per-link value watches of one run, indexed by link id. */
using Watches = std::vector<dataflow::Channel::ValueWatch>;

/**
 * Execute @p prog against @p dram with main's @p args under the
 * shuffled schedule @p seed, with every link's value watch on. Fills
 * what a schedule cannot change: drained, linkTokens/linkBarriers,
 * schedQuanta, the park counters and the memory counters; the
 * engine's scheduler counters stay 0. Copies the watches to
 * @p watches when given.
 * @throws std::runtime_error if a link's watch missed a push.
 */
inline graph::ExecStats
runShuffled(const graph::BytecodeProgram &prog, lang::DramImage &dram,
            const std::vector<int32_t> &args, uint64_t seed,
            Watches *watches = nullptr)
{
    if (args.size() < prog.numArgs)
        throw std::runtime_error("dataflow program expects more arguments");
    graph::ExecStats stats;
    stats.graphNodes = prog.insts.size();
    stats.graphLinks = prog.numLinks;
    graph::detail::MachineMemory mem;
    mem.rebind(dram, stats, args);
    mem.beginRun();
    // Declared after the memory its processes reference.
    dataflow::Engine engine;
    auto procs = graph::instantiateAll(engine, prog, mem);
    const auto &channels = engine.channels();
    for (const auto &ch : channels)
        ch->watchValues(true);
    stats.schedQuanta = runSweeps(std::move(procs), seed);
    stats.drained = engine.drained();
    stats.sramParkedEnd = mem.parkedNow;
    for (size_t i = 0; i < prog.numLinks; ++i) {
        const dataflow::Channel &ch = *channels[i];
        const auto &w = ch.watch();
        if (w.dataPushed + w.barriersPushed != ch.totalPushed()) {
            throw std::runtime_error(
                "shuffled schedule: value watch on link " +
                std::to_string(i) + " (" + ch.name() + ") saw " +
                std::to_string(w.dataPushed + w.barriersPushed) + " of " +
                std::to_string(ch.totalPushed()) + " pushes");
        }
        stats.linkTokens.push_back(ch.totalPushed());
        stats.linkBarriers.push_back(ch.barriersPushed());
        if (watches)
            watches->push_back(w);
    }
    return stats;
}

/** The engine's schedule (empty) followed by every scheduleSeeds()
 * seed. */
inline std::vector<std::optional<uint64_t>>
allSchedules()
{
    std::vector<std::optional<uint64_t>> out{std::nullopt};
    for (uint64_t seed : scheduleSeeds())
        out.emplace_back(seed);
    return out;
}

/** "engine" or "shuffled seed N", for failure messages. */
inline std::string
scheduleName(std::optional<uint64_t> seed)
{
    return seed ? "shuffled seed " + std::to_string(*seed) : "engine";
}

/** Execute @p prog on the engine (graph::execute) when @p seed is
 * empty, else under the shuffled schedule @p *seed. */
inline graph::ExecStats
runSchedule(const graph::BytecodeProgram &prog, lang::DramImage &dram,
            const std::vector<int32_t> &args, std::optional<uint64_t> seed)
{
    return seed ? runShuffled(prog, dram, args, *seed)
                : graph::execute(prog, dram, args);
}

} // namespace shuffled_test
} // namespace revet

#endif // REVET_TESTS_DATAFLOW_SHUFFLED_SCHEDULE_HH
