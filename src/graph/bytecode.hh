/**
 * @file
 * Bytecode executor: the one executor of dataflow graphs.
 *
 * BytecodeProgram::compile flattens a Dfg once into
 * position-independent tables: one fixed-width instruction per node,
 * channel *indices* (not pointers) into a shared operand pool, and the
 * block bodies concatenated into a single BlockOp table dispatched
 * through graph::evalPureOp. instantiate() turns one instruction into
 * one dataflow::Process whose stepOnce() is a single switch over the
 * opcode, so a program runs on the dataflow::Engine. instantiateAll()
 * wires a whole program that way; ExecutionContext wires once and
 * rebinds the processes per request, and execute() is the one-shot
 * form. A raw Dfg runs as execute(BytecodeProgram::compile(dfg), ...).
 *
 * Correctness oracles: DRAM bit-identity with the AST interpreter,
 * pinned link traffic under the engine and under seeded shuffled
 * schedules (tests/dataflow/shuffled_schedule.hh), and hand-built
 * SLTF streams per opcode (tests/dataflow/test_primitives.cc).
 */

#ifndef REVET_GRAPH_BYTECODE_HH
#define REVET_GRAPH_BYTECODE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/dfg.hh"
#include "graph/exec.hh"
#include "lang/dram_image.hh"

namespace revet
{
namespace graph
{

/** Bytecode opcodes: one per streaming-primitive role. The FIFO and
 * keyed restore variants get distinct opcodes (they share a NodeKind
 * but not semantics), as do argument and `__start` sources (resolved
 * via BcInst::arg, not a runtime branch). */
enum class BcOp : uint8_t
{
    source,
    sink,
    fanout,
    block,
    counter,
    broadcast,
    reduce,
    flatten,
    filter,
    fwdMerge,
    fbMerge,
    park,
    restore,      ///< FIFO read-back (order-preserving region)
    keyedRestore, ///< associative read-back (thread-reordering region)
    ordinal,
};

const char *toString(BcOp op);

/**
 * One flattened node. All variable-length payloads live in the
 * program's shared pools and are referenced by offset+count, so the
 * instruction itself is fixed-width and the whole program is three
 * contiguous arrays hot in cache:
 *
 *  - ins/outs: offsets into BytecodeProgram::chans (channel indices ==
 *    link ids). Merge instructions follow the Dfg convention: the
 *    input range is the A-bundle then the B-bundle, each nOuts wide.
 *    A filter's first input is its predicate.
 *  - ops + inRegs/outRegs: a block's body in BytecodeProgram::ops and
 *    its lane-to-register maps in BytecodeProgram::regs (inRegs is
 *    nIns entries, outRegs is nOuts entries).
 *  - name: index into BytecodeProgram::names — "kind(node#id)", so
 *    Engine::stallReport() names the opcode and its source node.
 */
struct BcInst
{
    BcOp op = BcOp::sink;
    bool sense = true;   ///< filter polarity
    uint32_t nRegs = 0;  ///< block register-file size
    int32_t level = 1;   ///< broadcast hierarchy distance
    Word init = 0;       ///< reduce initial value
    int32_t arg = -1;    ///< source: main-args index (-1: __start seed)
    uint32_t ins = 0;    ///< offset into chans
    uint32_t nIns = 0;
    uint32_t outs = 0;   ///< offset into chans
    uint32_t nOuts = 0;
    uint32_t ops = 0;    ///< offset into the shared BlockOp table
    uint32_t nOps = 0;
    uint32_t inRegs = 0;  ///< offset into regs (nIns entries)
    uint32_t outRegs = 0; ///< offset into regs (nOuts entries)
    uint32_t name = 0;   ///< offset into names
};

/**
 * A dataflow graph compiled to flat tables. Immutable after compile()
 * and holds no pointers, so one program can be cached (see
 * core::CompiledArtifact) and executed any number of times, from any
 * thread.
 */
struct BytecodeProgram
{
    std::vector<BcInst> insts;      ///< one per Dfg node, in node order
    std::vector<uint32_t> chans;    ///< flattened channel-index operands
    std::vector<BlockOp> ops;       ///< concatenated block bodies
    std::vector<int32_t> regs;      ///< concatenated lane/register maps
    std::vector<std::string> names; ///< per-inst diagnostic names
    std::vector<std::string> linkNames; ///< per-channel names (diagnostics)
    size_t numLinks = 0;
    size_t numArgs = 0; ///< main arguments the program expects

    /** Flatten @p dfg (which must verify()) into bytecode. Pure: the
     * graph is not retained. */
    static BytecodeProgram compile(const Dfg &dfg);
};

namespace detail
{
struct MachineMemory;
} // namespace detail

/**
 * Instantiate @p inst (one of @p prog's instructions) as a process of
 * @p engine, reading and writing chans[link id] and sharing @p mem with
 * the run's other instructions. The one instantiation path: every
 * program is wired through it (instantiateAll), and tests use it to
 * run single instructions on hand-built streams over channels and
 * capacities of their choosing. @p prog, @p mem and the channels must
 * outlive the process.
 */
dataflow::Process *instantiate(dataflow::Engine &engine,
                               const BytecodeProgram &prog,
                               const BcInst &inst,
                               const std::vector<dataflow::Channel *> &chans,
                               detail::MachineMemory &mem);

/**
 * Wire all of @p prog onto @p engine: one unbounded channel per link
 * (engine channel i carries link i), then one process per instruction
 * through instantiate(). Returns the processes in instruction order.
 * The one wiring path: every ExecutionContext runs it once, and the
 * schedule-independence tests drive the returned processes under
 * their own schedules. @p prog and @p mem must outlive the engine's
 * processes.
 */
std::vector<dataflow::Process *>
instantiateAll(dataflow::Engine &engine, const BytecodeProgram &prog,
               detail::MachineMemory &mem);

/**
 * The per-request half of the compile-once/run-many split.
 *
 * A BytecodeProgram is immutable and shareable across threads; running
 * it needs mutable state — channel FIFOs, each instruction's register
 * file and internal mode machines, the SRAM arena, a DRAM image and a
 * stats block. An ExecutionContext instantiates all of that once
 * (engine, channels, one process per instruction) and rebinds it to a
 * fresh request on every run() instead of rebuilding it: channels are
 * cleared, per-instruction state is re-armed with the request's
 * arguments, and the machine memory is pointed at the request's DRAM
 * image and stats. The SRAM arena survives too: a reused context
 * re-zeroes and hands back the buffers the previous request grew
 * instead of allocating fresh ones (counted in
 * ExecStats::sramArenaReused). Contexts are single-request-at-a-time:
 * for concurrency give each thread its own (core/serve.hh keeps one
 * per serving worker); handing a context between threads across
 * requests is safe when the handoff synchronizes.
 *
 * The referenced program must outlive the context.
 */
class ExecutionContext
{
  public:
    explicit ExecutionContext(const BytecodeProgram &prog);
    ~ExecutionContext();

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /**
     * Serve one request: reset all per-run state, bind @p dram /
     * @p args, and run the program to quiescence. Whether the context
     * is fresh or reused is observable only through stats, never
     * through results.
     * @throws std::runtime_error on machine-model violations,
     * livelock, or missing arguments (the context remains
     * reusable: the next run() starts from a full reset, but
     * poisoned() reports the failure so servers can discard it).
     */
    ExecStats run(lang::DramImage &dram,
                  const std::vector<int32_t> &args,
                  uint64_t max_rounds =
                      dataflow::Engine::defaultMaxRounds);

    /** Requests served to completion (successful run() calls). */
    uint64_t runsServed() const;

    /** True after a run() threw: state was left mid-request. run()
     * self-heals via the full reset, but serving workers use this to
     * retire the context instead of reusing it. */
    bool poisoned() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Execute compiled @p prog against @p dram with main's @p args: a
 * fresh context, run once, torn down.
 * @throws std::runtime_error on machine-model violations, livelock,
 * a network that fails to drain, or missing arguments.
 */
ExecStats execute(const BytecodeProgram &prog, lang::DramImage &dram,
                  const std::vector<int32_t> &args,
                  uint64_t max_rounds = dataflow::Engine::defaultMaxRounds);

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_BYTECODE_HH
