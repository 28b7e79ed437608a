#include "graph/exec.hh"

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "dataflow/engine.hh"
#include "graph/exec_detail.hh"

namespace revet
{
namespace graph
{

using dataflow::Bundle;
using dataflow::Channel;
using detail::MachineMemory;
using lang::normalize;
using lang::Scalar;
using sltf::Token;

namespace detail
{

Word
evalOp(const BlockOp &op, std::vector<Word> &regs, MachineMemory &mem)
{
    auto A = [&] { return regs[op.a]; };
    auto B = [&] { return regs[op.b]; };
    auto C = [&] { return regs[op.c]; };
    // ALU semantics live in one place (graph::evalPureOp), shared with
    // the optimizer's constant folder. It declines division/remainder
    // by zero — a machine-model violation here.
    {
        Word out = 0;
        Word a = op.a >= 0 ? A() : 0;
        Word b = op.b >= 0 ? B() : 0;
        Word c = op.c >= 0 ? C() : 0;
        if (evalPureOp(op, a, b, c, out))
            return out;
    }
    switch (op.kind) {
      case OpKind::divs:
      case OpKind::divu:
        throw std::runtime_error("division by zero in dataflow");
      case OpKind::rems:
      case OpKind::remu:
        throw std::runtime_error("remainder by zero in dataflow");
      case OpKind::sramAlloc:
        return mem.alloc(op.size);
      case OpKind::sramRead: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(A());
        uint32_t idx = B();
        return idx < buf->size() ? normalize(op.elem, (*buf)[idx]) : 0;
      }
      case OpKind::sramWrite: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(A());
        uint32_t idx = B();
        if (idx < buf->size())
            (*buf)[idx] = normalize(op.elem, C());
        return 0;
      }
      case OpKind::rmwAdd:
      case OpKind::rmwSub: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(A());
        uint32_t idx = B();
        if (idx >= buf->size())
            return 0;
        uint32_t old = (*buf)[idx];
        uint32_t next =
            op.kind == OpKind::rmwAdd ? old + C() : old - C();
        (*buf)[idx] = normalize(op.elem, next);
        return normalize(op.elem, old);
      }
      case OpKind::dramRead: {
        ++mem.stats->dramReadElems;
        mem.stats->dramReadBytes += lang::dramElemBytes(op.elem);
        return mem.dram->load(op.dram, A());
      }
      case OpKind::dramWrite: {
        ++mem.stats->dramWriteElems;
        mem.stats->dramWriteBytes += lang::dramElemBytes(op.elem);
        mem.dram->store(op.dram, A(), B());
        return 0;
      }
      default:
        break; // pure ops already handled by evalPureOp
    }
    return 0;
}

void
collectRunStats(dataflow::Engine &engine, size_t num_links,
                ExecStats &stats)
{
    const dataflow::SchedStats &sched = engine.schedStats();
    stats.schedWakeups = sched.wakeups;
    stats.schedSteps = sched.steps;
    stats.schedIdleSteps = sched.idleSteps;
    stats.schedStepsSkipped = sched.stepsSkipped;
    stats.schedVerifyPasses = sched.verifyPasses;
    stats.schedQuanta = sched.quanta;
    stats.drained = engine.drained();
    if (!stats.drained) {
        throw std::runtime_error("dataflow execution stalled: " +
                                 engine.stallReport());
    }
    stats.linkTokens.resize(num_links, 0);
    stats.linkBarriers.resize(num_links, 0);
    stats.linkValues.resize(num_links);
    const auto &channels = engine.channels();
    for (size_t i = 0; i < num_links; ++i) {
        stats.linkTokens[i] = channels[i]->totalPushed();
        stats.linkBarriers[i] = channels[i]->watch().barriersPushed;
        stats.linkValues[i] = channels[i]->watch();
    }
}

} // namespace detail

namespace
{

/**
 * Associative read-back side of an ordinal-keyed park/restore pair.
 *
 * The park forwards the value stream in region-entry order; this
 * process buffers each arriving value under its arrival index (the
 * same numbering the region-entry ordinal node hands out) and emits
 * values in the order their keys appear on the key stream — the
 * ordinal lane that rode the region's bundles, i.e. region-exit
 * order. The output's barrier structure mirrors the key stream (the
 * value stream's barriers carry entry-order structure and are
 * dropped); a key whose value has not arrived yet simply waits.
 *
 * Slot reclamation: values whose threads died inside the region
 * (exit/return) are never looked up, so waiting for a lookup would
 * hold their slots forever. Both streams of a keyed pair carry the
 * same barrier structure — keyed parking refuses thread-multiplying
 * region bodies (counter/broadcast/reduce force a fork refusal), and
 * every remaining in-region primitive conserves barriers end to end
 * (flattens inside a while body cancel against the B1s its fbMerge
 * inserts) — so barrier #k on the value stream and barrier #k on the
 * key stream delimit the same batch of threads. When the key stream
 * closes batch k, every still-buffered value tagged with batch k
 * belongs to a dead thread and its slot is freed (bookkeeping only:
 * the MU just forgets the slot, so no sramAccesses are counted).
 */
class KeyedRestore : public dataflow::Process
{
  public:
    KeyedRestore(std::string name, Channel *value, Channel *key,
                 Channel *out, std::shared_ptr<MachineMemory> mem)
        : Process(std::move(name)), value_(value), key_(key), out_(out),
          mem_(std::move(mem))
    {
        declareIo({value_, key_}, {out_});
    }

    bool
    stepOnce() override
    {
        // Absorb the park stream first: values land in the keyed SRAM.
        if (!value_->empty()) {
            Token tok = value_->pop();
            if (tok.isBarrier()) {
                ++value_batches_;
                return true;
            }
            if (value_batches_ < key_batches_) {
                // Dead on arrival: the value's batch already closed on
                // the key side, so no key can ever look it up.
                mem_->releaseSlot();
            } else {
                buffered_[next_ordinal_] = {tok.word(), value_batches_};
            }
            ++next_ordinal_;
            return true;
        }
        if (key_->empty() || !out_->canPush())
            return false;
        const Token &head = key_->front();
        if (head.isBarrier()) {
            out_->push(key_->pop());
            ++key_batches_;
            reclaimClosedBatches();
            return true;
        }
        auto it = buffered_.find(head.word());
        if (it == buffered_.end())
            return false; // the key ran ahead of its parked value
        key_->pop();
        ++mem_->stats->sramAccesses;
        mem_->releaseSlot();
        out_->push(Token::data(it->second.value));
        buffered_.erase(it);
        return true;
    }

    // Leftover buffered values are parks of threads that terminated
    // inside the region mid-batch: quiescent state, not a stall.
    std::string
    stallReason() const override
    {
        std::string detail = ioStallDetail();
        if (!key_->empty() && key_->front().isData()) {
            detail = "awaiting parked value for ordinal " +
                std::to_string(key_->front().word()) + "; " + detail;
        }
        return name() + ": " + std::to_string(buffered_.size()) +
            " value(s) parked; " + detail;
    }

  private:
    struct Parked
    {
        Word value = 0;
        /** Value-stream barrier count at arrival: which batch the
         * value's thread entered the region in. */
        uint64_t batch = 0;
    };

    void
    reclaimClosedBatches()
    {
        size_t freed = 0;
        for (auto it = buffered_.begin(); it != buffered_.end();) {
            if (it->second.batch < key_batches_) {
                it = buffered_.erase(it);
                ++freed;
            } else {
                ++it;
            }
        }
        if (freed == 0)
            return;
        for (size_t i = 0; i < freed; ++i)
            mem_->releaseSlot();
    }

    Channel *value_;
    Channel *key_;
    Channel *out_;
    std::shared_ptr<MachineMemory> mem_;
    std::unordered_map<Word, Parked> buffered_;
    Word next_ordinal_ = 0;
    /** Barriers seen on each stream so far; equal counts delimit the
     * same thread batch (see the class comment). */
    uint64_t value_batches_ = 0;
    uint64_t key_batches_ = 0;
};

} // namespace

ExecStats
execute(const Dfg &dfg, lang::DramImage &dram,
        const std::vector<int32_t> &args, uint64_t max_rounds,
        dataflow::Engine::Policy policy)
{
    ExecStats stats;
    stats.graphNodes = dfg.nodes.size();
    stats.graphLinks = dfg.links.size();
    auto mem = std::make_shared<MachineMemory>(dram, stats);

    dataflow::Engine engine(policy);
    std::vector<Channel *> chans(dfg.links.size(), nullptr);
    for (const auto &link : dfg.links)
        chans[link.id] = engine.channel(link.name);

    size_t arg_idx = 0;
    for (const auto &node_ref : dfg.nodes) {
        const auto &node = node_ref;
        const std::string uname =
            node.name + "#" + std::to_string(node.id);
        auto bundleIn = [&](size_t from, size_t count) {
            Bundle b;
            for (size_t i = from; i < from + count; ++i)
                b.push_back(chans[node.ins[i]]);
            return b;
        };
        auto bundleOut = [&]() {
            Bundle b;
            for (int l : node.outs)
                b.push_back(chans[l]);
            return b;
        };
        switch (node.kind) {
          case NodeKind::source: {
            sltf::TokenStream seed;
            if (node.name == "__start") {
                seed = sltf::StreamBuilder().d(0).b(1);
            } else {
                if (arg_idx >= args.size()) {
                    throw std::runtime_error(
                        "dataflow program expects more arguments");
                }
                seed = sltf::StreamBuilder()
                           .d(static_cast<Word>(args[arg_idx++]))
                           .b(1);
            }
            engine.make<dataflow::Source>(node.name, chans[node.outs[0]],
                                          std::move(seed));
            break;
          }
          case NodeKind::sink:
            engine.make<dataflow::Sink>(node.name, chans[node.ins[0]]);
            break;
          case NodeKind::fanout: {
            std::vector<Channel *> outs;
            for (int l : node.outs)
                outs.push_back(chans[l]);
            engine.make<dataflow::Fanout>(node.name, chans[node.ins[0]],
                                          std::move(outs));
            break;
          }
          case NodeKind::block: {
            const Node *n = &node;
            auto fn = [n, mem](const std::vector<Word> &in,
                               std::vector<Word> &out) {
                std::vector<Word> regs(n->nRegs, 0);
                for (size_t i = 0; i < in.size(); ++i)
                    regs[n->inputRegs[i]] = in[i];
                for (const auto &op : n->ops) {
                    if (op.guard >= 0 && regs[op.guard] == 0)
                        continue;
                    uint32_t v = detail::evalOp(op, regs, *mem);
                    if (op.dst >= 0)
                        regs[op.dst] = v;
                }
                for (int reg : n->outputRegs)
                    out.push_back(regs[reg]);
            };
            engine.make<dataflow::ElementWise>(
                node.name, bundleIn(0, node.ins.size()), bundleOut(),
                std::move(fn));
            break;
          }
          case NodeKind::counter:
            engine.make<dataflow::Counter>(
                node.name, chans[node.ins[0]], chans[node.ins[1]],
                chans[node.ins[2]], chans[node.outs[0]]);
            break;
          case NodeKind::broadcast:
            engine.make<dataflow::Broadcast>(
                node.name, chans[node.ins[0]], chans[node.ins[1]],
                chans[node.outs[0]], node.level);
            break;
          case NodeKind::reduce:
            engine.make<dataflow::Reduce>(
                node.name, chans[node.ins[0]], chans[node.outs[0]],
                [](Word a, Word b) { return a + b; }, node.init);
            break;
          case NodeKind::flatten:
            engine.make<dataflow::Flatten>(node.name, chans[node.ins[0]],
                                           chans[node.outs[0]]);
            break;
          case NodeKind::filter:
            engine.make<dataflow::Filter>(
                uname, chans[node.ins[0]],
                bundleIn(1, node.ins.size() - 1), bundleOut(),
                node.sense);
            break;
          case NodeKind::fwdMerge: {
            size_t half = node.outs.size();
            engine.make<dataflow::ForwardMerge>(
                node.name, bundleIn(0, half), bundleIn(half, half),
                bundleOut());
            break;
          }
          case NodeKind::fbMerge: {
            size_t half = node.outs.size();
            engine.make<dataflow::FwdBackMerge>(
                node.name, bundleIn(0, half), bundleIn(half, half),
                bundleOut());
            break;
          }
          case NodeKind::park: {
            // SRAM park around a replicate region. The FIFO and keyed
            // variants are both an identity on the value stream here —
            // a keyed park's arrival index IS the slot key, so the
            // associative semantics live entirely in KeyedRestore.
            auto fn = [mem](const std::vector<Word> &in,
                            std::vector<Word> &out) {
                ++mem->stats->sramAccesses;
                ++mem->stats->sramParkedElems;
                mem->parkSlot();
                out.push_back(in[0]);
            };
            engine.make<dataflow::ElementWise>(uname, bundleIn(0, 1),
                                               bundleOut(),
                                               std::move(fn));
            break;
          }
          case NodeKind::restore: {
            if (node.keyed) {
                engine.make<KeyedRestore>(uname, chans[node.ins[0]],
                                          chans[node.ins[1]],
                                          chans[node.outs[0]], mem);
                break;
            }
            // FIFO restore: an in-order pop, identity on the stream.
            auto fn = [mem](const std::vector<Word> &in,
                            std::vector<Word> &out) {
                ++mem->stats->sramAccesses;
                mem->releaseSlot();
                out.push_back(in[0]);
            };
            engine.make<dataflow::ElementWise>(uname, bundleIn(0, 1),
                                               bundleOut(),
                                               std::move(fn));
            break;
          }
          case NodeKind::ordinal: {
            // Tag each thread entering a replicate region with its
            // arrival index: the key the region's keyed parks store
            // under and the lane its restores look up by after the
            // region reorders the thread stream.
            auto fn = [count = Word{0}](const std::vector<Word> &,
                                        std::vector<Word> &out) mutable {
                out.push_back(count++);
            };
            engine.make<dataflow::ElementWise>(uname, bundleIn(0, 1),
                                               bundleOut(),
                                               std::move(fn));
            break;
          }
        }
    }

    stats.engineRounds = engine.run(max_rounds);
    detail::collectRunStats(engine, dfg.links.size(), stats);
    stats.sramParkedEnd = mem->parkedNow;
    return stats;
}

} // namespace graph
} // namespace revet
