#include "graph/bytecode.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "graph/exec_detail.hh"

namespace revet
{
namespace graph
{

using dataflow::allCanPush;
using dataflow::allHaveToken;
using dataflow::Bundle;
using dataflow::bundleHeadKind;
using dataflow::Channel;
using dataflow::pushBarrier;
using detail::MachineMemory;
using lang::normalize;
using sltf::Token;

const char *
toString(BcOp op)
{
    switch (op) {
      case BcOp::source: return "source";
      case BcOp::sink: return "sink";
      case BcOp::fanout: return "fanout";
      case BcOp::block: return "block";
      case BcOp::counter: return "counter";
      case BcOp::broadcast: return "broadcast";
      case BcOp::reduce: return "reduce";
      case BcOp::flatten: return "flatten";
      case BcOp::filter: return "filter";
      case BcOp::fwdMerge: return "fwdMerge";
      case BcOp::fbMerge: return "fbMerge";
      case BcOp::park: return "park";
      case BcOp::restore: return "restore";
      case BcOp::keyedRestore: return "keyedRestore";
      case BcOp::ordinal: return "ordinal";
    }
    return "?";
}

BytecodeProgram
BytecodeProgram::compile(const Dfg &dfg)
{
    BytecodeProgram out;
    out.numLinks = dfg.links.size();
    out.linkNames.reserve(dfg.links.size());
    for (const auto &link : dfg.links)
        out.linkNames.push_back(link.name);

    size_t arg_idx = 0;
    out.insts.reserve(dfg.nodes.size());
    for (const auto &node : dfg.nodes) {
        BcInst inst;
        inst.ins = static_cast<uint32_t>(out.chans.size());
        inst.nIns = static_cast<uint32_t>(node.ins.size());
        for (int l : node.ins)
            out.chans.push_back(static_cast<uint32_t>(l));
        inst.outs = static_cast<uint32_t>(out.chans.size());
        inst.nOuts = static_cast<uint32_t>(node.outs.size());
        for (int l : node.outs)
            out.chans.push_back(static_cast<uint32_t>(l));
        switch (node.kind) {
          case NodeKind::source:
            inst.op = BcOp::source;
            // Argument slots are assigned in source-node order.
            inst.arg = node.name == "__start"
                           ? -1
                           : static_cast<int32_t>(arg_idx++);
            break;
          case NodeKind::sink:
            inst.op = BcOp::sink;
            break;
          case NodeKind::fanout:
            inst.op = BcOp::fanout;
            break;
          case NodeKind::block:
            inst.op = BcOp::block;
            inst.nRegs = static_cast<uint32_t>(node.nRegs);
            inst.ops = static_cast<uint32_t>(out.ops.size());
            inst.nOps = static_cast<uint32_t>(node.ops.size());
            out.ops.insert(out.ops.end(), node.ops.begin(),
                           node.ops.end());
            inst.inRegs = static_cast<uint32_t>(out.regs.size());
            out.regs.insert(out.regs.end(), node.inputRegs.begin(),
                            node.inputRegs.end());
            inst.outRegs = static_cast<uint32_t>(out.regs.size());
            out.regs.insert(out.regs.end(), node.outputRegs.begin(),
                            node.outputRegs.end());
            break;
          case NodeKind::counter:
            inst.op = BcOp::counter;
            break;
          case NodeKind::broadcast:
            inst.op = BcOp::broadcast;
            inst.level = node.level;
            break;
          case NodeKind::reduce:
            inst.op = BcOp::reduce;
            inst.init = node.init;
            break;
          case NodeKind::flatten:
            inst.op = BcOp::flatten;
            break;
          case NodeKind::filter:
            inst.op = BcOp::filter;
            inst.sense = node.sense;
            break;
          case NodeKind::fwdMerge:
            inst.op = BcOp::fwdMerge;
            break;
          case NodeKind::fbMerge:
            inst.op = BcOp::fbMerge;
            break;
          case NodeKind::park:
            inst.op = BcOp::park;
            break;
          case NodeKind::restore:
            inst.op = node.keyed ? BcOp::keyedRestore : BcOp::restore;
            break;
          case NodeKind::ordinal:
            inst.op = BcOp::ordinal;
            break;
        }
        inst.name = static_cast<uint32_t>(out.names.size());
        out.names.push_back(std::string(toString(inst.op)) + "(" +
                            node.name + "#" + std::to_string(node.id) +
                            ")");
        out.insts.push_back(inst);
    }
    out.numArgs = arg_idx;
    return out;
}

namespace
{

/**
 * Evaluate a memory op (SRAM heap, DRAM image, rmw) over @p regs,
 * updating @p mem and its stats, or throw the division/remainder by
 * zero that graph::evalPureOp declines — a machine-model violation
 * here. Pure ALU ops never reach this: stepBlock dispatches them
 * through evalPureOp directly.
 */
Word
evalMemOp(const BlockOp &op, const std::vector<Word> &regs,
          MachineMemory &mem)
{
    auto A = [&] { return regs[op.a]; };
    auto B = [&] { return regs[op.b]; };
    auto C = [&] { return regs[op.c]; };
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
        break; // pure ops are handled by evalPureOp
    }
    return 0;
}

/**
 * Post-run bookkeeping: copy the engine's scheduler counters into
 * @p stats, throw the stall report if the network failed to drain, and
 * harvest per-link traffic/value watches (the engine's first
 * @p num_links channels are the graph links, in link-id order).
 */
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

/**
 * One bytecode instruction running as an engine process: the Section
 * III-B streaming primitive its opcode names.
 *
 * Every opcode keeps the two machine-model rules:
 *
 *  1. every barrier that enters a primitive exits exactly once, in
 *     order (or is transformed by the opcode's level rule);
 *  2. thread data is never reordered across barriers (only between
 *     them).
 *
 * stepOnce() is a single switch over the opcode. Channel bundles and
 * the block register file are resolved/allocated once at bind time
 * and reused, and a block firing is a straight loop over the
 * program's flat BlockOp table (no per-firing allocation).
 */
class BytecodeProc final : public dataflow::Process
{
  public:
    BytecodeProc(const BytecodeProgram &prog, const BcInst &inst,
                 const std::vector<Channel *> &chans, MachineMemory &mem)
        : Process(prog.names[inst.name]), inst_(inst), mem_(mem)
    {
        ins_.reserve(inst.nIns);
        for (uint32_t i = 0; i < inst.nIns; ++i)
            ins_.push_back(chans[prog.chans[inst.ins + i]]);
        outs_.reserve(inst.nOuts);
        for (uint32_t i = 0; i < inst.nOuts; ++i)
            outs_.push_back(chans[prog.chans[inst.outs + i]]);
        declareIo(ins_, outs_);
        switch (inst.op) {
          case BcOp::block:
            regs_.resize(inst.nRegs, 0);
            ops_ = prog.ops.data() + inst.ops;
            in_regs_ = prog.regs.data() + inst.inRegs;
            out_regs_ = prog.regs.data() + inst.outRegs;
            break;
          case BcOp::fwdMerge:
          case BcOp::fbMerge:
            a_.assign(ins_.begin(), ins_.begin() + inst.nOuts);
            b_.assign(ins_.begin() + inst.nOuts, ins_.end());
            break;
          default:
            break;
        }
        BytecodeProc::reset();
    }

    /**
     * Re-arm for a fresh run: return every per-run member — source
     * cursor, counter/merge/reduce mode machines, keyed-park table,
     * ordinal counter — to its initial state. The structural wiring
     * (bundles, block op/reg pointers) set up in the constructor is
     * untouched.
     */
    void
    reset() override
    {
        pos_ = 0;
        cmode_ = CtrMode::idle;
        cur_ = lim_ = stride_ = 0;
        acc_ = inst_.init;
        in_group_ = false;
        mmode_ = MergeMode::flow;
        pending_level_ = 0;
        back_data_since_barrier_ = false;
        pending_echoes_.clear();
        buffered_.clear();
        next_ordinal_ = 0;
        value_batches_ = 0;
        key_batches_ = 0;
        count_ = 0;
    }

    bool
    stepOnce() override
    {
        switch (inst_.op) {
          case BcOp::source: return stepSource();
          case BcOp::sink: return stepSink();
          case BcOp::fanout: return stepFanout();
          case BcOp::block: return stepBlock();
          case BcOp::counter: return stepCounter();
          case BcOp::broadcast: return stepBroadcast();
          case BcOp::reduce: return stepReduce();
          case BcOp::flatten: return stepFlatten();
          case BcOp::filter: return stepFilter();
          case BcOp::fwdMerge: return stepFwdMerge();
          case BcOp::fbMerge: return stepFbMerge();
          case BcOp::park: return stepPark();
          case BcOp::restore: return stepRestore();
          case BcOp::keyedRestore: return stepKeyedRestore();
          case BcOp::ordinal: return stepOrdinal();
        }
        return false;
    }

    bool
    idle() const override
    {
        switch (inst_.op) {
          case BcOp::source:
            return pos_ == kSourceTokens;
          case BcOp::counter:
            return cmode_ == CtrMode::idle && Process::idle();
          case BcOp::reduce:
            return !in_group_ && Process::idle();
          case BcOp::fbMerge:
            return mmode_ == MergeMode::flow && pending_echoes_.empty() &&
                   Process::idle();
          default:
            // Leftover keyedRestore values are parks of threads that
            // died inside the region mid-batch: quiescent, not a stall.
            return Process::idle();
        }
    }

    std::string
    stallReason() const override
    {
        switch (inst_.op) {
          case BcOp::source:
            return name() + ": " +
                   std::to_string(kSourceTokens - pos_) +
                   " tokens pending; " + ioStallDetail();
          case BcOp::counter: {
            const char *mode = cmode_ == CtrMode::idle  ? "idle"
                               : cmode_ == CtrMode::run ? "run"
                                                        : "term";
            return name() + ": mode=" + mode + "; " + ioStallDetail();
          }
          case BcOp::reduce: {
            std::string detail = ioStallDetail();
            if (in_group_)
                detail = "partial reduction buffered (awaiting the "
                         "group's closing barrier); " + detail;
            return name() + ": " + detail;
          }
          case BcOp::fbMerge: {
            std::ostringstream oss;
            oss << name() << ": mode="
                << (mmode_ == MergeMode::flow ? "flow" : "drain");
            if (mmode_ == MergeMode::drain)
                oss << " (forward input stalled, draining backedge "
                       "toward B" << pending_level_ + 1 << ")";
            if (!pending_echoes_.empty())
                oss << " awaiting " << pending_echoes_.size()
                    << " backedge echo(es) of B"
                    << pending_echoes_.front();
            oss << "; " << ioStallDetail();
            return oss.str();
          }
          case BcOp::keyedRestore: {
            std::string detail = ioStallDetail();
            if (!ins_[1]->empty() && ins_[1]->front().isData()) {
                detail = "awaiting parked value for ordinal " +
                    std::to_string(ins_[1]->front().word()) + "; " +
                    detail;
            }
            return name() + ": " + std::to_string(buffered_.size()) +
                " value(s) parked; " + detail;
          }
          default:
            return Process::stallReason();
        }
    }

  private:
    // ---- per-opcode steps ----

    /** Program entry: one thread carrying main's argument (or 0 for
     * `__start`), then its group's closing B1. */
    bool
    stepSource()
    {
        Channel *out = outs_[0];
        if (pos_ == kSourceTokens || !out->canPush())
            return false;
        if (pos_ == 0) {
            const Word arg = inst_.arg < 0
                                 ? 0
                                 : static_cast<Word>(
                                       (*mem_.args)[inst_.arg]);
            out->push(Token::data(arg));
        } else {
            out->push(Token::barrier(1));
        }
        ++pos_;
        return true;
    }

    /** Discards a dangling stream (nothing reads it back); traffic
     * counting is unaffected. */
    bool
    stepSink()
    {
        if (ins_[0]->empty())
            return false;
        ins_[0]->pop();
        return true;
    }

    /** Copies one input stream to every output (link fan-out). */
    bool
    stepFanout()
    {
        if (ins_[0]->empty())
            return false;
        for (Channel *out : outs_) {
            if (!out->canPush())
                return false;
        }
        Token tok = ins_[0]->pop();
        for (Channel *out : outs_)
            out->push(tok);
        return true;
    }

    /** Element-wise context (Section III-B(a)): pops one aligned token
     * from every input; data runs the block body, barriers (which must
     * agree across inputs) pass to every output. Ordering, hierarchy
     * and thread count never change. */
    bool
    stepBlock()
    {
        if (!allHaveToken(ins_) || !allCanPush(outs_))
            return false;
        const int kind = bundleHeadKind(ins_);
        if (kind > 0) {
            for (Channel *ch : ins_)
                ch->pop();
            pushBarrier(outs_, kind);
            return true;
        }
        // One firing over the preallocated register file: fresh
        // zero-init (reads-before-writes yield 0), inputs landed by the
        // lane map, then a straight run over this block's slice of the
        // flat op table.
        std::fill(regs_.begin(), regs_.end(), 0);
        for (size_t i = 0; i < ins_.size(); ++i)
            regs_[in_regs_[i]] = ins_[i]->pop().word();
        for (uint32_t i = 0; i < inst_.nOps; ++i) {
            const BlockOp &op = ops_[i];
            if (op.guard >= 0 && regs_[op.guard] == 0)
                continue;
            // ALU ops go through evalPureOp (the single home of
            // arithmetic semantics, shared with the constant folder);
            // evalMemOp takes the ones it declines — memory traffic
            // and the div/rem-by-zero throw.
            Word v;
            const Word a = op.a >= 0 ? regs_[op.a] : 0;
            const Word b = op.b >= 0 ? regs_[op.b] : 0;
            const Word c = op.c >= 0 ? regs_[op.c] : 0;
            if (!evalPureOp(op, a, b, c, v))
                v = evalMemOp(op, regs_, mem_);
            if (op.dst >= 0)
                regs_[op.dst] = v;
        }
        for (size_t i = 0; i < outs_.size(); ++i)
            outs_[i]->push(Token::data(regs_[out_regs_[i]]));
        return true;
    }

    /** Counter (expansion): maps each (min, max, step) triple to the
     * range [min, max) and adds one hierarchy level; incoming barriers
     * are raised one level. Empty ranges still emit their explicit
     * Omega(1) so empty groups stay distinct. */
    bool
    stepCounter()
    {
        Channel *out = outs_[0];
        if (cmode_ == CtrMode::idle) {
            if (!allHaveToken(ins_))
                return false;
            int kind = bundleHeadKind(ins_);
            if (kind > 0) {
                if (!out->canPush())
                    return false;
                for (Channel *ch : ins_)
                    ch->pop();
                out->push(Token::barrier(kind + 1));
                return true;
            }
            cur_ = ins_[0]->pop().asInt();
            lim_ = ins_[1]->pop().asInt();
            stride_ = ins_[2]->pop().asInt();
            if (stride_ == 0)
                throw std::runtime_error(name() +
                                         ": zero counter stride");
            cmode_ = CtrMode::run;
            return true;
        }
        if (cmode_ == CtrMode::run) {
            bool live = stride_ > 0 ? cur_ < lim_ : cur_ > lim_;
            if (!live) {
                cmode_ = CtrMode::term;
            } else {
                if (!out->canPush())
                    return false;
                out->push(Token::data(static_cast<Word>(
                    static_cast<uint64_t>(cur_) & 0xffffffffu)));
                cur_ += stride_;
                return true;
            }
        }
        // CtrMode::term: emit the explicit group terminator.
        if (!out->canPush())
            return false;
        out->push(Token::barrier(1));
        cmode_ = CtrMode::idle;
        return true;
    }

    /** Broadcast (expansion, Section III-B(b)): repeats each element
     * of the shallow stream (ins_[1]) across one dim-`level` group of
     * the deep structure stream (ins_[0]). The output mirrors the deep
     * stream's structure with its data replaced by the current shallow
     * element; the deep stream is consumed. */
    bool
    stepBroadcast()
    {
        Channel *deep = ins_[0];
        Channel *shallow = ins_[1];
        Channel *out = outs_[0];
        if (deep->empty() || !out->canPush())
            return false;
        const Token &head = deep->front();
        if (head.isData()) {
            if (shallow->empty())
                return false;
            if (!shallow->front().isData()) {
                throw std::runtime_error(
                    name() + ": shallow stream has a barrier where the "
                             "deep structure still carries data");
            }
            deep->pop();
            out->push(Token::data(shallow->front().word()));
            return true;
        }
        int j = head.barrierLevel();
        if (j < inst_.level) {
            // Barrier below the broadcast level: structure internal to
            // one broadcast element; pass through.
            deep->pop();
            out->push(Token::barrier(j));
            return true;
        }
        if (shallow->empty())
            return false;
        const Token &sh = shallow->front();
        if (j == inst_.level) {
            // One broadcast group ends: retire the shallow element.
            if (!sh.isData())
                throw std::runtime_error(name() +
                                         ": expected shallow data");
            deep->pop();
            shallow->pop();
            out->push(Token::barrier(j));
            return true;
        }
        // j > level: the shallow stream's own barrier must match, one
        // level shallower.
        if (!sh.isBarrier() || sh.barrierLevel() != j - inst_.level) {
            throw std::runtime_error(
                name() + ": shallow barrier mismatch at deep B" +
                std::to_string(j));
        }
        deep->pop();
        shallow->pop();
        out->push(Token::barrier(j));
        return true;
    }

    /** Reduction: sums the last tensor dimension into one element and
     * lowers every barrier by one level. Empty groups yield the initial
     * value, preserving [[]] -> [0], [[],[]] -> [0,0], [] -> []. */
    bool
    stepReduce()
    {
        Channel *in = ins_[0];
        Channel *out = outs_[0];
        if (in->empty())
            return false;
        const Token &head = in->front();
        if (head.isData()) {
            acc_ += head.word();
            in_group_ = true;
            in->pop();
            return true;
        }
        if (!out->canPush())
            return false;
        int j = head.barrierLevel();
        in->pop();
        if (j == 1) {
            out->push(Token::data(acc_));
            acc_ = inst_.init;
            in_group_ = false;
        } else {
            out->push(Token::barrier(j - 1));
        }
        return true;
    }

    /** Flatten / hierarchy strip: removes one hierarchy level without
     * touching elements — Omega(1) disappears, Omega(j) becomes
     * Omega(j-1). Used for fork and for edges leaving a while body. */
    bool
    stepFlatten()
    {
        Channel *in = ins_[0];
        Channel *out = outs_[0];
        if (in->empty())
            return false;
        const Token &head = in->front();
        if (head.isBarrier() && head.barrierLevel() == 1) {
            in->pop(); // the stripped level vanishes
            return true;
        }
        if (!out->canPush())
            return false;
        Token tok = in->pop();
        if (tok.isBarrier())
            out->push(Token::barrier(tok.barrierLevel() - 1));
        else
            out->push(tok);
        return true;
    }

    /** Filter (Section III-B(c)): forwards a thread's bundle only when
     * its predicate matches `sense`; barriers pass through. An if
     * statement uses two filters of opposite sense. */
    bool
    stepFilter()
    {
        // ins_[0] is the predicate; the thread bundle follows.
        if (!allHaveToken(ins_))
            return false;
        const int kind = bundleHeadKind(ins_);
        if (kind > 0) {
            if (!allCanPush(outs_))
                return false;
            for (Channel *ch : ins_)
                ch->pop();
            pushBarrier(outs_, kind);
            return true;
        }
        bool keep = (ins_[0]->front().word() != 0) == inst_.sense;
        if (keep && !allCanPush(outs_))
            return false;
        ins_[0]->pop();
        scratch_.clear();
        for (size_t i = 1; i < ins_.size(); ++i)
            scratch_.push_back(ins_[i]->pop());
        if (keep) {
            for (size_t i = 0; i < outs_.size(); ++i)
                outs_[i]->push(scratch_[i]);
        }
        return true;
    }

    /** Forward merge (if-join): interleaves two forward branches,
     * eagerly within the lowest dimension. A side that reaches a
     * barrier stalls until the other presents the matching barrier;
     * the pair leaves as one barrier. Bundles merge atomically. */
    bool
    stepFwdMerge()
    {
        // Snapshot each side's head exactly once (-1 = no token yet): a
        // token that lands mid-step is next step's work.
        const int ka = allHaveToken(a_) ? bundleHeadKind(a_) : -1;
        const int kb = allHaveToken(b_) ? bundleHeadKind(b_) : -1;
        if (ka == 0 || kb == 0) {
            if (!allCanPush(outs_))
                return false;
            const Bundle &side = ka == 0 ? a_ : b_;
            scratch_.clear();
            for (Channel *ch : side)
                scratch_.push_back(ch->pop());
            for (size_t i = 0; i < outs_.size(); ++i)
                outs_[i]->push(scratch_[i]);
            return true;
        }
        // No data at either head: both must present the matching
        // barrier.
        if (ka < 0 || kb < 0)
            return false;
        if (ka != kb) {
            throw std::runtime_error(
                name() + ": branch barrier mismatch B" +
                std::to_string(ka) + " vs B" + std::to_string(kb));
        }
        if (!allCanPush(outs_))
            return false;
        for (Channel *ch : a_)
            ch->pop();
        for (Channel *ch : b_)
            ch->pop();
        pushBarrier(outs_, ka);
        return true;
    }

    /**
     * Forward-backward merge: the while-loop header (Section
     * III-B(d)).
     *
     * Forward data flows until a forward barrier Omega(k) arrives; then
     * the merge emits the loop-control Omega(1), stalls the forward
     * input, and drains: every backedge group that still contains
     * threads is passed through and re-terminated with Omega(1); a
     * backedge group that arrives empty means the body has fully
     * drained, so the merge emits Omega(k+1) into the body (the
     * loop-exit edge's flatten lowers it back to Omega(k)) and
     * unstalls the forward input. The copy of that final barrier that
     * comes back around the backedge is swallowed as an echo.
     *
     * Batching is deterministic: before the flush only the forward
     * input flows (recirculating threads wait in the backedge for the
     * drain phase), so batch structure and link traffic depend only on
     * the input streams, never on scheduling order. The hardware merge
     * additionally free-runs recirculators into the current batch,
     * which overlaps iterations but cannot change results.
     */
    bool
    stepFbMerge()
    {
        // Snapshot the backedge head exactly once for the whole step
        // (-1 = no token yet): the echo check, the flow-mode sanity
        // check, and the drain all branch on this one observation.
        const int bk = allHaveToken(b_) ? bundleHeadKind(b_) : -1;

        // The released flush's barrier recirculates through the body
        // as an echo; swallow it wherever it surfaces.
        if (bk > 0 && !pending_echoes_.empty() &&
            bk == pending_echoes_.front()) {
            for (Channel *ch : b_)
                ch->pop();
            pending_echoes_.pop_front();
            return true;
        }

        if (mmode_ == MergeMode::flow) {
            // Only the forward input flows before the flush: the
            // batching discipline that keeps link traffic
            // schedule-independent.
            if (bk > 0) {
                throw std::runtime_error(
                    name() + ": unexpected backedge barrier B" +
                    std::to_string(bk) + " outside a flush");
            }
            if (!allHaveToken(a_) || !allCanPush(outs_))
                return false;
            int kind = bundleHeadKind(a_);
            if (kind == 0) {
                scratch_.clear();
                for (Channel *ch : a_)
                    scratch_.push_back(ch->pop());
                for (size_t i = 0; i < outs_.size(); ++i)
                    outs_[i]->push(scratch_[i]);
                return true;
            }
            // A forward barrier: flush the loop. Terminate the batch
            // with the loop-control Omega(1) and drain.
            for (Channel *ch : a_)
                ch->pop();
            pushBarrier(outs_, 1);
            pending_level_ = kind;
            back_data_since_barrier_ = false;
            mmode_ = MergeMode::drain;
            return true;
        }

        // MergeMode::drain: forward input stalled; iterate the body dry.
        if (bk < 0)
            return false;
        if (bk == 0) {
            if (!allCanPush(outs_))
                return false;
            scratch_.clear();
            for (Channel *ch : b_)
                scratch_.push_back(ch->pop());
            for (size_t i = 0; i < outs_.size(); ++i)
                outs_[i]->push(scratch_[i]);
            back_data_since_barrier_ = true;
            return true;
        }
        if (bk != 1) {
            throw std::runtime_error(name() + ": backedge barrier B" +
                                     std::to_string(bk) +
                                     " during drain (expected B1)");
        }
        if (!allCanPush(outs_))
            return false;
        for (Channel *ch : b_)
            ch->pop();
        if (back_data_since_barrier_) {
            // Threads are still circulating: close this iteration
            // batch.
            pushBarrier(outs_, 1);
            back_data_since_barrier_ = false;
            return true;
        }
        // Two barriers in a row: the body is empty. Release the flush.
        pushBarrier(outs_, pending_level_ + 1);
        pending_echoes_.push_back(pending_level_ + 1);
        mmode_ = MergeMode::flow;
        return true;
    }

    /** SRAM park around a replicate region: identity on the stream,
     * counting one occupied slot per element. A keyed park is the same
     * (its arrival index is the slot key); the associative semantics
     * live in keyedRestore. */
    bool
    stepPark()
    {
        Channel *in = ins_[0];
        Channel *out = outs_[0];
        if (in->empty() || !out->canPush())
            return false;
        Token tok = in->pop();
        if (tok.isData()) {
            ++mem_.stats->sramAccesses;
            ++mem_.stats->sramParkedElems;
            mem_.parkSlot();
        }
        out->push(tok);
        return true;
    }

    bool
    stepRestore()
    {
        // FIFO restore: an in-order pop, identity on the stream.
        Channel *in = ins_[0];
        Channel *out = outs_[0];
        if (in->empty() || !out->canPush())
            return false;
        Token tok = in->pop();
        if (tok.isData()) {
            ++mem_.stats->sramAccesses;
            mem_.releaseSlot();
        }
        out->push(tok);
        return true;
    }

    /**
     * Associative read-back side of an ordinal-keyed park/restore pair.
     *
     * The park forwards the value stream (ins_[0]) in region-entry
     * order; this buffers each arriving value under its arrival index
     * (the same numbering the region-entry ordinal hands out) and emits
     * values in the order their keys appear on the key stream
     * (ins_[1]) — the ordinal lane that rode the region's bundles,
     * i.e. region-exit order. The output's barrier structure mirrors
     * the key stream (the value stream's barriers carry entry-order
     * structure and are dropped); a key whose value has not arrived
     * yet simply waits.
     *
     * Slot reclamation: values whose threads died inside the region
     * (exit/return) are never looked up, so waiting for a lookup would
     * hold their slots forever. Both streams of a keyed pair carry the
     * same barrier structure — keyed parking refuses thread-multiplying
     * region bodies (counter/broadcast/reduce force a fork refusal),
     * and every remaining in-region primitive conserves barriers end
     * to end (flattens inside a while body cancel against the B1s its
     * fbMerge inserts) — so barrier #k on the value stream and barrier
     * #k on the key stream delimit the same batch of threads. When the
     * key stream closes batch k, every still-buffered value tagged with
     * batch k belongs to a dead thread and its slot is freed
     * (bookkeeping only: the MU just forgets the slot, so no
     * sramAccesses are counted).
     */
    bool
    stepKeyedRestore()
    {
        Channel *value = ins_[0];
        Channel *key = ins_[1];
        Channel *out = outs_[0];
        if (!value->empty()) {
            Token tok = value->pop();
            if (tok.isBarrier()) {
                ++value_batches_;
                return true;
            }
            if (value_batches_ < key_batches_) {
                // Dead on arrival: the value's batch already closed on
                // the key side, so no key can ever look it up.
                mem_.releaseSlot();
            } else {
                buffered_[next_ordinal_] = {tok.word(), value_batches_};
            }
            ++next_ordinal_;
            return true;
        }
        if (key->empty() || !out->canPush())
            return false;
        const Token &head = key->front();
        if (head.isBarrier()) {
            out->push(key->pop());
            ++key_batches_;
            reclaimClosedBatches();
            return true;
        }
        auto it = buffered_.find(head.word());
        if (it == buffered_.end())
            return false; // the key ran ahead of its parked value
        key->pop();
        ++mem_.stats->sramAccesses;
        mem_.releaseSlot();
        out->push(Token::data(it->second.value));
        buffered_.erase(it);
        return true;
    }

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
            mem_.releaseSlot();
    }

    bool
    stepOrdinal()
    {
        // Tag each thread entering a replicate region with its arrival
        // index (the keyed-park key); barriers pass through.
        Channel *in = ins_[0];
        Channel *out = outs_[0];
        if (in->empty() || !out->canPush())
            return false;
        Token tok = in->pop();
        if (tok.isData())
            out->push(Token::data(count_++));
        else
            out->push(tok);
        return true;
    }

    struct Parked
    {
        Word value = 0;
        /** Value-stream barrier count at arrival: which batch the
         * value's thread entered the region in. */
        uint64_t batch = 0;
    };

    enum class CtrMode : uint8_t { idle, run, term };
    enum class MergeMode : uint8_t { flow, drain };

    /** A source emits d(arg) then B1. */
    static constexpr size_t kSourceTokens = 2;

    const BcInst &inst_;
    MachineMemory &mem_;
    Bundle ins_;
    Bundle outs_;
    Bundle a_; ///< merges: forward / A side of ins_
    Bundle b_; ///< merges: backedge / B side of ins_
    std::vector<Token> scratch_; ///< reused bundle-transfer buffer

    // source
    size_t pos_ = 0;
    // block
    std::vector<Word> regs_;
    const BlockOp *ops_ = nullptr;
    const int32_t *in_regs_ = nullptr;
    const int32_t *out_regs_ = nullptr;
    // counter
    CtrMode cmode_ = CtrMode::idle;
    int64_t cur_ = 0;
    int64_t lim_ = 0;
    int64_t stride_ = 0;
    // reduce
    Word acc_ = 0;
    bool in_group_ = false;
    // fbMerge
    MergeMode mmode_ = MergeMode::flow;
    int pending_level_ = 0;
    bool back_data_since_barrier_ = false;
    std::deque<int> pending_echoes_;
    // keyedRestore
    std::unordered_map<Word, Parked> buffered_;
    Word next_ordinal_ = 0;
    uint64_t value_batches_ = 0;
    uint64_t key_batches_ = 0;
    // ordinal
    Word count_ = 0;
};

} // namespace

dataflow::Process *
instantiate(dataflow::Engine &engine, const BytecodeProgram &prog,
            const BcInst &inst, const std::vector<Channel *> &chans,
            MachineMemory &mem)
{
    return engine.make<BytecodeProc>(prog, inst, chans, mem);
}

std::vector<dataflow::Process *>
instantiateAll(dataflow::Engine &engine, const BytecodeProgram &prog,
               MachineMemory &mem)
{
    std::vector<Channel *> chans(prog.numLinks, nullptr);
    for (size_t i = 0; i < prog.numLinks; ++i)
        chans[i] = engine.channel(prog.linkNames[i]);
    std::vector<dataflow::Process *> procs;
    procs.reserve(prog.insts.size());
    for (const BcInst &inst : prog.insts)
        procs.push_back(instantiate(engine, prog, inst, chans, mem));
    return procs;
}

/**
 * Everything one context instantiates once and rebinds per request:
 * the machine memory whose DRAM/stats/args pointers move from request
 * to request, and the engine, which owns the channels and one process
 * per instruction. Declared in that order so the memory outlives the
 * processes that reference it.
 */
struct ExecutionContext::Impl
{
    const BytecodeProgram &prog;
    MachineMemory mem;
    dataflow::Engine engine;
    uint64_t runs = 0;
    bool poisoned = false;

    explicit Impl(const BytecodeProgram &p) : prog(p)
    {
        instantiateAll(engine, prog, mem);
    }
};

ExecutionContext::ExecutionContext(const BytecodeProgram &prog)
    : impl_(new Impl(prog))
{}

ExecutionContext::~ExecutionContext() = default;

const BytecodeProgram &
ExecutionContext::program() const
{
    return impl_->prog;
}

uint64_t
ExecutionContext::runsServed() const
{
    return impl_->runs;
}

bool
ExecutionContext::poisoned() const
{
    return impl_->poisoned;
}

ExecStats
ExecutionContext::run(lang::DramImage &dram,
                      const std::vector<int32_t> &args,
                      uint64_t max_rounds)
{
    Impl &im = *impl_;
    if (args.size() < im.prog.numArgs)
        throw std::runtime_error("dataflow program expects more arguments");

    ExecStats stats;
    stats.graphNodes = im.prog.insts.size();
    stats.graphLinks = im.prog.numLinks;

    // Full per-request reset *before* the run, so a request never
    // inherits residue: memory pointed at this request's
    // image/stats/args, channels to empty, every instruction's mode
    // machines re-armed.
    im.mem.rebind(dram, stats, args);
    im.mem.beginRun();
    im.engine.reset();

    // Pessimistic: cleared only when the run reaches quiescence. A
    // throw below (livelock, machine-model violation) leaves channel
    // and memory state mid-request; the reset above makes the *next*
    // run safe regardless, but servers read this to retire the context.
    im.poisoned = true;
    stats.engineRounds = im.engine.run(max_rounds);
    collectRunStats(im.engine, im.prog.numLinks, stats);
    stats.sramParkedEnd = im.mem.parkedNow;
    im.poisoned = false;
    ++im.runs;
    return stats;
}

ExecStats
execute(const BytecodeProgram &prog, lang::DramImage &dram,
        const std::vector<int32_t> &args, uint64_t max_rounds)
{
    // One-shot path: a throwaway context, so the run sequence has one
    // implementation for both the one-shot and serving paths.
    ExecutionContext ctx(prog);
    return ctx.run(dram, args, max_rounds);
}

} // namespace graph
} // namespace revet
