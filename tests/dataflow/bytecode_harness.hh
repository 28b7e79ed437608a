/**
 * @file
 * Runs bytecode instructions on hand-built SLTF streams.
 *
 * A BytecodeHarness builds a tiny Dfg one node at a time over channels
 * the caller creates (with the capacities it chooses), compiles it with
 * BytecodeProgram::compile, and instantiates every instruction into its
 * own Engine through graph::instantiate — the path every
 * ExecutionContext takes. StreamSource and StreamSink inject and
 * capture the hand-built streams; they are the only dataflow::Process
 * subclasses outside the bytecode executor. processes() lists every
 * process the harness made, so a test can drive them under a
 * schedule of its own (shuffled_schedule.hh) instead of engine.run().
 *
 * Typical use:
 * @code
 *   BytecodeHarness h;
 *   auto *in = h.channel("in");
 *   auto *out = h.channel("out");
 *   h.inject("src", in, StreamBuilder().d(1).b(1).b(2));
 *   h.flatten("flat", in, out);
 *   auto *got = h.capture("sink", out);
 *   h.build();
 *   h.engine.run();
 * @endcode
 */

#ifndef REVET_TESTS_DATAFLOW_BYTECODE_HARNESS_HH
#define REVET_TESTS_DATAFLOW_BYTECODE_HARNESS_HH

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/bytecode.hh"
#include "graph/exec_detail.hh"
#include "sltf/token.hh"

namespace revet
{
namespace bytecode_test
{

using dataflow::Channel;
using graph::BlockOp;
using graph::Node;
using graph::NodeKind;
using graph::OpKind;
using sltf::TokenStream;
using sltf::Word;

/** Pushes a fixed, hand-built token stream into a channel. */
class StreamSource final : public dataflow::Process
{
  public:
    StreamSource(std::string name, Channel *out, TokenStream stream)
        : Process(std::move(name)), out_(out), stream_(std::move(stream))
    {
        declareIo({}, {out_});
    }

    bool
    stepOnce() override
    {
        if (done() || !out_->canPush())
            return false;
        out_->push(stream_[pos_++]);
        return true;
    }

    void reset() override { pos_ = 0; }
    bool done() const { return pos_ == stream_.size(); }
    bool idle() const override { return done(); }

    std::string
    stallReason() const override
    {
        return name() + ": " + std::to_string(stream_.size() - pos_) +
               " tokens pending; " + ioStallDetail();
    }

  private:
    Channel *out_;
    TokenStream stream_;
    size_t pos_ = 0;
};

/** Collects every token arriving on a channel. */
class StreamSink final : public dataflow::Process
{
  public:
    StreamSink(std::string name, Channel *in)
        : Process(std::move(name)), in_(in)
    {
        declareIo({in_}, {});
    }

    bool
    stepOnce() override
    {
        if (in_->empty())
            return false;
        collected_.push_back(in_->pop());
        return true;
    }

    void reset() override { collected_.clear(); }
    const TokenStream &collected() const { return collected_; }

  private:
    Channel *in_;
    TokenStream collected_;
};

/** Block op `dst = kind(a, b, c)` over block registers. */
inline BlockOp
op(OpKind kind, int dst, int a = -1, int b = -1, int c = -1)
{
    BlockOp o;
    o.kind = kind;
    o.dst = dst;
    o.a = a;
    o.b = b;
    o.c = c;
    return o;
}

/** Block op `dst = imm`. */
inline BlockOp
cnst(int dst, Word imm)
{
    BlockOp o = op(OpKind::cnst, dst);
    o.imm = imm;
    return o;
}

/** A tiny bytecode program over caller-built channels. */
class BytecodeHarness
{
  public:
    BytecodeHarness()
    {
        mem_.stats = &stats;
        mem_.args = &args;
    }

    BytecodeHarness(const BytecodeHarness &) = delete;
    BytecodeHarness &operator=(const BytecodeHarness &) = delete;

    /** A graph link and the engine channel carrying it. */
    Channel *
    channel(const std::string &name = "",
            size_t capacity = Channel::unbounded)
    {
        graph_.newLink(name);
        chans_.push_back(engine.channel(name, capacity));
        return chans_.back();
    }

    /** A node of @p kind reading @p ins and writing @p outs (link order
     * follows the Dfg conventions in graph/dfg.hh). */
    Node &
    node(NodeKind kind, const std::string &name,
         const std::vector<Channel *> &ins,
         const std::vector<Channel *> &outs)
    {
        Node &n = graph_.newNode(kind, name);
        for (Channel *ch : ins)
            graph_.connectIn(n.id, linkOf(ch));
        for (Channel *ch : outs)
            graph_.connectOut(n.id, linkOf(ch));
        return n;
    }

    /** A block whose inputs land in registers 0..ins-1 and whose
     * outputs read @p out_regs. */
    Node &
    block(const std::string &name, const std::vector<Channel *> &ins,
          const std::vector<Channel *> &outs, std::vector<BlockOp> ops,
          std::vector<int> out_regs)
    {
        Node &n = node(NodeKind::block, name, ins, outs);
        int regs = static_cast<int>(ins.size());
        for (size_t i = 0; i < ins.size(); ++i)
            n.inputRegs.push_back(static_cast<int>(i));
        for (const BlockOp &o : ops)
            regs = std::max({regs, o.dst + 1, o.a + 1, o.b + 1, o.c + 1});
        for (int r : out_regs)
            regs = std::max(regs, r + 1);
        n.ops = std::move(ops);
        n.outputRegs = std::move(out_regs);
        n.nRegs = regs;
        return n;
    }

    void
    fanout(const std::string &name, Channel *in,
           const std::vector<Channel *> &outs)
    {
        node(NodeKind::fanout, name, {in}, outs);
    }

    void
    counter(const std::string &name, Channel *min, Channel *max,
            Channel *step, Channel *out)
    {
        node(NodeKind::counter, name, {min, max, step}, {out});
    }

    void
    broadcast(const std::string &name, Channel *deep, Channel *shallow,
              Channel *out, int level = 1)
    {
        node(NodeKind::broadcast, name, {deep, shallow}, {out}).level =
            level;
    }

    void
    reduce(const std::string &name, Channel *in, Channel *out,
           Word init = 0)
    {
        node(NodeKind::reduce, name, {in}, {out}).init = init;
    }

    void
    flatten(const std::string &name, Channel *in, Channel *out)
    {
        node(NodeKind::flatten, name, {in}, {out});
    }

    void
    filter(const std::string &name, Channel *pred,
           const std::vector<Channel *> &ins,
           const std::vector<Channel *> &outs, bool sense)
    {
        std::vector<Channel *> all{pred};
        all.insert(all.end(), ins.begin(), ins.end());
        node(NodeKind::filter, name, all, outs).sense = sense;
    }

    void
    fwdMerge(const std::string &name, const std::vector<Channel *> &a,
             const std::vector<Channel *> &b,
             const std::vector<Channel *> &outs)
    {
        node(NodeKind::fwdMerge, name, concat(a, b), outs);
    }

    void
    fbMerge(const std::string &name, const std::vector<Channel *> &fwd,
            const std::vector<Channel *> &back,
            const std::vector<Channel *> &outs)
    {
        node(NodeKind::fbMerge, name, concat(fwd, back), outs);
    }

    /** Inject @p stream into @p out (test-side endpoint). */
    StreamSource *
    inject(const std::string &name, Channel *out, TokenStream stream)
    {
        return track(
            engine.make<StreamSource>(name, out, std::move(stream)));
    }

    /** Capture everything arriving on @p in (test-side endpoint). */
    StreamSink *
    capture(const std::string &name, Channel *in)
    {
        return track(engine.make<StreamSink>(name, in));
    }

    /** Compile the graph and instantiate every instruction. Call once,
     * after the last node. */
    void
    build()
    {
        prog_ = graph::BytecodeProgram::compile(graph_);
        for (const graph::BcInst &inst : prog_.insts)
            track(graph::instantiate(engine, prog_, inst, chans_, mem_));
    }

    /** Every process made so far, in creation order. */
    const std::vector<dataflow::Process *> &
    processes() const
    {
        return procs_;
    }

    /** Memory and park counters the instructions update. */
    graph::ExecStats stats;
    /** main's arguments, read by `source` instructions. */
    std::vector<int32_t> args;

  private:
    template <typename P>
    P *
    track(P *proc)
    {
        procs_.push_back(proc);
        return proc;
    }

    int
    linkOf(const Channel *ch) const
    {
        return static_cast<int>(
            std::find(chans_.begin(), chans_.end(), ch) - chans_.begin());
    }

    static std::vector<Channel *>
    concat(std::vector<Channel *> a, const std::vector<Channel *> &b)
    {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    }

    graph::Dfg graph_;
    graph::BytecodeProgram prog_;
    graph::detail::MachineMemory mem_;
    std::vector<Channel *> chans_;
    std::vector<dataflow::Process *> procs_;

  public:
    /** Declared last so its processes go before what they reference. */
    dataflow::Engine engine;
};

} // namespace bytecode_test
} // namespace revet

#endif // REVET_TESTS_DATAFLOW_BYTECODE_HARNESS_HH
