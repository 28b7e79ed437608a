/**
 * @file
 * Dfg structural-invariant tests: verify() must accept every lowered
 * and optimized graph, and reject corrupted ones (bad arities, stale
 * endpoints, out-of-range registers, mispaired parks, park machinery
 * inside a replicate region, region membership disagreeing either
 * way, filter/merge lanes changing element type); toDot() output is
 * pinned by a golden test so graph dumps cannot silently regress.
 */

#include <gtest/gtest.h>

#include "graph/dfg.hh"
#include "graph/lower.hh"
#include "graph/optimize.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"

using namespace revet;
using namespace revet::graph;

namespace
{

/** Minimal valid graph: source -> block(pass) -> sink. */
Dfg
tinyGraph()
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "b0");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 2;
    BlockOp op;
    op.kind = OpKind::add;
    op.dst = 1;
    op.a = 0;
    op.b = 0;
    blk.ops.push_back(op);
    int b = g.newLink("b");
    g.connectOut(blk.id, b);
    blk.outputRegs = {1};
    auto &sink = g.newNode(NodeKind::sink, "sink.b");
    g.connectIn(sink.id, b);
    return g;
}

Dfg
lowered(const std::string &src)
{
    lang::Program prog = lang::parseAndAnalyze(src);
    passes::runPipeline(prog);
    return lower(prog);
}

} // namespace

TEST(DfgVerify, AcceptsValidGraph)
{
    EXPECT_NO_THROW(tinyGraph().verify());
}

TEST(DfgVerify, AcceptsLoweredAndOptimizedFixtures)
{
    const char *sources[] = {
        "DRAM<int> out; void main(int n) { out[0] = n; }",
        R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0; int acc = 0;
          while (i < n) { acc = acc + i; i++; };
          foreach (n) { int k => out[k] = acc + k; };
        })",
    };
    for (const char *src : sources) {
        Dfg g = lowered(src);
        EXPECT_NO_THROW(g.verify());
        optimize(g);
        EXPECT_NO_THROW(g.verify());
    }
}

TEST(DfgVerify, RejectsLinkWithoutConsumer)
{
    Dfg g = tinyGraph();
    int l = g.newLink("dangling");
    g.nodes[0].outs.push_back(l);
    g.links[l].src = 0;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsLinkWithoutProducer)
{
    Dfg g = tinyGraph();
    int l = g.newLink("orphan");
    g.connectIn(1, l);
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsStaleEndpoint)
{
    Dfg g = tinyGraph();
    // Link 0 claims the sink as producer without the sink listing it.
    g.links[0].src = 2;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsDoubleListedLink)
{
    Dfg g = tinyGraph();
    // The block lists its output twice.
    g.nodes[1].outs.push_back(g.nodes[1].outs[0]);
    g.nodes[1].outputRegs.push_back(0);
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsIdMismatch)
{
    Dfg g = tinyGraph();
    g.nodes[1].id = 7;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsInputRegisterArityMismatch)
{
    Dfg g = tinyGraph();
    g.nodes[1].inputRegs.push_back(0); // 2 regs for 1 input link
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsOutputRegisterOutOfRange)
{
    Dfg g = tinyGraph();
    g.nodes[1].outputRegs[0] = g.nodes[1].nRegs; // one past the end
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsNegativeInputRegister)
{
    Dfg g = tinyGraph();
    g.nodes[1].inputRegs[0] = -1;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsOpOperandOutOfRange)
{
    Dfg g = tinyGraph();
    g.nodes[1].ops[0].b = 99;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsFanoutWithoutOutputs)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, a);
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsFilterArityViolation)
{
    Dfg g = tinyGraph();
    // Turn the block into a "filter" without the pred+bundle shape.
    g.nodes[1].kind = NodeKind::filter;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsMergeBundleMismatch)
{
    Dfg g;
    auto &s0 = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(s0.id, a);
    auto &m = g.newNode(NodeKind::fwdMerge, "join");
    g.connectIn(m.id, a); // one input for one output: needs two
    int o = g.newLink("o");
    g.connectOut(m.id, o);
    auto &sk = g.newNode(NodeKind::sink, "sink.o");
    g.connectIn(sk.id, o);
    EXPECT_THROW(g.verify(), std::logic_error);
}

// ---------------------------------------------------------------------
// Park/restore shapes (replicate bufferization).

namespace
{

/** tinyGraph with the block's output parked around a fake region:
 * source -> block -> park -> restore -> sink. */
Dfg
parkedGraph()
{
    Dfg g = tinyGraph();
    ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;
    g.replicates.push_back(info);
    int l = g.nodes[1].outs[0]; // block -> sink
    int sink = g.links[l].dst;
    auto &park = g.newNode(NodeKind::park, "park.b");
    park.parkRegion = 0;
    int pk = park.id;
    auto &rest = g.newNode(NodeKind::restore, "restore.b");
    rest.parkRegion = 0;
    int rs = rest.id;
    g.links[l].dst = pk;
    g.nodes[pk].ins.push_back(l);
    int sram = g.newLink("b.park");
    g.connectOut(pk, sram);
    g.connectIn(rs, sram);
    int rst = g.newLink("b.rst");
    g.connectOut(rs, rst);
    g.links[rst].dst = sink;
    g.nodes[sink].ins[0] = rst;
    return g;
}

} // namespace

TEST(DfgVerify, AcceptsParkRestorePair)
{
    EXPECT_NO_THROW(parkedGraph().verify());
}

TEST(DfgVerify, RejectsParkWithoutMatchingRestore)
{
    // Splice the restore out so the park feeds the sink directly.
    Dfg g = parkedGraph();
    int park_out = g.nodes[3].outs[0];
    int rest = g.links[park_out].dst;
    ASSERT_EQ(g.nodes[rest].kind, NodeKind::restore);
    g.nodes[rest].kind = NodeKind::flatten;
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsParkRegionMismatch)
{
    Dfg g = parkedGraph();
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::restore)
            n.parkRegion = 1; // no such region / mismatched pair
    }
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsParkRegionOutOfRange)
{
    Dfg g = parkedGraph();
    g.replicates.clear();
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsParkArity)
{
    Dfg g = parkedGraph();
    int extra = g.newLink("extra");
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::park) {
            g.nodes[0].outs.push_back(extra);
            g.links[extra].src = 0;
            n.ins.push_back(extra);
            g.links[extra].dst = n.id;
        }
    }
    EXPECT_THROW(g.verify(), std::logic_error);
}

namespace
{

/** parkedGraph with the pair upgraded to ordinal keying: a second
 * source feeds the restore's key input and an ordinal node taps the
 * block's stream. */
Dfg
keyedParkedGraph()
{
    Dfg g = parkedGraph();
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::park || n.kind == NodeKind::restore)
            n.keyed = true;
    }
    auto &keysrc = g.newNode(NodeKind::source, "__keys");
    int raw = g.newLink("raw");
    g.connectOut(keysrc.id, raw);
    auto &ord = g.newNode(NodeKind::ordinal, "ord.b");
    ord.parkRegion = 0;
    g.connectIn(ord.id, raw);
    int key = g.newLink("b.ord");
    g.connectOut(ord.id, key);
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::restore) {
            g.links[key].dst = n.id;
            n.ins.push_back(key);
        }
    }
    return g;
}

} // namespace

TEST(DfgVerify, AcceptsKeyedParkRestorePair)
{
    EXPECT_NO_THROW(keyedParkedGraph().verify());
}

TEST(DfgVerify, RejectsKeyedFlagMismatch)
{
    Dfg g = keyedParkedGraph();
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::park)
            n.keyed = false; // restore still expects ordinal keys
    }
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsKeyedRestoreWithoutKeyInput)
{
    Dfg g = parkedGraph();
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::park || n.kind == NodeKind::restore)
            n.keyed = true; // keyed pair, but no key stream wired
    }
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DfgVerify, RejectsOrdinalArityAndRegion)
{
    Dfg g = keyedParkedGraph();
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::ordinal)
            n.parkRegion = 3; // no such region
    }
    EXPECT_THROW(g.verify(), std::logic_error);
}

// ---------------------------------------------------------------------
// Replicate-region membership and boundary, bundle lane element types.

namespace
{

/** what() of g.verify()'s rejection; empty if it accepts @p g. */
std::string
verifyError(const Dfg &g)
{
    try {
        g.verify();
    } catch (const std::logic_error &e) {
        return e.what();
    }
    return {};
}

/** source pred + source value -> filter -> sink, both lanes @p elem. */
Dfg
filterGraph(lang::Scalar elem)
{
    Dfg g;
    auto &sp = g.newNode(NodeKind::source, "__start");
    int pred = g.newLink("pred");
    g.connectOut(sp.id, pred);
    auto &sv = g.newNode(NodeKind::source, "arg0");
    int v = g.newLink("v", elem);
    g.connectOut(sv.id, v);
    auto &flt = g.newNode(NodeKind::filter, "keep");
    g.connectIn(flt.id, pred);
    g.connectIn(flt.id, v);
    int o = g.newLink("o", elem);
    g.connectOut(flt.id, o);
    auto &sk = g.newNode(NodeKind::sink, "sink.o");
    g.connectIn(sk.id, o);
    return g;
}

/** Two sources merged into one @p elem lane feeding a sink. */
Dfg
mergeGraph(lang::Scalar elem)
{
    Dfg g;
    auto &sa = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a", elem);
    g.connectOut(sa.id, a);
    auto &sb = g.newNode(NodeKind::source, "arg0");
    int b = g.newLink("b", elem);
    g.connectOut(sb.id, b);
    auto &m = g.newNode(NodeKind::fwdMerge, "join");
    g.connectIn(m.id, a);
    g.connectIn(m.id, b);
    int o = g.newLink("o", elem);
    g.connectOut(m.id, o);
    auto &sk = g.newNode(NodeKind::sink, "sink.o");
    g.connectIn(sk.id, o);
    return g;
}

int
nodeOfKind(const Dfg &g, NodeKind kind)
{
    for (const auto &n : g.nodes)
        if (n.kind == kind)
            return n.id;
    return -1;
}

} // namespace

TEST(DfgVerify, AcceptsRegionMembersAndNarrowLanes)
{
    Dfg g = parkedGraph();
    g.nodes[1].replicateRegion = 0;
    g.replicates[0].nodeIds.push_back(1);
    EXPECT_EQ(verifyError(g), "");
    EXPECT_EQ(verifyError(filterGraph(lang::Scalar::i8)), "");
    EXPECT_EQ(verifyError(mergeGraph(lang::Scalar::i16)), "");
}

TEST(DfgVerify, RejectsParkInsideRegion)
{
    // Membership agrees both ways, so only the boundary rule fires.
    Dfg g = parkedGraph();
    const int park = nodeOfKind(g, NodeKind::park);
    g.nodes[park].replicateRegion = 0;
    g.replicates[0].nodeIds.push_back(park);
    const std::string what = verifyError(g);
    EXPECT_NE(what.find("'park.b'"), std::string::npos) << what;
    EXPECT_NE(what.find("sits inside region 0"), std::string::npos)
        << what;
}

TEST(DfgVerify, RejectsListedNonMember)
{
    Dfg g = parkedGraph();
    g.replicates[0].nodeIds.push_back(1); // b0 names no region
    const std::string what = verifyError(g);
    EXPECT_NE(what.find("region 0 lists node 'b0'"), std::string::npos)
        << what;
}

TEST(DfgVerify, RejectsUnlistedMember)
{
    Dfg g = parkedGraph();
    g.nodes[1].replicateRegion = 0; // region 0 does not list b0
    const std::string what = verifyError(g);
    EXPECT_NE(what.find("'b0' claims region 0"), std::string::npos)
        << what;
}

TEST(DfgVerify, RejectsFilterLaneElemChange)
{
    Dfg g = filterGraph(lang::Scalar::i8);
    const int keep = nodeOfKind(g, NodeKind::filter);
    g.links[g.nodes[keep].outs[0]].elem = lang::Scalar::i32;
    const std::string what = verifyError(g);
    EXPECT_NE(what.find("'keep'"), std::string::npos) << what;
    EXPECT_NE(what.find("lane 0 changes element type"), std::string::npos)
        << what;
}

TEST(DfgVerify, RejectsMergeLaneElemChange)
{
    // Only the B-side input differs from the lane's output.
    Dfg g = mergeGraph(lang::Scalar::i8);
    const int join = nodeOfKind(g, NodeKind::fwdMerge);
    g.links[g.nodes[join].ins[1]].elem = lang::Scalar::i16;
    const std::string what = verifyError(g);
    EXPECT_NE(what.find("'join'"), std::string::npos) << what;
    EXPECT_NE(what.find("lane 0 changes element type"), std::string::npos)
        << what;
}

TEST(DfgDot, KeyedParkAndOrdinalRender)
{
    std::string dot = keyedParkedGraph().toDot();
    EXPECT_NE(dot.find("park\\npark.b\\nkeyed region 0\" shape=cylinder"),
              std::string::npos)
        << dot;
    EXPECT_NE(dot.find("ordinal\\nord.b\\nregion 0\" shape=diamond"),
              std::string::npos)
        << dot;
}

TEST(DfgDot, ParkRendersAsRegionTaggedCylinder)
{
    std::string dot = parkedGraph().toDot();
    EXPECT_NE(dot.find("park\\npark.b\\nregion 0\" shape=cylinder"),
              std::string::npos)
        << dot;
    EXPECT_NE(dot.find("restore\\nrestore.b\\nregion 0\" shape=cylinder"),
              std::string::npos)
        << dot;
}

// ---------------------------------------------------------------------
// Golden dot dumps: node labels carry op counts, links carry element
// type and vector-vs-scalar class. Pinned so dumps cannot silently
// regress; regenerate by printing toDot() when the format is
// deliberately changed.

TEST(DfgDot, GoldenTinyProgram)
{
    Dfg g = lowered("DRAM<int> out; void main(int n) { out[0] = n; }");
    const char *golden =
        "digraph revet {\n"
        "  rankdir=TB;\n"
        "  n0 [label=\"source\\n__start\" shape=ellipse];\n"
        "  n1 [label=\"source\\n__arg0\" shape=ellipse];\n"
        "  n2 [label=\"block\\nb0\\n2 ops\" shape=box];\n"
        "  n3 [label=\"sink\\nsink.<token>\" shape=ellipse];\n"
        "  n0 -> n2 [label=\"tok:int:v\"];\n"
        "  n1 -> n2 [label=\"n:int:v\"];\n"
        "  n2 -> n3 [label=\"<token>:int:v\"];\n"
        "}\n";
    EXPECT_EQ(g.toDot(), golden);
}

TEST(DfgDot, RoundTripThroughOptimizer)
{
    // The golden shape above, after the optimizer: the dead passthrough
    // streams into sinks are pruned, leaving the effectful store block
    // fed by both sources.
    Dfg g = lowered("DRAM<int> out; void main(int n) { out[0] = n; }");
    optimize(g);
    const char *golden =
        "digraph revet {\n"
        "  rankdir=TB;\n"
        "  n0 [label=\"source\\n__start\" shape=ellipse];\n"
        "  n1 [label=\"source\\n__arg0\" shape=ellipse];\n"
        "  n2 [label=\"block\\nb0\\n2 ops\" shape=box];\n"
        "  n0 -> n2 [label=\"tok:int:v\"];\n"
        "  n1 -> n2 [label=\"n:int:v\"];\n"
        "}\n";
    EXPECT_EQ(g.toDot(), golden);
}

TEST(DfgDot, ScalarLinksRenderDashed)
{
    Dfg g = tinyGraph();
    g.links[0].vector = false;
    std::string dot = g.toDot();
    EXPECT_NE(dot.find(":s\" style=dashed"), std::string::npos) << dot;
    EXPECT_NE(dot.find(":v\""), std::string::npos) << dot;
}
