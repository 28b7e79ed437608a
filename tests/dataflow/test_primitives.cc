/**
 * @file
 * Tests for the streaming primitives of Section III-B, run as bytecode
 * instructions on hand-built SLTF streams: exact token-level
 * reproductions of the paper's Figures 2 (foreach), 3
 * (filter/forward-merge) and 4 (forward-backward merge), the
 * empty-tensor composability rules, and a nested-while composition
 * test. The expected streams are written by hand; they are the
 * per-opcode reference for the executor that serves traffic.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "bytecode_harness.hh"
#include "sltf/codec.hh"
#include "sltf/ragged.hh"

using namespace revet::bytecode_test;
using revet::dataflow::Channel;
using revet::sltf::StreamBuilder;
using revet::sltf::Token;
using revet::sltf::TokenStream;
using revet::sltf::Word;

TEST(ElementWise, AddsAlignedStreams)
{
    BytecodeHarness h;
    auto *a = h.channel("a");
    auto *b = h.channel("b");
    auto *o = h.channel("o");
    h.inject("srcA", a, StreamBuilder().d(1).d(2).b(1).d(3).b(2));
    h.inject("srcB", b, StreamBuilder().d(10).d(20).b(1).d(30).b(2));
    h.block("add", {a, b}, {o}, {op(OpKind::add, 2, 0, 1)}, {2});
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(11).d(22).b(1).d(33).b(2));
    EXPECT_TRUE(h.engine.drained());
}

TEST(ElementWise, BarrierMisalignmentThrows)
{
    BytecodeHarness h;
    auto *a = h.channel("a");
    auto *b = h.channel("b");
    auto *o = h.channel("o");
    h.inject("srcA", a, StreamBuilder().d(1).b(1));
    h.inject("srcB", b, StreamBuilder().b(1).d(1));
    h.block("add", {a, b}, {o}, {op(OpKind::add, 2, 0, 1)}, {2});
    h.capture("sink", o);
    h.build();
    EXPECT_THROW(h.engine.run(), std::runtime_error);
}

TEST(ElementWise, MultipleResults)
{
    BytecodeHarness h;
    auto *a = h.channel("a");
    auto *s = h.channel("s");
    auto *d = h.channel("d");
    h.inject("src", a, StreamBuilder().d(5).d(9).b(1));
    h.block("split", {a}, {s, d},
            {cnst(1, 1), op(OpKind::add, 2, 0, 1),
             op(OpKind::sub, 3, 0, 1)},
            {2, 3});
    auto *s1 = h.capture("s1", s);
    auto *s2 = h.capture("s2", d);
    h.build();
    h.engine.run();
    EXPECT_EQ(s1->collected(), (TokenStream)StreamBuilder().d(6).d(10).b(1));
    EXPECT_EQ(s2->collected(), (TokenStream)StreamBuilder().d(4).d(8).b(1));
}

TEST(Counter, ExpandsRangesAndRaisesBarriers)
{
    BytecodeHarness h;
    auto *mn = h.channel("min");
    auto *mx = h.channel("max");
    auto *st = h.channel("step");
    auto *o = h.channel("o");
    // Two parents with trip counts 3 and 4, terminated at level 1
    // (Figure 2 with n = 1).
    h.inject("min", mn, StreamBuilder().d(0).d(0).b(1));
    h.inject("max", mx, StreamBuilder().d(3).d(4).b(1));
    h.inject("step", st, StreamBuilder().d(1).d(1).b(1));
    h.counter("ctr", mn, mx, st, o);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder()
                                     .d(0).d(1).d(2).b(1)
                                     .d(0).d(1).d(2).d(3).b(1)
                                     .b(2));
}

TEST(Counter, EmptyRangeEmitsExplicitBarrier)
{
    BytecodeHarness h;
    auto *mn = h.channel("min");
    auto *mx = h.channel("max");
    auto *st = h.channel("step");
    auto *o = h.channel("o");
    h.inject("min", mn, StreamBuilder().d(0).d(0).b(1));
    h.inject("max", mx, StreamBuilder().d(0).d(2).b(1));
    h.inject("step", st, StreamBuilder().d(1).d(1).b(1));
    h.counter("ctr", mn, mx, st, o);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    // [[],[0,1]] — the empty expansion keeps its explicit Omega(1).
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().b(1).d(0).d(1).b(1).b(2));
}

TEST(Counter, NegativeStride)
{
    BytecodeHarness h;
    auto *mn = h.channel("min");
    auto *mx = h.channel("max");
    auto *st = h.channel("step");
    auto *o = h.channel("o");
    h.inject("min", mn, StreamBuilder().d(3).b(1));
    h.inject("max", mx, StreamBuilder().d(0).b(1));
    h.inject("step", st, StreamBuilder().d(static_cast<Word>(-1)).b(1));
    h.counter("ctr", mn, mx, st, o);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(3).d(2).d(1).b(1).b(2));
}

TEST(Reduce, SumsGroupsAndLowersBarriers)
{
    BytecodeHarness h;
    auto *in = h.channel("in");
    auto *o = h.channel("o");
    h.inject("src", in, StreamBuilder()
                            .d(1).d(2).d(3).b(1)
                            .d(10).b(1)
                            .b(2));
    h.reduce("sum", in, o);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(6).d(10).b(1));
}

TEST(Reduce, EmptyTensorComposability)
{
    // Section III-A(b): [[]] -> [0]; [[],[]] -> [0,0]; [] -> [].
    struct Case
    {
        TokenStream in;
        TokenStream expect;
    };
    std::vector<Case> cases = {
        {StreamBuilder().b(1).b(2), StreamBuilder().d(0).b(1)},
        {StreamBuilder().b(1).b(1).b(2), StreamBuilder().d(0).d(0).b(1)},
        {StreamBuilder().b(2), StreamBuilder().b(1)},
    };
    for (auto &c : cases) {
        BytecodeHarness h;
        auto *in = h.channel("in");
        auto *o = h.channel("o");
        h.inject("src", in, c.in);
        h.reduce("sum", in, o);
        auto *sink = h.capture("sink", o);
        h.build();
        h.engine.run();
        EXPECT_EQ(sink->collected(), c.expect)
            << "input " << revet::sltf::toString(c.in);
    }
}

TEST(Flatten, RemovesOneLevel)
{
    BytecodeHarness h;
    auto *in = h.channel("in");
    auto *o = h.channel("o");
    h.inject("src", in, StreamBuilder().d(1).d(2).b(1).d(3).b(1).b(2));
    h.flatten("flat", in, o);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(3).b(1));
}

TEST(Flatten, EmptyGroupsVanish)
{
    BytecodeHarness h;
    auto *in = h.channel("in");
    auto *o = h.channel("o");
    h.inject("src", in, StreamBuilder().b(1).b(1).b(2));
    h.flatten("flat", in, o);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder().b(1));
}

TEST(Filter, Figure3Partition)
{
    // Figure 3: A = [t1..t5, On]; predicate singles out t3. Use n = 1.
    BytecodeHarness h;
    auto *val = h.channel("val");
    auto *pb = h.channel("predB");
    auto *pc = h.channel("predC");
    auto *vb = h.channel("valB");
    auto *vc = h.channel("valC");
    auto *bOut = h.channel("B");
    auto *cOut = h.channel("C");
    h.inject("vals", val, StreamBuilder().d(1).d(2).d(3).d(4).d(5).b(1));
    // Predicate: value == 3 (the slow-path thread).
    h.block("pred", {val}, {pb, pc, vb, vc},
            {cnst(1, 3), op(OpKind::eq, 2, 0, 1)}, {2, 2, 0, 0});
    h.filter("fB", pb, {vb}, {bOut}, true);
    h.filter("fC", pc, {vc}, {cOut}, false);
    auto *sb = h.capture("sinkB", bOut);
    auto *sc = h.capture("sinkC", cOut);
    h.build();
    h.engine.run();
    EXPECT_EQ(sb->collected(), (TokenStream)StreamBuilder().d(3).b(1));
    EXPECT_EQ(sc->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(4).d(5).b(1));
}

TEST(ForwardMerge, Figure3Join)
{
    // The slow-path thread t3 arrives after the fast path; the merge
    // interleaves eagerly and emits one barrier: D = t1,t2,t4,t5,t3,On.
    BytecodeHarness h;
    auto *fast = h.channel("fast");
    auto *slow = h.channel("slow");
    auto *out = h.channel("out");
    h.inject("fastSrc", fast, StreamBuilder().d(1).d(2).d(4).d(5).b(1));
    h.fwdMerge("join", {fast}, {slow}, {out});
    auto *sink = h.capture("sink", out);
    h.build();
    // Run with the slow branch empty: fast data passes, barrier stalls.
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(4).d(5));
    // Now the delayed slow thread shows up.
    slow->pushAll(StreamBuilder().d(3).b(1));
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(4).d(5).d(3).b(1));
    EXPECT_TRUE(h.engine.drained());
}

TEST(ForwardMerge, AtomicBundles)
{
    // Live values of one thread never separate across the merge.
    BytecodeHarness h;
    auto *a0 = h.channel();
    auto *a1 = h.channel();
    auto *b0 = h.channel();
    auto *b1 = h.channel();
    auto *o0 = h.channel();
    auto *o1 = h.channel();
    h.inject("a0", a0, StreamBuilder().d(1).d(2).b(1));
    h.inject("a1", a1, StreamBuilder().d(10).d(20).b(1));
    h.inject("b0", b0, StreamBuilder().d(3).b(1));
    h.inject("b1", b1, StreamBuilder().d(30).b(1));
    h.fwdMerge("join", {a0, a1}, {b0, b1}, {o0, o1});
    auto *s0 = h.capture("s0", o0);
    auto *s1 = h.capture("s1", o1);
    h.build();
    h.engine.run();
    ASSERT_EQ(s0->collected().size(), 4u);
    ASSERT_EQ(s1->collected().size(), 4u);
    // Pairing invariant: value in o1 is 10x its partner in o0.
    for (size_t i = 0; i + 1 < s0->collected().size(); ++i) {
        EXPECT_EQ(s0->collected()[i].word() * 10,
                  s1->collected()[i].word());
    }
}

TEST(ForwardMerge, MismatchedBarriersThrow)
{
    BytecodeHarness h;
    auto *a = h.channel("a");
    auto *b = h.channel("b");
    auto *o = h.channel("o");
    h.inject("a", a, StreamBuilder().b(1));
    h.inject("b", b, StreamBuilder().b(2));
    h.fwdMerge("join", {a}, {b}, {o});
    h.capture("s", o);
    h.build();
    EXPECT_THROW(h.engine.run(), std::runtime_error);
}

TEST(Broadcast, RepeatsParentAcrossGroups)
{
    BytecodeHarness h;
    auto *deep = h.channel("deep");
    auto *shal = h.channel("shallow");
    auto *o = h.channel("o");
    h.inject("deep", deep, StreamBuilder()
                               .d(100).d(101).b(1)
                               .d(200).b(1)
                               .b(2));
    h.inject("shallow", shal, StreamBuilder().d(7).d(9).b(1));
    h.broadcast("bc", deep, shal, o, 1);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder()
                                     .d(7).d(7).b(1)
                                     .d(9).b(1)
                                     .b(2));
    EXPECT_TRUE(h.engine.drained());
}

TEST(Broadcast, EmptyDeepGroupStillRetiresParent)
{
    BytecodeHarness h;
    auto *deep = h.channel("deep");
    auto *shal = h.channel("shallow");
    auto *o = h.channel("o");
    // Parent 7 has an empty child group; parent 9 has one element.
    h.inject("deep", deep, StreamBuilder().b(1).d(0).b(1).b(2));
    h.inject("shallow", shal, StreamBuilder().d(7).d(9).b(1));
    h.broadcast("bc", deep, shal, o, 1);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().b(1).d(9).b(1).b(2));
    EXPECT_TRUE(h.engine.drained());
}

TEST(Broadcast, TwoLevel)
{
    BytecodeHarness h;
    auto *deep = h.channel("deep");
    auto *shal = h.channel("shallow");
    auto *o = h.channel("o");
    // One parent broadcast across a 2-deep structure (level = 2).
    h.inject("deep", deep, StreamBuilder()
                               .d(0).b(1).d(0).d(0).b(1).b(2)
                               .b(3));
    h.inject("shallow", shal, StreamBuilder().d(42).b(1));
    h.broadcast("bc", deep, shal, o, 2);
    auto *sink = h.capture("sink", o);
    h.build();
    h.engine.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder()
                                     .d(42).b(1).d(42).d(42).b(1).b(2)
                                     .b(3));
}

TEST(ForeachPipeline, CounterBroadcastReduce)
{
    // A complete foreach: parents p in [3, 4]; each computes
    // sum_{i<p}(i + 10*p) — exercises counter + broadcast + reduce
    // exactly as in Figure 2.
    BytecodeHarness h;
    auto *par = h.channel("parents");
    auto *par_ctr = h.channel("parCtr");
    auto *par_bc = h.channel("parBc");
    auto *mn = h.channel("mn");
    auto *mx = h.channel("mx");
    auto *st = h.channel("st");
    auto *iter = h.channel("iter");
    auto *iter_bc = h.channel("iterBc");
    auto *iter_ew = h.channel("iterEw");
    auto *expanded = h.channel("expanded");
    auto *body = h.channel("body");
    auto *red = h.channel("red");

    h.inject("src", par, StreamBuilder().d(3).d(4).b(1));
    h.fanout("fan", par, {par_ctr, par_bc});
    // Bounds (0, p, 1).
    h.block("bounds", {par_ctr}, {mn, mx, st}, {cnst(1, 0), cnst(2, 1)},
            {1, 0, 2});
    h.counter("ctr", mn, mx, st, iter);
    h.fanout("fan2", iter, {iter_bc, iter_ew});
    h.broadcast("bc", iter_bc, par_bc, expanded, 1);
    // i + 10 * p.
    h.block("body", {iter_ew, expanded}, {body},
            {cnst(2, 10), op(OpKind::mul, 3, 1, 2),
             op(OpKind::add, 4, 0, 3)},
            {4});
    h.reduce("red", body, red);
    auto *sink = h.capture("sink", red);
    h.build();
    h.engine.run();
    // p=3: 0+1+2 + 3*30 = 93;  p=4: 0+1+2+3 + 4*40 = 166.
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(93).d(166).b(1));
    EXPECT_TRUE(h.engine.drained());
}

namespace
{

/**
 * Build a while loop over a bundle {id, cnt}: each thread iterates until
 * its cnt reaches zero (decrement per trip). Exposes the body stream
 * (ids) and the stripped exit stream (ids).
 */
struct WhileLoopHarness
{
    BytecodeHarness h;
    StreamSink *body_ids;
    StreamSink *exit_ids;

    WhileLoopHarness(const TokenStream &ids, const TokenStream &cnts)
    {
        auto *fid = h.channel("fid");
        auto *fcnt = h.channel("fcnt");
        h.inject("idSrc", fid, ids);
        h.inject("cntSrc", fcnt, cnts);

        auto *mid = h.channel("mid");
        auto *mcnt = h.channel("mcnt");
        auto *bid = h.channel("bid");
        auto *bcnt = h.channel("bcnt");
        h.fbMerge("head", {fid, fcnt}, {bid, bcnt}, {mid, mcnt});

        // Tap the body stream for inspection.
        auto *mid_tap = h.channel("midTap");
        auto *mid_body = h.channel("midBody");
        h.fanout("tap", mid, {mid_tap, mid_body});
        body_ids = h.capture("bodySink", mid_tap);

        // Body: cnt' = cnt-1; continue while cnt' > 0.
        auto *did1 = h.channel("did1");
        auto *dcnt1 = h.channel("dcnt1");
        auto *p1 = h.channel("p1");
        auto *did2 = h.channel("did2");
        auto *dcnt2 = h.channel("dcnt2");
        auto *p2 = h.channel("p2");
        h.block("dec", {mid_body, mcnt}, {did1, dcnt1, p1, did2, dcnt2, p2},
                {cnst(2, 1), op(OpKind::sub, 3, 1, 2), cnst(4, 0),
                 op(OpKind::lts, 5, 4, 3)},
                {0, 3, 5, 0, 3, 5});
        h.filter("backF", p1, {did1, dcnt1}, {bid, bcnt}, true);
        auto *xid = h.channel("xid");
        auto *xcnt = h.channel("xcnt");
        h.filter("exitF", p2, {did2, dcnt2}, {xid, xcnt}, false);

        // Loop-exit edges strip one hierarchy level.
        auto *sid = h.channel("sid");
        auto *scnt = h.channel("scnt");
        h.flatten("stripId", xid, sid);
        h.flatten("stripCnt", xcnt, scnt);
        exit_ids = h.capture("exitSink", sid);
        h.node(NodeKind::sink, "exitCntSink", {scnt}, {});
        h.build();
    }
};

} // namespace

TEST(FwdBackMerge, Figure4ExactTrace)
{
    // Iteration counts: t1=2, t2=3, t3=1, t4=3; entry barrier level 1.
    WhileLoopHarness w(StreamBuilder().d(1).d(2).d(3).d(4).b(1),
                       StreamBuilder().d(2).d(3).d(1).d(3).b(1));
    w.h.engine.run();
    // B: t1,t2,t3,t4,O1 | t1,t2,t4,O1 | t2,t4,O1 | O2.
    EXPECT_EQ(w.body_ids->collected(), (TokenStream)StreamBuilder()
                                           .d(1).d(2).d(3).d(4).b(1)
                                           .d(1).d(2).d(4).b(1)
                                           .d(2).d(4).b(1)
                                           .b(2));
    // D: t3, t1, t2, t4, O1 (stripped back to the entry level).
    EXPECT_EQ(w.exit_ids->collected(),
              (TokenStream)StreamBuilder().d(3).d(1).d(2).d(4).b(1));
    EXPECT_TRUE(w.h.engine.drained()) << w.h.engine.stallReport();
}

TEST(FwdBackMerge, MultipleGroupsFlushSeparately)
{
    // Two groups separated by O1, closed by O2: the loop flushes at every
    // barrier, so group 2's threads never mix into group 1's batches.
    WhileLoopHarness w(StreamBuilder().d(1).d(2).b(1).d(3).b(2),
                       StreamBuilder().d(2).d(1).b(1).d(2).b(2));
    w.h.engine.run();
    EXPECT_EQ(w.body_ids->collected(), (TokenStream)StreamBuilder()
                                           .d(1).d(2).b(1) // batch g1.1
                                           .d(1).b(1)      // batch g1.2
                                           .b(2)           // g1 done
                                           .d(3).b(1)      // batch g2.1
                                           .d(3).b(1)      // batch g2.2
                                           .b(3));         // g2 done
    EXPECT_EQ(w.exit_ids->collected(),
              (TokenStream)StreamBuilder().d(2).d(1).b(1).d(3).b(2));
    EXPECT_TRUE(w.h.engine.drained()) << w.h.engine.stallReport();
}

TEST(FwdBackMerge, EmptyGroupPassesThrough)
{
    // An empty input group must exit as an empty group.
    WhileLoopHarness w(StreamBuilder().b(1).d(5).b(2),
                       StreamBuilder().b(1).d(1).b(2));
    w.h.engine.run();
    EXPECT_EQ(w.exit_ids->collected(),
              (TokenStream)StreamBuilder().b(1).d(5).b(2));
    EXPECT_TRUE(w.h.engine.drained()) << w.h.engine.stallReport();
}

TEST(FwdBackMerge, ZeroTripThreadsExitFirstBatch)
{
    // cnt = 1 means one trip; all threads leave in batch 1 and the
    // second batch is already empty.
    WhileLoopHarness w(StreamBuilder().d(7).d(8).b(1),
                       StreamBuilder().d(1).d(1).b(1));
    w.h.engine.run();
    EXPECT_EQ(w.body_ids->collected(),
              (TokenStream)StreamBuilder().d(7).d(8).b(1).b(2));
    EXPECT_EQ(w.exit_ids->collected(),
              (TokenStream)StreamBuilder().d(7).d(8).b(1));
}

TEST(NestedWhile, InnerLoopInsideOuterLoop)
{
    // Outer loop: n decrements to 0. Inner loop: counts w = n down to 0,
    // incrementing acc per inner trip. Result: acc = n(n+1)/2.
    BytecodeHarness h;
    auto *fid = h.channel("fid");
    auto *fn = h.channel("fn");
    auto *facc = h.channel("facc");
    h.inject("ids", fid, StreamBuilder().d(1).d(2).d(3).b(1));
    h.inject("ns", fn, StreamBuilder().d(1).d(2).d(3).b(1));
    h.inject("accs", facc, StreamBuilder().d(0).d(0).d(0).b(1));

    // Outer loop header.
    auto *oid = h.channel("oid");
    auto *on = h.channel("on");
    auto *oacc = h.channel("oacc");
    auto *obid = h.channel("obid");
    auto *obn = h.channel("obn");
    auto *obacc = h.channel("obacc");
    h.fbMerge("outer", {fid, fn, facc}, {obid, obn, obacc},
              {oid, on, oacc});

    // Init inner counter w = n.
    auto *wid = h.channel("wid");
    auto *wn = h.channel("wn");
    auto *wacc = h.channel("wacc");
    auto *ww = h.channel("ww");
    h.block("initW", {oid, on, oacc}, {wid, wn, wacc, ww}, {},
            {0, 1, 2, 1});

    // Inner loop header.
    auto *iid = h.channel("iid");
    auto *in_ = h.channel("in");
    auto *iacc = h.channel("iacc");
    auto *iw = h.channel("iw");
    auto *ibid = h.channel("ibid");
    auto *ibn = h.channel("ibn");
    auto *ibacc = h.channel("ibacc");
    auto *ibw = h.channel("ibw");
    h.fbMerge("inner", {wid, wn, wacc, ww}, {ibid, ibn, ibacc, ibw},
              {iid, in_, iacc, iw});

    // Inner body: acc++, w--; continue while w > 0. Two copies of
    // (id, n, acc, w, cont) feed the back and exit filters.
    std::vector<Channel *> inner_out;
    for (int i = 0; i < 10; ++i)
        inner_out.push_back(h.channel("ib" + std::to_string(i)));
    h.block("innerBody", {iid, in_, iacc, iw}, inner_out,
            {cnst(4, 1), op(OpKind::add, 5, 2, 4),
             op(OpKind::sub, 6, 3, 4), cnst(7, 0),
             op(OpKind::lts, 8, 7, 6)},
            {0, 1, 5, 6, 8, 0, 1, 5, 6, 8});
    h.filter("innerBack", inner_out[4],
             {inner_out[0], inner_out[1], inner_out[2], inner_out[3]},
             {ibid, ibn, ibacc, ibw}, true);
    auto *xid = h.channel("xid");
    auto *xn = h.channel("xn");
    auto *xacc = h.channel("xacc");
    auto *xw = h.channel("xw");
    h.filter("innerExit", inner_out[9],
             {inner_out[5], inner_out[6], inner_out[7], inner_out[8]},
             {xid, xn, xacc, xw}, false);

    // Strip the inner-loop level; drop w.
    auto *sid = h.channel("sid");
    auto *sn = h.channel("sn");
    auto *sacc = h.channel("sacc");
    auto *sw = h.channel("sw");
    h.flatten("st0", xid, sid);
    h.flatten("st1", xn, sn);
    h.flatten("st2", xacc, sacc);
    h.flatten("st3", xw, sw);
    h.node(NodeKind::sink, "dropW", {sw}, {});

    // Outer tail: n--; continue while n > 0.
    std::vector<Channel *> outer_out;
    for (int i = 0; i < 8; ++i)
        outer_out.push_back(h.channel("ob" + std::to_string(i)));
    h.block("outerTail", {sid, sn, sacc}, outer_out,
            {cnst(3, 1), op(OpKind::sub, 4, 1, 3), cnst(5, 0),
             op(OpKind::lts, 6, 5, 4)},
            {0, 4, 2, 6, 0, 4, 2, 6});
    h.filter("outerBack", outer_out[3],
             {outer_out[0], outer_out[1], outer_out[2]},
             {obid, obn, obacc}, true);
    auto *eid = h.channel("eid");
    auto *en = h.channel("en");
    auto *eacc = h.channel("eacc");
    h.filter("outerExit", outer_out[7],
             {outer_out[4], outer_out[5], outer_out[6]}, {eid, en, eacc},
             false);

    auto *rid = h.channel("rid");
    auto *rn = h.channel("rn");
    auto *racc = h.channel("racc");
    h.flatten("so0", eid, rid);
    h.flatten("so1", en, rn);
    h.flatten("so2", eacc, racc);
    auto *id_sink = h.capture("ids", rid);
    h.node(NodeKind::sink, "ns", {rn}, {});
    auto *acc_sink = h.capture("accs", racc);

    h.build();
    h.engine.run();
    EXPECT_TRUE(h.engine.drained()) << h.engine.stallReport();

    // Collect (id, acc) pairs; order across threads is unspecified.
    std::map<Word, Word> results;
    const auto &ids = id_sink->collected();
    const auto &accs = acc_sink->collected();
    ASSERT_EQ(ids.size(), accs.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i].isData())
            results[ids[i].word()] = accs[i].word();
    }
    EXPECT_EQ(results[1], 1u); // 1
    EXPECT_EQ(results[2], 3u); // 2+1
    EXPECT_EQ(results[3], 6u); // 3+2+1
    // Final barrier level must be restored to the entry level.
    ASSERT_FALSE(ids.empty());
    EXPECT_TRUE(ids.back().isBarrier());
    EXPECT_EQ(ids.back().barrierLevel(), 1);
}

TEST(FilterMergeProperty, PartitionAndRejoinPreservesGroups)
{
    // Property: split a random 2-level stream by a random predicate and
    // forward-merge the halves: each group's element multiset and the
    // barrier structure are preserved.
    std::mt19937 rng(42);
    for (int iter = 0; iter < 40; ++iter) {
        // Build a random 2-D tensor stream.
        StreamBuilder sb;
        std::vector<std::multiset<Word>> groups;
        int ngroups = 1 + rng() % 4;
        for (int g = 0; g < ngroups; ++g) {
            std::multiset<Word> group;
            int n = rng() % 5;
            for (int i = 0; i < n; ++i) {
                Word v = rng() % 100;
                group.insert(v);
                sb.d(v);
            }
            sb.b(1);
            groups.push_back(group);
        }
        sb.b(2);

        BytecodeHarness h;
        auto *val = h.channel("val");
        auto *pt = h.channel("pt");
        auto *pf = h.channel("pf");
        auto *vt = h.channel("vt");
        auto *vf = h.channel("vf");
        auto *bt = h.channel("bt");
        auto *bf = h.channel("bf");
        auto *out = h.channel("out");
        h.inject("src", val, sb.build());
        // Predicate: value odd.
        h.block("pred", {val}, {pt, pf, vt, vf},
                {cnst(1, 2), op(OpKind::remu, 2, 0, 1)}, {2, 2, 0, 0});
        h.filter("ft", pt, {vt}, {bt}, true);
        h.filter("ff", pf, {vf}, {bf}, false);
        h.fwdMerge("join", {bt}, {bf}, {out});
        auto *sink = h.capture("sink", out);
        h.build();
        h.engine.run();
        ASSERT_TRUE(h.engine.drained());

        auto tensors = revet::sltf::decodeAll(sink->collected(), 2);
        ASSERT_EQ(tensors.size(), 1u);
        ASSERT_EQ(tensors[0].size(), groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
            std::multiset<Word> got;
            for (const auto &leaf : tensors[0][g].children())
                got.insert(leaf.word());
            EXPECT_EQ(got, groups[g]) << "group " << g;
        }
    }
}

TEST(Engine, StallReportNamesBlockedChannels)
{
    BytecodeHarness h;
    auto *a = h.channel("lonely");
    a->push(Token::data(1));
    EXPECT_FALSE(h.engine.drained());
    EXPECT_NE(h.engine.stallReport().find("lonely"), std::string::npos);
}

TEST(Engine, LivelockGuardThrows)
{
    // A self-feeding loop that never terminates trips the round cap.
    BytecodeHarness h;
    auto *a = h.channel("a");
    auto *b = h.channel("b");
    h.block("inc", {a}, {b}, {cnst(1, 1), op(OpKind::add, 2, 0, 1)}, {2});
    h.block("back", {b}, {a}, {}, {0});
    h.build();
    a->push(Token::data(1));
    EXPECT_THROW(h.engine.run(1000), std::runtime_error);
}
