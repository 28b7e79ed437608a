/**
 * @file
 * Static DFG analyzer validation (graph/analyze.hh).
 *
 * Rate balance: constant-bound counters fold to exact trip counts,
 * merges obey conservation, a deliberately imbalanced bundle is
 * flagged with a node-naming diagnostic, and every app's solved link
 * rates (lowered and optimized graphs) match pinned golden hashes.
 *
 * Translation validation: the default pipeline certifies every pass
 * application on real programs, while deliberately broken rewrites —
 * a dropped memory effect, reordered program-entry sources, an
 * unsolicited park, a keyed region stripped of its ordinal — are each
 * rejected by runPasses() with the expected diagnostic. Structural
 * breaks — a mispaired park, a widened bundle lane — never reach the
 * validator: Dfg::verify() rejects them first, naming the node. The value
 * facts runPasses() shares between passes, validator and analyzeGraph
 * are never stale: a rewritten counter bound is judged on fresh facts,
 * and the facts handed out with the report match a fresh fixpoint.
 *
 * Deadlock lint: the minimal safe park size computed statically for a
 * thread-reordering keyed park matches ExecStats::sramParkedPeak from
 * real executions, and a cycle whose contraction demand exceeds its
 * link buffering is reported.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "../dataflow/shuffled_schedule.hh"
#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/absint.hh"
#include "graph/analyze.hh"
#include "graph/bytecode.hh"
#include "graph/lower.hh"
#include "graph/optimize.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"

using namespace revet;
using namespace revet::graph;
using lang::DramImage;
using shuffled_test::allSchedules;
using shuffled_test::runSchedule;
using shuffled_test::scheduleName;

namespace
{

lang::Program
outProgram()
{
    return lang::parseAndAnalyze("DRAM<int> out; void main() {}");
}

void
addCnst(Node &blk, int dst, sltf::Word imm)
{
    BlockOp op;
    op.kind = OpKind::cnst;
    op.dst = dst;
    op.imm = imm;
    blk.ops.push_back(op);
}

void
addBinop(Node &blk, OpKind kind, int dst, int a, int b)
{
    BlockOp op;
    op.kind = kind;
    op.dst = dst;
    op.a = a;
    op.b = b;
    blk.ops.push_back(op);
}

/** "__start" source feeding a block of three unconditional cnst ops
 * (min, max, step) feeding a counter; returns the counter's out link. */
int
addConstCounter(Dfg &g, int64_t min, int64_t max, int64_t step)
{
    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);

    auto &bounds = g.newNode(NodeKind::block, "bounds");
    g.connectIn(bounds.id, tok);
    bounds.inputRegs = {0};
    bounds.nRegs = 4;
    addCnst(bounds, 1, static_cast<sltf::Word>(min));
    addCnst(bounds, 2, static_cast<sltf::Word>(max));
    addCnst(bounds, 3, static_cast<sltf::Word>(step));
    bounds.outputRegs = {1, 2, 3};
    int lmin = g.newLink("min"), lmax = g.newLink("max"),
        lstep = g.newLink("step");
    for (int l : {lmin, lmax, lstep})
        g.connectOut(bounds.id, l);

    auto &ctr = g.newNode(NodeKind::counter, "threads");
    for (int l : {lmin, lmax, lstep})
        g.connectIn(ctr.id, l);
    int iv = g.newLink("iv");
    g.connectOut(ctr.id, iv);
    return iv;
}

/**
 * The thread-reordering keyed-park graph from the executor tests:
 * counter 0..n -> {v = i*7+3 -> keyed park}, {k = n-1-i -> restore key
 * + write address}; the key stream is the exact reverse of park order,
 * so the restore must buffer all n values (sramParkedPeak == n).
 */
Dfg
keyedParkGraph(int n)
{
    Dfg g;
    graph::ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;
    g.replicates.push_back(info);

    int iv = addConstCounter(g, 0, n, 1);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, iv);
    int iv_a = g.newLink("iva"), iv_b = g.newLink("ivb");
    g.connectOut(fan.id, iv_a);
    g.connectOut(fan.id, iv_b);

    auto &bv = g.newNode(NodeKind::block, "blockV");
    g.connectIn(bv.id, iv_a);
    bv.inputRegs = {0};
    bv.nRegs = 5;
    addCnst(bv, 1, 7);
    addBinop(bv, OpKind::mul, 2, 0, 1);
    addCnst(bv, 3, 3);
    addBinop(bv, OpKind::add, 4, 2, 3);
    int v = g.newLink("v");
    bv.outputRegs = {4};
    g.connectOut(bv.id, v);

    auto &bk = g.newNode(NodeKind::block, "blockK");
    g.connectIn(bk.id, iv_b);
    bk.inputRegs = {0};
    bk.nRegs = 3;
    addCnst(bk, 1, static_cast<sltf::Word>(n - 1));
    addBinop(bk, OpKind::sub, 2, 1, 0);
    int k = g.newLink("k");
    bk.outputRegs = {2};
    g.connectOut(bk.id, k);
    auto &kfan = g.newNode(NodeKind::fanout, "kfan");
    g.connectIn(kfan.id, k);
    int k_key = g.newLink("k.key"), k_addr = g.newLink("k.addr");
    g.connectOut(kfan.id, k_key);
    g.connectOut(kfan.id, k_addr);

    auto &park = g.newNode(NodeKind::park, "park.v");
    park.parkRegion = 0;
    park.keyed = true;
    g.connectIn(park.id, v);
    int sram = g.newLink("v.park");
    g.connectOut(park.id, sram);
    auto &rest = g.newNode(NodeKind::restore, "restore.v");
    rest.parkRegion = 0;
    rest.keyed = true;
    g.connectIn(rest.id, sram);
    g.connectIn(rest.id, k_key);
    int rst = g.newLink("v.rst");
    g.connectOut(rest.id, rst);

    auto &wr = g.newNode(NodeKind::block, "write");
    g.connectIn(wr.id, k_addr);
    g.connectIn(wr.id, rst);
    wr.inputRegs = {0, 1};
    wr.nRegs = 2;
    BlockOp st;
    st.kind = OpKind::dramWrite;
    st.a = 0;
    st.b = 1;
    st.dram = 0;
    wr.ops.push_back(st);
    g.verify();
    return g;
}

/** Two sources merged into one lane (rates 1 + 1) feeding a sink. */
Dfg
mergeGraph(lang::Scalar elem = lang::Scalar::i32)
{
    Dfg g;
    auto &sa = g.newNode(NodeKind::source, "__start");
    int la = g.newLink("a", elem);
    g.connectOut(sa.id, la);
    auto &sb = g.newNode(NodeKind::source, "arg0");
    int lb = g.newLink("b", elem);
    g.connectOut(sb.id, lb);
    auto &m = g.newNode(NodeKind::fwdMerge, "join");
    g.connectIn(m.id, la);
    g.connectIn(m.id, lb);
    int lo = g.newLink("o", elem);
    g.connectOut(m.id, lo);
    auto &snk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(snk.id, lo);
    g.verify();
    return g;
}

/** Two 2-trip counters bundled by one block: balanced rates. */
Dfg
twoCounterGraph()
{
    Dfg g;
    int a = addConstCounter(g, 0, 2, 1);
    int b = addConstCounter(g, 0, 2, 1);
    auto &blk = g.newNode(NodeKind::block, "join");
    g.connectIn(blk.id, a);
    g.connectIn(blk.id, b);
    blk.inputRegs = {0, 1};
    blk.nRegs = 3;
    addBinop(blk, OpKind::add, 2, 0, 1);
    int lo = g.newLink("o");
    blk.outputRegs = {2};
    g.connectOut(blk.id, lo);
    auto &snk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(snk.id, lo);
    g.verify();
    return g;
}

/** The lowered, unoptimized graph of @p source. */
Dfg
loweredGraph(const std::string &source)
{
    lang::Program hir = lang::parseAndAnalyze(source);
    passes::runPipeline(hir);
    return lower(hir);
}

/** FNV-1a over every rendered link rate and the verdict. */
uint64_t
rateHash(const RateReport &rr)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
    };
    for (const auto &r : rr.linkRates) {
        mix(r);
        mix("\n");
    }
    mix(rr.consistent ? "consistent" : "inconsistent");
    return h;
}

int
linkByName(const Dfg &g, const std::string &name)
{
    for (const auto &l : g.links)
        if (l.name == name)
            return l.id;
    return -1;
}

int
nodeByName(const Dfg &g, const std::string &name)
{
    for (const auto &n : g.nodes)
        if (n.name == name)
            return n.id;
    return -1;
}

bool
hasCode(const std::vector<Diagnostic> &diags, const std::string &code)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic &d) { return d.code == code; });
}

const char *writeSrc = R"(
DRAM<int> data; DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    out[t] = data[t] * 3 + 1;
  };
}
)";

const char *replSrc = R"(
DRAM<int> data; DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int a = data[t];
    int k1 = t * 3 + 1;
    int k2 = t ^ 929;
    int h = a;
    replicate (4) {
      h = h * 31 + 7;
      h = h ^ (h / 64);
    };
    out[t] = h + k1 + k2;
  };
}
)";

/** A thread-reordering replicate body (data-dependent while): its
 * pass-over values become ordinal-keyed parks. */
const char *reorderSrc = R"(
DRAM<int> data; DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int a = data[t];
    int k1 = t * 3 + 1;
    int w = a & 7;
    int h = a;
    replicate (4) {
      while (w != 0) { h = h * 31 + w; w = w - 1; };
    };
    out[t] = h + k1;
  };
}
)";

/** Deliberately broken rewrites for the mutation tests. */
template <typename Fn> class BrokenPass : public GraphPass
{
  public:
    BrokenPass(std::string name, Fn fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {
    }
    std::string name() const override { return name_; }
    int
    run(Dfg &g, const GraphPassOptions &) override
    {
        return fn_(g);
    }

  private:
    std::string name_;
    Fn fn_;
};

template <typename Fn>
std::vector<std::unique_ptr<GraphPass>>
brokenPipeline(const std::string &name, Fn fn)
{
    std::vector<std::unique_ptr<GraphPass>> out;
    out.push_back(
        std::make_unique<BrokenPass<Fn>>(name, std::move(fn)));
    return out;
}

std::string
runBrokenExpectThrow(Dfg g,
                     const std::vector<std::unique_ptr<GraphPass>> &p)
{
    try {
        runPasses(g, p, GraphPassOptions{});
    } catch (const ValidationError &e) {
        return e.what();
    }
    return {};
}

/** what() of the Dfg::verify() rejection of a broken pipeline; empty
 * if it ran clean or the validator (not verify()) rejected it. */
std::string
runBrokenExpectVerifyError(
    Dfg g, const std::vector<std::unique_ptr<GraphPass>> &p)
{
    try {
        runPasses(g, p, GraphPassOptions{});
    } catch (const ValidationError &) {
        return {};
    } catch (const std::logic_error &e) {
        return e.what();
    }
    return {};
}

} // namespace

// ---------------------------------------------------------------------
// Token-rate balance
// ---------------------------------------------------------------------

TEST(AnalyzeRates, ConstantCounterFoldsToTripCount)
{
    Dfg g = keyedParkGraph(5);
    RateReport rr = analyzeRates(g);
    EXPECT_TRUE(rr.consistent);
    EXPECT_EQ(rr.rate(linkByName(g, "iv")), "5");
    EXPECT_EQ(rr.rate(linkByName(g, "v")), "5");
    EXPECT_EQ(rr.rate(linkByName(g, "v.rst")), "5");
    EXPECT_EQ(rr.rate(linkByName(g, "tok")), "1");
}

TEST(AnalyzeRates, MergeObeysConservation)
{
    Dfg g = mergeGraph();
    RateReport rr = analyzeRates(g);
    EXPECT_TRUE(rr.consistent);
    EXPECT_EQ(rr.rate(linkByName(g, "a")), "1");
    EXPECT_EQ(rr.rate(linkByName(g, "o")), "2");
}

TEST(AnalyzeRates, ImbalancedBundleFlagged)
{
    // A block bundling a rate-5 counter stream with a rate-1 source
    // stream can never align its lanes: the balance equations must
    // flag the block by name.
    Dfg g;
    int iv = addConstCounter(g, 0, 5, 1);
    auto &src = g.newNode(NodeKind::source, "arg0");
    int lb = g.newLink("b");
    g.connectOut(src.id, lb);
    auto &blk = g.newNode(NodeKind::block, "misaligned");
    g.connectIn(blk.id, iv);
    g.connectIn(blk.id, lb);
    blk.inputRegs = {0, 1};
    blk.nRegs = 3;
    addBinop(blk, OpKind::add, 2, 0, 1);
    int lo = g.newLink("o");
    blk.outputRegs = {2};
    g.connectOut(blk.id, lo);
    auto &snk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(snk.id, lo);
    g.verify();

    RateReport rr = analyzeRates(g);
    EXPECT_FALSE(rr.consistent);
    ASSERT_TRUE(hasCode(rr.diagnostics, "rate-imbalance"));
    // The conflict surfaces wherever propagation detects it — at the
    // bundling block or at the counter whose trip count contradicts
    // the already-propagated rate. Either way it must name a node.
    int ctr = nodeByName(g, "threads");
    bool named = false;
    for (const auto &d : rr.diagnostics) {
        EXPECT_FALSE(d.nodes.empty()) << d.message;
        named |= std::find(d.nodes.begin(), d.nodes.end(), blk.id) !=
            d.nodes.end();
        named |= std::find(d.nodes.begin(), d.nodes.end(), ctr) !=
            d.nodes.end();
    }
    EXPECT_TRUE(named) << "diagnostic must name an involved node";
}

TEST(AnalyzeRates, AppGraphsBalance)
{
    for (const auto &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        RateReport rr = analyzeRates(prog->dfg());
        EXPECT_TRUE(rr.consistent) << app.name;
        for (const auto &d : rr.diagnostics)
            ADD_FAILURE() << app.name << ": " << d.message;
    }
}

TEST(AnalyzeRates, AppRatesMatchGolden)
{
    // Every link's rendered rate (symbol names included) and the
    // verdict, per app, on the lowered and on the optimized graph,
    // pinned when the solver re-swept every constraint per unknown. A
    // solver change that alters any answer fails here.
    struct Golden
    {
        const char *app;
        size_t loweredLinks;
        uint64_t lowered;
        size_t optimizedLinks;
        uint64_t optimized;
    };
    const Golden golden[] = {
        {"isipv4", 321, 0xeba5ec34c66e61b0ull, 236, 0xc67f68152fca7459ull},
        {"ip2int", 281, 0x74a5ed2aca1a6bdfull, 203, 0x046013805f713f87ull},
        {"murmur3", 239, 0xaf5e5417c18996b0ull, 170, 0x5bd6c669e6e4e7e2ull},
        {"hash-table", 448, 0xb430fcdb4eda9f01ull, 302,
         0x869e4e47ad027fa3ull},
        {"search", 875, 0x8f2112482d213584ull, 676, 0x620f4bdd8d0049a9ull},
        {"huff-dec", 607, 0x515f2fde128dcb45ull, 405,
         0xead28ee0c933d391ull},
        {"huff-enc", 1308, 0x8d4b749ded5eee59ull, 1010,
         0x4968b081a6bc3c76ull},
        {"kD-tree", 1161, 0xe934afe6d71dd8e9ull, 840,
         0xa92fa7646cba56f2ull},
    };
    ASSERT_EQ(std::size(golden), apps::allApps().size());
    for (const Golden &want : golden) {
        const apps::App &app = apps::findApp(want.app);
        RateReport lowered = analyzeRates(loweredGraph(app.source));
        EXPECT_EQ(lowered.linkRates.size(), want.loweredLinks) << want.app;
        EXPECT_EQ(rateHash(lowered), want.lowered) << want.app;
        auto prog = CompiledArtifact::build(app.source);
        RateReport optimized = analyzeRates(prog->dfg());
        EXPECT_EQ(optimized.linkRates.size(), want.optimizedLinks)
            << want.app;
        EXPECT_EQ(rateHash(optimized), want.optimized) << want.app;
    }
}

// ---------------------------------------------------------------------
// Token accounting
// ---------------------------------------------------------------------

TEST(AnalyzeAccount, SnapshotsSourcesEffectsAndParks)
{
    auto prog = CompiledArtifact::build(writeSrc);
    TokenAccount acc = accountTokens(prog->dfg());
    ASSERT_GE(acc.sources.size(), 2u);
    EXPECT_EQ(acc.sources[0], "__start");
    int writes = 0;
    for (const auto &kv : acc.effects)
        if (kv.first.rfind("dramWrite@", 0) == 0)
            writes += kv.second;
    EXPECT_EQ(writes, 1);

    auto repl = CompiledArtifact::build(replSrc);
    TokenAccount racc = accountTokens(repl->dfg());
    int parks = 0;
    for (const auto &kv : racc.parks)
        parks += kv.second.fifoParks + kv.second.keyedParks;
    EXPECT_GT(parks, 0)
        << "replicate-bufferize should have parked pass-over values";
}

// ---------------------------------------------------------------------
// Translation validation: clean pipelines certify
// ---------------------------------------------------------------------

TEST(AnalyzeValidate, DefaultPipelineCertifiesEveryApplication)
{
    for (const char *src : {writeSrc, replSrc}) {
        auto prog = CompiledArtifact::build(src);
        EXPECT_GT(prog->optReport().validatedPasses, 0);
    }
    for (const auto &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        EXPECT_GT(prog->optReport().validatedPasses, 0) << app.name;
    }
}

// ---------------------------------------------------------------------
// Translation validation: mutation tests
// ---------------------------------------------------------------------

TEST(AnalyzeValidate, DroppedEffectRejected)
{
    auto prog = CompiledArtifact::build(writeSrc);
    auto pipeline =
        brokenPipeline("broken-drop-effect", [](Dfg &g) {
            for (auto &n : g.nodes) {
                for (size_t i = 0; i < n.ops.size(); ++i) {
                    if (n.ops[i].kind == OpKind::dramWrite) {
                        n.ops.erase(n.ops.begin() +
                                    static_cast<long>(i));
                        return 1;
                    }
                }
            }
            return 0;
        });
    std::string what = runBrokenExpectThrow(prog->dfg(), pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("effect-dropped"), std::string::npos) << what;
    EXPECT_NE(what.find("dramWrite"), std::string::npos) << what;
}

TEST(AnalyzeValidate, ReorderedSourcesRejected)
{
    auto prog = CompiledArtifact::build(writeSrc);
    auto pipeline =
        brokenPipeline("broken-swap-sources", [](Dfg &g) {
            std::vector<Node *> sources;
            for (auto &n : g.nodes)
                if (n.kind == NodeKind::source)
                    sources.push_back(&n);
            if (sources.size() < 2)
                return 0;
            std::swap(sources[0]->name, sources[1]->name);
            return 1;
        });
    std::string what = runBrokenExpectThrow(prog->dfg(), pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("source-changed"), std::string::npos) << what;
}

TEST(AnalyzeValidate, MispairedParkRejected)
{
    // Pairing is structural: Dfg::verify() rejects the flipped park
    // inside runPasses() before the validator runs.
    auto prog = CompiledArtifact::build(replSrc);
    std::string parkName;
    for (const auto &n : prog->dfg().nodes) {
        if (n.kind == NodeKind::park) {
            parkName = n.name;
            break;
        }
    }
    ASSERT_FALSE(parkName.empty());
    auto pipeline =
        brokenPipeline("broken-flip-keyed", [](Dfg &g) {
            for (auto &n : g.nodes) {
                if (n.kind == NodeKind::park) {
                    n.keyed = !n.keyed;
                    return 1;
                }
            }
            return 0;
        });
    std::string what = runBrokenExpectVerifyError(prog->dfg(), pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("ordinal-key mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'" + parkName + "'"), std::string::npos) << what;
}

TEST(AnalyzeValidate, WidenedBundleLaneRejected)
{
    Dfg g = mergeGraph(lang::Scalar::i8);
    int join = nodeByName(g, "join");
    auto pipeline =
        brokenPipeline("broken-widen-lane", [](Dfg &g2) {
            for (auto &n : g2.nodes) {
                if (n.kind == NodeKind::fwdMerge) {
                    g2.links[n.ins[0]].elem = lang::Scalar::i32;
                    return 1;
                }
            }
            return 0;
        });
    // Lane element types are structural: Dfg::verify() rejects the
    // widened lane inside runPasses() before the validator runs.
    std::string what = runBrokenExpectVerifyError(g, pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("changes element type"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'" + g.nodes[join].name + "'"), std::string::npos)
        << what;
}

TEST(AnalyzeValidate, UnsolicitedParkRejected)
{
    // Only replicate-bufferize may create park machinery; any other
    // pass sneaking a (correctly paired) park/restore pair onto a link
    // is rejected by the census.
    Dfg g = mergeGraph();
    g.replicates.push_back(ReplicateInfo{0, 2, 0, 0, {}});
    auto pipeline =
        brokenPipeline("broken-add-park", [](Dfg &g2) {
            int la = -1;
            for (auto &n : g2.nodes)
                if (n.kind == NodeKind::fwdMerge)
                    la = n.ins[0];
            if (la < 0)
                return 0;
            int consumer = g2.links[la].dst;
            auto &park = g2.newNode(NodeKind::park, "sneak.park");
            park.parkRegion = 0;
            auto &rest = g2.newNode(NodeKind::restore, "sneak.restore");
            rest.parkRegion = 0;
            int sram = g2.newLink("sneak.sram");
            int out = g2.newLink("sneak.out");
            g2.links[la].dst = park.id;
            park.ins.push_back(la);
            g2.connectOut(park.id, sram);
            g2.connectIn(rest.id, sram);
            g2.connectOut(rest.id, out);
            g2.links[out].dst = consumer;
            for (auto &n : g2.nodes)
                for (auto &l : n.ins)
                    if (l == la && n.id == consumer)
                        l = out;
            return 1;
        });
    std::string what = runBrokenExpectThrow(g, pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("park-added"), std::string::npos) << what;
}

TEST(AnalyzeValidate, OrdinalMissingRejected)
{
    // dead-node-elim may drop park machinery, so the census alone
    // allows losing an ordinal; only the keyed-parks-need-an-ordinal
    // rule catches a region left with keyed parks and no ordinal.
    auto prog = CompiledArtifact::build(reorderSrc);
    int region = -1;
    for (const auto &n : prog->dfg().nodes)
        if (n.kind == NodeKind::park && n.keyed)
            region = n.parkRegion;
    ASSERT_GE(region, 0) << "fixture must have ordinal-keyed parks";
    std::vector<int> parks;
    for (const auto &n : prog->dfg().nodes)
        if (n.kind == NodeKind::park && n.parkRegion == region)
            parks.push_back(n.id);
    ASSERT_GT(accountTokens(prog->dfg()).parks.at(region).ordinals, 0);
    auto pipeline =
        brokenPipeline("dead-node-elim", [region](Dfg &g) {
            // Splice each ordinal out: an identity fanout forwards the
            // stream unnumbered.
            int spliced = 0;
            for (auto &n : g.nodes) {
                if (n.kind == NodeKind::ordinal && n.parkRegion == region) {
                    n.kind = NodeKind::fanout;
                    ++spliced;
                }
            }
            return spliced;
        });
    Dfg g = prog->dfg();
    try {
        runPasses(g, pipeline, GraphPassOptions{});
        FAIL() << "keyed region without an ordinal was not rejected";
    } catch (const ValidationError &e) {
        EXPECT_EQ(e.passName(), "dead-node-elim");
        bool found = false;
        for (const auto &d : e.diagnostics()) {
            if (d.code == "ordinal-missing") {
                found = true;
                EXPECT_EQ(d.nodes, parks) << d.message;
            } else {
                ADD_FAILURE() << "unexpected diagnostic: " << d.message;
            }
        }
        EXPECT_TRUE(found) << e.what();
    }
}

TEST(AnalyzeValidate, RewrittenCounterBoundSeesFreshFacts)
{
    // A harmless first rewrite makes the validator compute and cache
    // the value facts of the balanced graph. The second rewrite widens
    // one counter to 5 trips: judged on the cached (pre-rewrite) facts
    // the bundle would still balance, so rejection proves the validator
    // re-derived the trip count from the rewritten graph.
    Dfg g = twoCounterGraph();
    ASSERT_TRUE(analyzeRates(g).consistent);
    const int join = nodeByName(g, "join");
    auto rename = [](Dfg &g2) {
        g2.links[0].name += ".renamed";
        return 1;
    };
    auto widen = [](Dfg &g2) {
        for (auto &n : g2.nodes) {
            if (n.name == "bounds") {
                n.ops[1].imm = 5; // max: 2 -> 5 trips
                return 1;
            }
        }
        return 0;
    };
    std::vector<std::unique_ptr<GraphPass>> pipeline;
    pipeline.push_back(std::make_unique<BrokenPass<decltype(rename)>>(
        "test-rename-link", rename));
    pipeline.push_back(std::make_unique<BrokenPass<decltype(widen)>>(
        "test-widen-counter", widen));
    std::string what = runBrokenExpectThrow(g, pipeline);
    ASSERT_FALSE(what.empty()) << "widened counter was not rejected";
    EXPECT_NE(what.find("test-widen-counter"), std::string::npos) << what;
    EXPECT_NE(what.find("rate-imbalance"), std::string::npos) << what;
    EXPECT_NE(what.find("#" + std::to_string(join)), std::string::npos)
        << what;
}

TEST(AnalyzeValidate, ReportedFactsMatchFreshFixpoint)
{
    // runPasses() hands out its last value facts for build()'s final
    // analyzeGraph(); they must describe the graph exactly as left.
    for (const auto &app : apps::allApps()) {
        for (bool validate : {true, false}) {
            Dfg g = loweredGraph(app.source);
            GraphPassOptions opts;
            opts.validate = validate;
            GraphOptReport rep = optimize(g, opts);
            ASSERT_TRUE(rep.facts) << app.name;
            const AbsintReport fresh = analyzeValues(g);
            ASSERT_EQ(rep.facts->links.size(), fresh.links.size())
                << app.name;
            for (size_t l = 0; l < fresh.links.size(); ++l) {
                const AbsVal &a = rep.facts->links[l];
                const AbsVal &b = fresh.links[l];
                EXPECT_TRUE(a.bottom == b.bottom && a.smin == b.smin &&
                            a.smax == b.smax && a.umin == b.umin &&
                            a.umax == b.umax)
                    << app.name << " link " << l;
            }
            EXPECT_EQ(rep.facts->findings.size(), fresh.findings.size())
                << app.name;
        }
    }
}

TEST(AnalyzeValidate, ValidateOffSkipsCertification)
{
    auto prog = CompiledArtifact::build(writeSrc);
    auto pipeline =
        brokenPipeline("broken-drop-effect", [](Dfg &g) {
            for (auto &n : g.nodes) {
                for (size_t i = 0; i < n.ops.size(); ++i) {
                    if (n.ops[i].kind == OpKind::dramWrite) {
                        n.ops.erase(n.ops.begin() +
                                    static_cast<long>(i));
                        return 1;
                    }
                }
            }
            return 0;
        });
    Dfg g = prog->dfg();
    GraphPassOptions opts;
    opts.validate = false;
    GraphOptReport rep;
    EXPECT_NO_THROW(rep = runPasses(g, pipeline, opts));
    EXPECT_EQ(rep.validatedPasses, 0);
}

// ---------------------------------------------------------------------
// Finite-buffer deadlock lint
// ---------------------------------------------------------------------

TEST(AnalyzeDeadlock, KeyedParkMinSafeMatchesExecutedPeak)
{
    const int n = 8;
    Dfg g = keyedParkGraph(n);
    DeadlockReport rep = lintDeadlock(g);
    ASSERT_EQ(rep.parks.size(), 1u);
    EXPECT_TRUE(rep.parks[0].bounded);
    EXPECT_EQ(rep.parks[0].minSafeSlots, n);
    EXPECT_FALSE(hasErrors(rep.diagnostics));

    lang::Program prog = outProgram();
    auto bc = graph::BytecodeProgram::compile(g);
    for (std::optional<uint64_t> sched : allSchedules()) {
        SCOPED_TRACE(scheduleName(sched));
        DramImage dram(prog);
        dram.resize("out", n * 4);
        auto stats = runSchedule(bc, dram, {}, sched);
        EXPECT_TRUE(stats.drained);
        EXPECT_EQ(stats.sramParkedPeak,
                  static_cast<uint64_t>(rep.parks[0].minSafeSlots))
            << "static bound must match the executed high-water mark";
    }
}

TEST(AnalyzeDeadlock, UndersizedParkReported)
{
    // 100000 reordered threads against a 4096-slot MU bank.
    Dfg g = keyedParkGraph(100000);
    BufferCaps caps;
    DeadlockReport rep = lintDeadlock(g, caps);
    ASSERT_EQ(rep.parks.size(), 1u);
    EXPECT_TRUE(rep.parks[0].bounded);
    EXPECT_EQ(rep.parks[0].minSafeSlots, 100000);
    EXPECT_TRUE(hasCode(rep.diagnostics, "park-undersized"));
}

TEST(AnalyzeDeadlock, ContractionCycleOverflowReported)
{
    // A reduce inside a feedback cycle must absorb its whole group
    // (constant rate 100000) before emitting, but the cycle's two
    // links buffer only 2*256 words: guaranteed wedge.
    Dfg g;
    int iv = addConstCounter(g, 0, 100000, 1);
    auto &blk = g.newNode(NodeKind::block, "loopback");
    g.connectIn(blk.id, iv);
    int l1 = g.newLink("l1");
    g.connectOut(blk.id, l1);
    auto &red = g.newNode(NodeKind::reduce, "sum");
    g.connectIn(red.id, l1);
    int l2 = g.newLink("l2");
    g.connectOut(red.id, l2);
    g.connectIn(blk.id, l2);
    blk.inputRegs = {0, 1};
    blk.outputRegs = {0};
    blk.nRegs = 2;

    DeadlockReport rep = lintDeadlock(g);
    EXPECT_GE(rep.cycles.size(), 1u);
    EXPECT_EQ(rep.riskyCycles, 1);
    ASSERT_TRUE(hasCode(rep.diagnostics, "cycle-overflow"));
    for (const auto &d : rep.diagnostics) {
        if (d.code != "cycle-overflow")
            continue;
        EXPECT_NE(std::find(d.nodes.begin(), d.nodes.end(), red.id),
                  d.nodes.end())
            << "cycle diagnostic must include the contraction node";
    }
}

TEST(AnalyzeDeadlock, AppGraphsLintClean)
{
    for (const auto &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        AnalyzeReport rep = analyzeGraph(prog->dfg());
        EXPECT_FALSE(rep.hasErrors()) << app.name << ": "
                                      << rep.summary();
    }
}
