#include "graph/optimize.hh"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>

#include "graph/absint.hh"
#include "graph/analyze.hh"
#include "graph/resources.hh"
#include "lang/type.hh"

namespace revet
{
namespace graph
{

std::string
GraphOptReport::summary() const
{
    std::ostringstream os;
    os << "nodes " << nodesBefore << " -> " << nodesAfter << ", links "
       << linksBefore << " -> " << linksAfter << " (" << iterations
       << " iters";
    for (const auto &[pass, count] : rewrites)
        os << "; " << pass << ": " << count;
    os << "; validated " << validatedPasses << ")";
    return os.str();
}

namespace
{

/** Fixpoint sweep cap for runPasses(). The Table III apps and the
 * bench_graph_opt fixtures settle in at most 4 sweeps, the last of
 * them rewriting nothing. */
constexpr int kMaxIterations = 8;

bool
blockHasEffects(const Node &node)
{
    for (const auto &op : node.ops) {
        if (isEffectOp(op.kind))
            return true;
    }
    return false;
}

int
indexOf(const std::vector<int> &v, int x)
{
    auto it = std::find(v.begin(), v.end(), x);
    if (it == v.end())
        throw std::logic_error("graph optimizer: link not on node");
    return static_cast<int>(it - v.begin());
}

/**
 * Dead-mark bookkeeping plus id compaction. Passes mark nodes/links
 * dead during surgery (ids are container indices, so removal cannot be
 * eager) and compact() renumbers everything once the pass is done.
 */
struct Surgeon
{
    Dfg &g;
    std::vector<char> nodeDead, linkDead;

    explicit Surgeon(Dfg &graph)
        : g(graph), nodeDead(graph.nodes.size(), 0),
          linkDead(graph.links.size(), 0)
    {}

    /** Re-size the mark arrays after newNode()/newLink(). */
    void
    grow()
    {
        nodeDead.resize(g.nodes.size(), 0);
        linkDead.resize(g.links.size(), 0);
    }

    void
    compact()
    {
        std::vector<int> node_map(g.nodes.size(), -1);
        std::vector<int> link_map(g.links.size(), -1);
        int nn = 0;
        for (size_t i = 0; i < g.nodes.size(); ++i) {
            if (!nodeDead[i])
                node_map[i] = nn++;
        }
        int nl = 0;
        for (size_t i = 0; i < g.links.size(); ++i) {
            if (!linkDead[i])
                link_map[i] = nl++;
        }
        std::deque<Node> nodes;
        for (auto &n : g.nodes) {
            if (nodeDead[n.id])
                continue;
            Node m = std::move(n);
            m.id = node_map[m.id];
            for (auto &l : m.ins)
                l = link_map[l];
            for (auto &l : m.outs)
                l = link_map[l];
            nodes.push_back(std::move(m));
        }
        std::vector<Link> links;
        for (const auto &l : g.links) {
            if (linkDead[l.id])
                continue;
            Link m = l;
            m.id = link_map[l.id];
            m.src = node_map[m.src];
            m.dst = node_map[m.dst];
            links.push_back(m);
        }
        for (auto &region : g.replicates) {
            std::vector<int> ids;
            for (int id : region.nodeIds) {
                if (node_map[id] >= 0)
                    ids.push_back(node_map[id]);
            }
            region.nodeIds = std::move(ids);
        }
        g.nodes = std::move(nodes);
        g.links = std::move(links);
    }
};

/**
 * Remove output @p l from node @p nid after its consumer went away.
 * Bundle nodes drop the paired inputs (newly dangling links go on
 * @p orphans for their producers); single-output primitives and
 * sources cannot narrow, so their link is rerouted into a fresh sink.
 */
void
detachOutput(Dfg &g, Surgeon &s, int nid, int l, std::vector<int> &orphans)
{
    Node &n = g.nodes[nid];
    switch (n.kind) {
      case NodeKind::block: {
        int idx = indexOf(n.outs, l);
        n.outs.erase(n.outs.begin() + idx);
        n.outputRegs.erase(n.outputRegs.begin() + idx);
        break;
      }
      case NodeKind::fanout: {
        int idx = indexOf(n.outs, l);
        n.outs.erase(n.outs.begin() + idx);
        if (n.outs.empty()) {
            // No consumer left: the fanout dies and its own input
            // becomes the orphan.
            s.nodeDead[nid] = 1;
            int in = n.ins[0];
            s.linkDead[in] = 1;
            int p = g.links[in].src;
            if (p >= 0 && !s.nodeDead[p])
                orphans.push_back(in);
        }
        break;
      }
      case NodeKind::filter: {
        int idx = indexOf(n.outs, l);
        int in = n.ins[idx + 1]; // ins[0] is the predicate
        n.outs.erase(n.outs.begin() + idx);
        n.ins.erase(n.ins.begin() + idx + 1);
        s.linkDead[in] = 1;
        int p = g.links[in].src;
        if (p >= 0 && !s.nodeDead[p])
            orphans.push_back(in);
        break;
      }
      case NodeKind::fwdMerge:
      case NodeKind::fbMerge: {
        int half = static_cast<int>(n.outs.size());
        int idx = indexOf(n.outs, l);
        int in_a = n.ins[idx];
        int in_b = n.ins[idx + half];
        n.ins.erase(n.ins.begin() + idx + half);
        n.ins.erase(n.ins.begin() + idx);
        n.outs.erase(n.outs.begin() + idx);
        for (int in : {in_a, in_b}) {
            s.linkDead[in] = 1;
            int p = g.links[in].src;
            if (p >= 0 && !s.nodeDead[p])
                orphans.push_back(in);
        }
        if (n.outs.empty())
            s.nodeDead[nid] = 1;
        break;
      }
      default: {
        // counter/broadcast/reduce/flatten/source have a fixed single
        // output: terminate it with a sink instead of narrowing.
        s.linkDead[l] = 0;
        auto &sk = g.newNode(NodeKind::sink, "sink." + g.links[l].name);
        s.grow();
        g.links[l].dst = sk.id;
        sk.ins.push_back(l);
        break;
      }
    }
}

// ---- dead-node / sink elimination --------------------------------------

class DeadNodeElim : public GraphPass
{
  public:
    std::string name() const override { return "dead-node-elim"; }

    int
    run(Dfg &g, const GraphPassOptions &) override
    {
        const size_t n_nodes = g.nodes.size();

        // Backward liveness from the nodes whose execution is
        // observable: sources (argument injection must stay stable)
        // and blocks with memory effects.
        std::vector<char> live(n_nodes, 0);
        std::vector<int> work;
        for (size_t i = 0; i < n_nodes; ++i) {
            const Node &n = g.nodes[i];
            if (n.kind == NodeKind::source ||
                (n.kind == NodeKind::block && blockHasEffects(n))) {
                live[i] = 1;
                work.push_back(static_cast<int>(i));
            }
        }
        while (!work.empty()) {
            int id = work.back();
            work.pop_back();
            for (int l : g.nodes[id].ins) {
                int p = g.links[l].src;
                if (p >= 0 && !live[p]) {
                    live[p] = 1;
                    work.push_back(p);
                }
            }
        }

        Surgeon s(g);
        int rewrites = 0;
        std::vector<int> orphans;

        // 1) Remove whole dead nodes (their sinks go with them).
        for (size_t i = 0; i < n_nodes; ++i) {
            const Node &n = g.nodes[i];
            if (live[i] || n.kind == NodeKind::sink)
                continue;
            s.nodeDead[i] = 1;
            ++rewrites;
            for (int l : n.ins) {
                s.linkDead[l] = 1;
                int p = g.links[l].src;
                if (p >= 0 && live[p])
                    orphans.push_back(l);
            }
            for (int l : n.outs) {
                s.linkDead[l] = 1;
                int c = g.links[l].dst;
                if (c >= 0 && g.nodes[c].kind == NodeKind::sink &&
                    !s.nodeDead[c]) {
                    s.nodeDead[c] = 1;
                    ++rewrites;
                }
            }
        }

        // 2) Sink elimination on live producers that can narrow: a
        // block/fanout output into a sink is a wasted stream, and a
        // filter/merge bundle slot into a sink drags its whole input
        // pair along.
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (!live[i] || s.nodeDead[i])
                continue;
            bool droppable = n.kind == NodeKind::block ||
                n.kind == NodeKind::fanout || n.kind == NodeKind::filter ||
                n.kind == NodeKind::fwdMerge || n.kind == NodeKind::fbMerge;
            if (!droppable)
                continue;
            const std::vector<int> outs = n.outs;
            for (int l : outs) {
                if (s.linkDead[l])
                    continue;
                int c = g.links[l].dst;
                if (c < 0 || s.nodeDead[c] ||
                    g.nodes[c].kind != NodeKind::sink) {
                    continue;
                }
                s.nodeDead[c] = 1;
                s.linkDead[l] = 1;
                ++rewrites;
                detachOutput(g, s, static_cast<int>(i), l, orphans);
            }
        }

        // 3) Detach every orphaned link from its live producer.
        while (!orphans.empty()) {
            int l = orphans.back();
            orphans.pop_back();
            int p = g.links[l].src;
            if (p < 0 || s.nodeDead[p])
                continue;
            detachOutput(g, s, p, l, orphans);
        }

        if (rewrites)
            s.compact();
        return rewrites;
    }
};

// ---- fanout coalescing -------------------------------------------------

class FanoutCoalesce : public GraphPass
{
  public:
    std::string name() const override { return "fanout-coalesce"; }

    int
    run(Dfg &g, const GraphPassOptions &) override
    {
        Surgeon s(g);
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();

        // (a) Fold fanout-of-fanout chains into the parent.
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::fanout || s.nodeDead[i])
                continue;
            int in = n.ins[0];
            int p = g.links[in].src;
            if (p < 0 || s.nodeDead[p] ||
                g.nodes[p].kind != NodeKind::fanout) {
                continue;
            }
            Node &parent = g.nodes[p];
            int idx = indexOf(parent.outs, in);
            parent.outs.erase(parent.outs.begin() + idx);
            for (int l : n.outs) {
                parent.outs.push_back(l);
                g.links[l].src = p;
            }
            s.linkDead[in] = 1;
            s.nodeDead[i] = 1;
            ++rewrites;
        }

        // (b) Splice degenerate 1-way fanouts into direct links.
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::fanout || s.nodeDead[i] ||
                n.outs.size() != 1) {
                continue;
            }
            int in = n.ins[0];
            int out = n.outs[0];
            int c = g.links[out].dst;
            g.nodes[c].ins[indexOf(g.nodes[c].ins, out)] = in;
            g.links[in].dst = c;
            s.linkDead[out] = 1;
            s.nodeDead[i] = 1;
            ++rewrites;
        }

        if (rewrites)
            s.compact();
        return rewrites;
    }
};

// ---- copy propagation / mov-only block elimination ---------------------

class CopyProp : public GraphPass
{
  public:
    std::string name() const override { return "copy-prop"; }

    int
    run(Dfg &g, const GraphPassOptions &) override
    {
        Surgeon s(g);
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::block || s.nodeDead[i])
                continue;
            // Only single-input wiring blocks: a multi-input passthrough
            // is an alignment barrier ordering memory effects (e.g. the
            // foreach sync block) and must survive.
            if (n.ins.size() != 1 || n.outs.empty())
                continue;
            bool wiring = true;
            for (const auto &op : n.ops) {
                if (op.kind != OpKind::mov || op.guard >= 0) {
                    wiring = false;
                    break;
                }
            }
            if (!wiring)
                continue;
            // Trace every output register to the input register.
            std::vector<int> root(n.nRegs, -1);
            int in_reg = n.inputRegs[0];
            root[in_reg] = in_reg;
            for (const auto &op : n.ops) {
                if (op.dst >= 0) {
                    root[op.dst] =
                        (op.a >= 0 && root[op.a] >= 0) ? root[op.a] : -1;
                }
            }
            bool identity = true;
            for (int r : n.outputRegs) {
                if (r < 0 || r >= n.nRegs || root[r] != in_reg) {
                    identity = false;
                    break;
                }
            }
            if (!identity)
                continue;

            int in = n.ins[0];
            if (n.outs.size() == 1) {
                // Pure passthrough: splice the consumer onto the input.
                int out = n.outs[0];
                int c = g.links[out].dst;
                g.nodes[c].ins[indexOf(g.nodes[c].ins, out)] = in;
                g.links[in].dst = c;
                s.linkDead[out] = 1;
                s.nodeDead[i] = 1;
            } else {
                // Identity with duplication: exactly a fanout.
                n.kind = NodeKind::fanout;
                n.ops.clear();
                n.inputRegs.clear();
                n.outputRegs.clear();
                n.nRegs = 0;
            }
            ++rewrites;
        }
        if (rewrites)
            s.compact();
        return rewrites;
    }
};

// ---- value facts per graph version -----------------------------------
// One abstract-interpretation fixpoint per graph version, shared by
// every consumer inside runPasses(): the fact-driven passes below, the
// validator's rate check, and (through GraphOptReport::facts) the
// final analyzeGraph() in CompiledArtifact::build(). runPasses() bumps
// the revision whenever a pass reports rewrites, so facts computed
// before a rewrite are never served after it.

class GraphFacts
{
  public:
    /** The facts of @p g at the current revision, computed at most once
     * per revision. */
    const AbsintReport &
    of(const Dfg &g)
    {
        if (!current()) {
            vals_ = std::make_shared<const AbsintReport>(analyzeValues(g));
            valsRevision_ = revision_;
        }
        return *vals_;
    }

    /** The graph changed: every earlier fact is stale. */
    void rewritten() { ++revision_; }

    /** The facts of the current revision, or null if not computed. */
    std::shared_ptr<const AbsintReport>
    current() const
    {
        return valsRevision_ == revision_ ? vals_ : nullptr;
    }

  private:
    uint64_t revision_ = 0;
    uint64_t valsRevision_ = 0;
    std::shared_ptr<const AbsintReport> vals_;
};

/** A pass that reads value facts. Run on its own it computes them;
 * runPasses() hands it the pipeline's shared GraphFacts instead. */
class FactsPass : public GraphPass
{
  public:
    int
    run(Dfg &g, const GraphPassOptions &opts) final
    {
        GraphFacts facts;
        return runWith(g, opts, facts);
    }

    virtual int runWith(Dfg &g, const GraphPassOptions &opts,
                        GraphFacts &facts) = 0;
};

// ---- cross-block constant/copy propagation -----------------------------
// Consumes the whole-graph value facts of graph/absint.hh: per-link
// constancy, intervals, and bottom ("provably carries no data tokens,
// only barriers"). All rewrites below preserve the barrier structure —
// they splice streams that are provably identical, narrow bundles lane
// by lane, or strip effects that provably never fire — so they hold
// under any schedule of the engine.

class CrossBlockConstProp : public FactsPass
{
  public:
    std::string name() const override { return "cross-block-const-prop"; }

    int
    runWith(Dfg &g, const GraphPassOptions &, GraphFacts &facts) override
    {
        const AbsintReport &vals = facts.of(g);
        Surgeon s(g);
        const std::vector<char> taint = effectTaintedLinks(g, vals);
        std::vector<int> orphans;
        int rewrites = 0;

        rewrites += spliceAlwaysKeepFilters(g, s, vals, taint, orphans);
        rewrites += spliceSingleArmMerges(g, s, vals, taint, orphans);
        rewrites += inlineConstInputs(g, s, vals, taint, orphans);
        rewrites += reroutePassThroughLanes(g, s, taint);
        rewrites += stripUnreachableEffects(g, s, vals);

        while (!orphans.empty()) {
            int l = orphans.back();
            orphans.pop_back();
            int p = g.links[l].src;
            if (p < 0 || s.nodeDead[p])
                continue;
            detachOutput(g, s, p, l, orphans);
        }
        if (rewrites)
            s.compact();
        return rewrites;
    }

  private:
    /**
     * Links with an effectful transitive ancestor (a block carrying
     * memory effects, or a park/restore). Memory-effect ordering is
     * enforced purely by token dependence, so severing such a link —
     * even one whose *value* is a proven constant — can remove the only
     * ordering edge between two conflicting effects and let the engine
     * race them (e.g. the foreach sync tokens that sequence SRAM table
     * fills before their readers). Reads taint too: an anti-dependency
     * (read ordered before a later write) is just as scheduling-borne
     * as a write-write conflict. Only memory-free-cone links may be
     * cut; lanes that are spliced 1:1 keep their ordering and need no
     * check.
     */
    static bool
    touchesMemory(const Node &n)
    {
        for (const auto &op : n.ops) {
            if (isSramOp(op.kind) || isDramOp(op.kind))
                return true;
        }
        return false;
    }

    /** DRAM regions some block of @p g writes. */
    static std::set<int>
    dramWrittenRegions(const Dfg &g)
    {
        std::set<int> written;
        for (const Node &n : g.nodes) {
            for (const auto &op : n.ops) {
                if (op.kind == OpKind::dramWrite)
                    written.insert(op.dram);
            }
        }
        return written;
    }

    /**
     * The accesses of touchesMemory() whose timing another process can
     * observe: any DRAM write, a DRAM read of a region some block
     * writes (@p written), or an SRAM access through a handle @p n did
     * not allocate itself. A fresh buffer's allocation and
     * initialisation race nothing: every later access needs the
     * handle, and the handle leaves through @p n's outputs.
     */
    static bool
    ordersMemory(const Node &n, const std::set<int> &written)
    {
        auto allocatedHere = [&n](int reg) {
            for (const auto &op : n.ops) {
                if (op.kind == OpKind::sramAlloc && op.dst == reg)
                    return true;
            }
            return false;
        };
        for (const auto &op : n.ops) {
            switch (op.kind) {
              case OpKind::dramWrite:
                return true;
              case OpKind::dramRead:
                if (written.count(op.dram))
                    return true;
                break;
              case OpKind::sramRead:
              case OpKind::sramWrite:
              case OpKind::rmwAdd:
              case OpKind::rmwSub:
                if (!allocatedHere(op.a))
                    return true;
                break;
              default:
                break;
            }
        }
        return false;
    }

    /**
     * Links with a memory-touching transitive ancestor that can
     * actually fire. Memory-op ordering — writes against writes, and
     * reads against later writes (anti-dependencies) alike — is
     * enforced purely by token dependence, so severing such a link,
     * even one whose *value* is a proven constant, can remove the only
     * ordering edge between two conflicting accesses and let the
     * engine race them (e.g. the foreach sync tokens that sequence
     * SRAM table fills before their readers). Blocks with a bottom
     * input never assemble a bundle, never execute an op, and
     * therefore never need ordering; they forward taint from their own
     * ancestors but do not add any. Only clean-cone links may be cut —
     * lanes that are spliced 1:1 keep their ordering and need no
     * check.
     */
    static std::vector<char>
    effectTaintedLinks(const Dfg &g, const AbsintReport &vals)
    {
        std::vector<char> nodeTaint(g.nodes.size(), 0);
        std::vector<int> work;
        for (size_t i = 0; i < g.nodes.size(); ++i) {
            const Node &n = g.nodes[i];
            bool t = n.kind == NodeKind::park ||
                     n.kind == NodeKind::restore;
            if (n.kind == NodeKind::block && touchesMemory(n)) {
                bool fires = true;
                for (int l : n.ins)
                    fires &= !vals.links[l].bottom;
                t |= fires || n.ins.empty();
            }
            if (t) {
                nodeTaint[i] = 1;
                work.push_back(static_cast<int>(i));
            }
        }
        while (!work.empty()) {
            int i = work.back();
            work.pop_back();
            for (int l : g.nodes[i].outs) {
                int d = g.links[l].dst;
                if (d >= 0 && !nodeTaint[d]) {
                    nodeTaint[d] = 1;
                    work.push_back(d);
                }
            }
        }
        std::vector<char> linkTaint(g.links.size(), 0);
        for (size_t l = 0; l < g.links.size(); ++l) {
            int p = g.links[l].src;
            linkTaint[l] = p >= 0 && nodeTaint[p];
        }
        return linkTaint;
    }

    /**
     * A filter whose predicate provably always matches its sense is a
     * per-lane identity (data all kept, barriers forwarded 1:1): splice
     * every lane input straight to the lane consumer and orphan the
     * predicate stream.
     */
    static int
    spliceAlwaysKeepFilters(Dfg &g, Surgeon &s, const AbsintReport &vals,
                            const std::vector<char> &taint,
                            std::vector<int> &orphans)
    {
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::filter || s.nodeDead[i])
                continue;
            const AbsVal &pred = vals.links[n.ins[0]];
            bool keep =
                n.sense ? pred.excludesZero() : pred.isZero();
            // The pred stream is severed, so it must carry no memory
            // ordering; the lanes stay spliced through.
            if (!keep || taint[n.ins[0]])
                continue;
            bool elems_ok = true;
            for (size_t j = 0; j < n.outs.size(); ++j)
                elems_ok &= g.links[n.ins[j + 1]].elem ==
                            g.links[n.outs[j]].elem;
            if (!elems_ok)
                continue;
            for (size_t j = 0; j < n.outs.size(); ++j)
                spliceLane(g, s, n.ins[j + 1], n.outs[j], orphans);
            int p0 = n.ins[0];
            s.linkDead[p0] = 1;
            orphans.push_back(p0);
            s.nodeDead[i] = 1;
            ++rewrites;
        }
        return rewrites;
    }

    /**
     * A fwdMerge with one arm proven bottom forwards exactly the live
     * arm's stream: the runtime requires matching barriers on both
     * arms, so the merged output is the live arm's data plus its own
     * barrier train. Splice the live arm through and prune the dead
     * one. (fbMerge is excluded: its drain protocol rewrites barrier
     * levels.)
     */
    static int
    spliceSingleArmMerges(Dfg &g, Surgeon &s, const AbsintReport &vals,
                          const std::vector<char> &taint,
                          std::vector<int> &orphans)
    {
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::fwdMerge || s.nodeDead[i] ||
                n.outs.empty()) {
                continue;
            }
            const size_t half = n.outs.size();
            auto armDead = [&](size_t base) {
                for (size_t j = 0; j < half; ++j)
                    if (!vals.links[n.ins[base + j]].bottom)
                        return false;
                return true;
            };
            bool a_dead = armDead(0);
            bool b_dead = armDead(half);
            if (a_dead == b_dead)
                continue; // both live (nothing provable) or both dead
            size_t live = a_dead ? half : 0;
            size_t dead = a_dead ? 0 : half;
            // The dead arm is severed, so it must carry no memory
            // ordering (a never-firing arm adds no taint of its own).
            bool cut_ok = true;
            for (size_t j = 0; j < half; ++j) {
                cut_ok &= g.links[n.ins[live + j]].elem ==
                          g.links[n.outs[j]].elem;
                cut_ok &= !taint[n.ins[dead + j]];
            }
            if (!cut_ok)
                continue;
            for (size_t j = 0; j < half; ++j) {
                spliceLane(g, s, n.ins[live + j], n.outs[j], orphans);
                int dl = n.ins[dead + j];
                if (!s.linkDead[dl]) {
                    s.linkDead[dl] = 1;
                    orphans.push_back(dl);
                }
            }
            s.nodeDead[i] = 1;
            ++rewrites;
        }
        return rewrites;
    }

    /**
     * A block input lane whose link is proven constant becomes a local
     * cnst op: prepend `cnst reg, value` and drop the lane (keeping at
     * least one input so the block's firing rate is untouched). The
     * producer side is orphaned and narrows away.
     */
    static int
    inlineConstInputs(Dfg &g, Surgeon &s, const AbsintReport &vals,
                      const std::vector<char> &taint,
                      std::vector<int> &orphans)
    {
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::block || s.nodeDead[i])
                continue;
            for (int idx = static_cast<int>(n.ins.size()) - 1;
                 idx >= 0 && n.ins.size() > 1; --idx) {
                int l = n.ins[idx];
                if (s.linkDead[l])
                    continue;
                // A direct source feed stays: the program-entry source
                // list is conserved, so cutting the lane only grows a
                // sink without freeing anything upstream.
                int p = g.links[l].src;
                if (p >= 0 && g.nodes[p].kind == NodeKind::source)
                    continue;
                auto c = vals.constantOf(l);
                if (!c || taint[l])
                    continue;
                int reg = n.inputRegs[idx];
                n.ins.erase(n.ins.begin() + idx);
                n.inputRegs.erase(n.inputRegs.begin() + idx);
                if (reg >= 0) {
                    BlockOp op;
                    op.kind = OpKind::cnst;
                    op.dst = reg;
                    op.imm = static_cast<Word>(*c);
                    n.ops.insert(n.ops.begin(), op);
                }
                s.linkDead[l] = 1;
                orphans.push_back(l);
                ++rewrites;
            }
        }
        return rewrites;
    }

    /**
     * A block output lane that is an unguarded mov-chain copy of an
     * input lane whose producer is a fanout carries exactly the
     * fanout's stream (same data, same barriers): serve the consumer
     * from the fanout directly and drop the lane from the block.
     *
     * The values are the same but the timing is not: the rerouted
     * consumer no longer waits for the block to fire. When the block
     * carries memory ordering — an ordersMemory() access of its own,
     * or another input in @p taint, e.g. the foreach sync token that
     * follows an SRAM table fill — the lane may only go if the
     * consumer still waits for the block some other way
     * (orderKeptWithout).
     */
    static int
    reroutePassThroughLanes(Dfg &g, Surgeon &s,
                            const std::vector<char> &taint)
    {
        int rewrites = 0;
        const std::set<int> written = dramWrittenRegions(g);
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::block || s.nodeDead[i] ||
                n.ins.empty()) {
                continue;
            }
            // root[r] = input lane index r is a pure copy of, else -1.
            std::vector<int> root(static_cast<size_t>(n.nRegs), -1);
            for (size_t j = 0; j < n.ins.size(); ++j)
                if (n.inputRegs[j] >= 0)
                    root[static_cast<size_t>(n.inputRegs[j])] =
                        static_cast<int>(j);
            for (const auto &op : n.ops) {
                if (op.dst < 0)
                    continue;
                bool copy = op.kind == OpKind::mov && op.guard < 0 &&
                            op.a >= 0;
                root[static_cast<size_t>(op.dst)] =
                    copy ? root[static_cast<size_t>(op.a)] : -1;
            }
            for (int k = static_cast<int>(n.outs.size()) - 1; k >= 0;
                 --k) {
                int r = n.outputRegs[k];
                if (r < 0)
                    continue;
                int j = root[static_cast<size_t>(r)];
                if (j < 0)
                    continue;
                int in_l = n.ins[static_cast<size_t>(j)];
                int out_l = n.outs[static_cast<size_t>(k)];
                if (s.linkDead[in_l] || s.linkDead[out_l])
                    continue;
                int p = g.links[in_l].src;
                if (p < 0 || s.nodeDead[p] ||
                    g.nodes[p].kind != NodeKind::fanout ||
                    g.nodes[p].replicateRegion != n.replicateRegion ||
                    g.links[in_l].elem != g.links[out_l].elem) {
                    continue;
                }
                bool ordering = ordersMemory(n, written);
                for (int l : n.ins)
                    ordering |= l != in_l && taint[l];
                if (ordering && !orderKeptWithout(g, n, out_l))
                    continue;
                g.nodes[p].outs.push_back(out_l);
                g.links[out_l].src = p;
                n.outs.erase(n.outs.begin() + k);
                n.outputRegs.erase(n.outputRegs.begin() + k);
                ++rewrites;
            }
        }
        return rewrites;
    }

    /**
     * True if the consumer of @p out_l (an output of block @p n) still
     * fires only after @p n once @p out_l stops coming from @p n: it
     * is a sink (no effects to order), or another output of @p n feeds
     * the same input bundle of it — a block's or filter's inputs, or
     * one arm of a merge — and bundles assemble per thread.
     */
    static bool
    orderKeptWithout(const Dfg &g, const Node &n, int out_l)
    {
        const Node &c = g.nodes[g.links[out_l].dst];
        if (c.kind == NodeKind::sink)
            return true;
        auto bundle = [&c](int l) {
            switch (c.kind) {
              case NodeKind::block:
              case NodeKind::filter:
                return 0;
              case NodeKind::fwdMerge:
              case NodeKind::fbMerge:
                return indexOf(c.ins, l) < static_cast<int>(c.outs.size())
                           ? 0 : 1;
              default:
                return -1;
            }
        };
        const int want = bundle(out_l);
        if (want < 0)
            return false;
        for (int o : n.outs) {
            if (o != out_l && g.links[o].dst == c.id && bundle(o) == want)
                return true;
        }
        return false;
    }

    /**
     * A block with a bottom input never assembles a data bundle, so
     * its memory effects can never fire: strip them (under the
     * dropEffects validation permission) so dead-node elimination can
     * collapse the statically-dead region around it.
     */
    static int
    stripUnreachableEffects(Dfg &g, Surgeon &s, const AbsintReport &vals)
    {
        int rewrites = 0;
        for (size_t i = 0; i < g.nodes.size(); ++i) {
            Node &n = g.nodes[i];
            if (n.kind != NodeKind::block || s.nodeDead[i] ||
                n.ins.empty() || !blockHasEffects(n)) {
                continue;
            }
            bool dead_in = false;
            for (int l : n.ins)
                if (static_cast<size_t>(l) < vals.links.size())
                    dead_in |= vals.links[l].bottom;
            if (!dead_in)
                continue;
            auto dropped = std::remove_if(
                n.ops.begin(), n.ops.end(),
                [](const BlockOp &op) { return isEffectOp(op.kind); });
            n.ops.erase(dropped, n.ops.end());
            ++rewrites;
        }
        return rewrites;
    }

    /** Reroute out_l's consumer to read in_l directly. */
    static void
    spliceLane(Dfg &g, Surgeon &s, int in_l, int out_l,
               std::vector<int> &orphans)
    {
        if (s.linkDead[out_l]) {
            // The consumer already went away: the input is an orphan.
            if (!s.linkDead[in_l]) {
                s.linkDead[in_l] = 1;
                orphans.push_back(in_l);
            }
            return;
        }
        int c = g.links[out_l].dst;
        g.nodes[c].ins[indexOf(g.nodes[c].ins, out_l)] = in_l;
        g.links[in_l].dst = c;
        s.linkDead[out_l] = 1;
    }
};

// ---- in-block constant folding / simplification ------------------------
// Arithmetic semantics come from graph::evalPureOp (dfg.cc), the same
// definition the executor uses, so folding cannot drift from runtime.

/** Operand count actually read by a pure op (a, then b, then c). */
int
pureArity(OpKind kind)
{
    switch (kind) {
      case OpKind::cnst: return 0;
      case OpKind::mov:
      case OpKind::lnot:
      case OpKind::bnot:
      case OpKind::neg:
      case OpKind::norm:
        return 1;
      case OpKind::sel: return 3;
      default: return 2;
    }
}

class ConstFold : public GraphPass
{
  public:
    std::string name() const override { return "const-fold"; }

    int
    run(Dfg &g, const GraphPassOptions &) override
    {
        int rewrites = 0;
        for (auto &n : g.nodes) {
            if (n.kind == NodeKind::block)
                rewrites += simplifyBlock(n);
        }
        return rewrites;
    }

  private:
    static void
    toCnst(BlockOp &op, Word value)
    {
        op.kind = OpKind::cnst;
        op.imm = value;
        op.a = op.b = op.c = -1;
    }

    static void
    toMov(BlockOp &op, int src)
    {
        op.kind = OpKind::mov;
        op.a = src;
        op.b = op.c = -1;
        op.imm = 0;
    }

    int
    simplifyBlock(Node &n)
    {
        int changed = 0;

        // Definition counts; blocks are SSA-shaped by construction but
        // every fact below is gated on single-def so a violating block
        // is simply left alone.
        std::vector<int> defs(n.nRegs, 0);
        for (int r : n.inputRegs)
            ++defs[r];
        for (const auto &op : n.ops) {
            if (op.dst >= 0)
                ++defs[op.dst];
        }
        auto single = [&](int r) {
            return r >= 0 && r < n.nRegs && defs[r] == 1;
        };

        std::vector<char> is_const(n.nRegs, 0);
        std::vector<Word> const_val(n.nRegs, 0);
        std::vector<int> alias(n.nRegs);
        // A fact about a register is only usable once its (unique)
        // definition has been seen — a read before an out-of-order
        // write observes zero, not the eventual value.
        std::vector<char> defined(n.nRegs, 0);
        for (int r : n.inputRegs)
            defined[r] = 1;
        for (int r = 0; r < n.nRegs; ++r) {
            alias[r] = r;
            // A register that is never defined reads as zero.
            if (defs[r] == 0) {
                is_const[r] = 1;
                const_val[r] = 0;
                defined[r] = 1;
            }
        }
        auto res = [&](int r) {
            return (r >= 0 && r < n.nRegs) ? alias[r] : r;
        };

        std::vector<char> keep(n.ops.size(), 1);
        for (size_t oi = 0; oi < n.ops.size(); ++oi) {
            BlockOp &op = n.ops[oi];

            // Forward operands through copies.
            int a = res(op.a), b = res(op.b), c = res(op.c);
            int guard = res(op.guard);
            if (a != op.a || b != op.b || c != op.c || guard != op.guard) {
                op.a = a;
                op.b = b;
                op.c = c;
                op.guard = guard;
                ++changed;
            }

            // Constant guards: always-on drops the guard, always-off
            // drops the op (an unwritten destination reads as zero,
            // exactly like the skipped original).
            if (op.guard >= 0 && is_const[op.guard]) {
                if (const_val[op.guard] != 0) {
                    op.guard = -1;
                } else {
                    keep[oi] = 0;
                }
                ++changed;
                if (!keep[oi])
                    continue;
            }

            if (op.guard < 0)
                foldOp(n, op, is_const, const_val, changed);

            // Record dataflow facts for single-def unguarded results.
            if (op.dst >= 0 && single(op.dst) && op.guard < 0) {
                if (op.kind == OpKind::cnst) {
                    is_const[op.dst] = 1;
                    const_val[op.dst] = op.imm;
                } else if (op.kind == OpKind::mov && op.a >= 0) {
                    int src = res(op.a);
                    if (is_const[src]) {
                        is_const[op.dst] = 1;
                        const_val[op.dst] = const_val[src];
                    }
                    if (single(src) && defined[src])
                        alias[op.dst] = src;
                }
            }
            if (op.dst >= 0 && op.dst < n.nRegs)
                defined[op.dst] = 1;
        }

        // Outputs read final register values; final aliases are valid
        // substitutes (targets are single-def).
        for (int &r : n.outputRegs) {
            int rr = res(r);
            if (rr != r) {
                r = rr;
                ++changed;
            }
        }

        // Dead-op elimination (backward): pure ops whose results are
        // never read and never exported can go.
        std::vector<char> live_regs(n.nRegs, 0);
        for (int r : n.outputRegs)
            live_regs[r] = 1;
        for (size_t oi = n.ops.size(); oi-- > 0;) {
            BlockOp &op = n.ops[oi];
            if (!keep[oi])
                continue;
            bool needed = isEffectOp(op.kind) ||
                (op.dst >= 0 && live_regs[op.dst]);
            if (!needed) {
                keep[oi] = 0;
                ++changed;
                continue;
            }
            for (int r : {op.a, op.b, op.c, op.guard}) {
                if (r >= 0 && r < n.nRegs)
                    live_regs[r] = 1;
            }
        }
        if (changed) {
            std::vector<BlockOp> ops;
            ops.reserve(n.ops.size());
            for (size_t oi = 0; oi < n.ops.size(); ++oi) {
                if (keep[oi])
                    ops.push_back(n.ops[oi]);
            }
            n.ops = std::move(ops);
        }
        return changed;
    }

    /** Constant-fold / algebraically simplify one unguarded op. */
    void
    foldOp(Node &n, BlockOp &op, const std::vector<char> &is_const,
           const std::vector<Word> &const_val, int &changed)
    {
        (void)n;
        auto konst = [&](int r, Word &out) {
            if (r >= 0 && is_const[r]) {
                out = const_val[r];
                return true;
            }
            return false;
        };

        // Full folding when every read operand is constant.
        const int arity = pureArity(op.kind);
        Word a = 0, b = 0, c = 0;
        bool ca = konst(op.a, a), cb = konst(op.b, b), cc = konst(op.c, c);
        bool all_const = (arity < 1 || ca) && (arity < 2 || cb) &&
            (arity < 3 || cc);
        if (op.kind != OpKind::cnst && all_const) {
            Word out = 0;
            if (evalPureOp(op, a, b, c, out)) {
                toCnst(op, out);
                ++changed;
                return;
            }
        }

        // Algebraic identities with one constant side.
        switch (op.kind) {
          case OpKind::sel:
            if (ca) {
                toMov(op, a != 0 ? op.b : op.c);
                ++changed;
            }
            break;
          case OpKind::add:
            if (cb && b == 0) {
                toMov(op, op.a);
                ++changed;
            } else if (ca && a == 0) {
                toMov(op, op.b);
                ++changed;
            }
            break;
          case OpKind::sub:
          case OpKind::shl:
          case OpKind::shrs:
          case OpKind::shru:
            if (cb && (op.kind == OpKind::sub ? b == 0 : (b & 31) == 0)) {
                toMov(op, op.a);
                ++changed;
            }
            break;
          case OpKind::mul:
            if ((cb && b == 1) || (ca && a == 1)) {
                toMov(op, cb && b == 1 ? op.a : op.b);
                ++changed;
            } else if ((cb && b == 0) || (ca && a == 0)) {
                toCnst(op, 0);
                ++changed;
            }
            break;
          case OpKind::divs:
          case OpKind::divu:
            if (cb && b == 1) {
                toMov(op, op.a);
                ++changed;
            }
            break;
          case OpKind::rems:
          case OpKind::remu:
            if (cb && b == 1) {
                toCnst(op, 0);
                ++changed;
            }
            break;
          case OpKind::andb:
            if ((cb && b == 0) || (ca && a == 0)) {
                toCnst(op, 0);
                ++changed;
            } else if (cb && b == 0xffffffffu) {
                toMov(op, op.a);
                ++changed;
            }
            break;
          case OpKind::orb:
          case OpKind::xorb:
            if (cb && b == 0) {
                toMov(op, op.a);
                ++changed;
            } else if (ca && a == 0) {
                toMov(op, op.b);
                ++changed;
            }
            break;
          case OpKind::land:
            if ((ca && a == 0) || (cb && b == 0)) {
                toCnst(op, 0);
                ++changed;
            }
            break;
          case OpKind::lor:
            if ((ca && a != 0) || (cb && b != 0)) {
                toCnst(op, 1);
                ++changed;
            }
            break;
          case OpKind::norm:
            if (lang::bitWidth(op.elem) >= 32) {
                toMov(op, op.a);
                ++changed;
            }
            break;
          default:
            break;
        }
    }
};

// ---- block fusion ------------------------------------------------------

class BlockFusion : public GraphPass
{
  public:
    std::string name() const override { return "block-fusion"; }

    int
    run(Dfg &g, const GraphPassOptions &opts) override
    {
        Surgeon s(g);
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            if (g.nodes[i].kind != NodeKind::block || s.nodeDead[i])
                continue;
            // Chain: keep absorbing the unique downstream block.
            for (;;) {
                Node &a = g.nodes[i];
                if (a.outs.empty())
                    break;
                int b = g.links[a.outs[0]].dst;
                bool unique = b >= 0 && b != static_cast<int>(i) &&
                    !s.nodeDead[b] &&
                    g.nodes[b].kind == NodeKind::block &&
                    // Never fuse across a replicate-region boundary:
                    // the fused node carries one region id and the
                    // resource model would misattribute the absorbed
                    // block's replicated work.
                    g.nodes[b].replicateRegion == a.replicateRegion;
                for (int l : a.outs)
                    unique = unique && g.links[l].dst == b;
                if (!unique)
                    break;
                const Node &bn = g.nodes[b];
                int extra = 0;
                for (int l : bn.ins)
                    extra += g.links[l].src != static_cast<int>(i);
                int fused_ins = static_cast<int>(a.ins.size()) + extra;
                int fused_outs = static_cast<int>(bn.outs.size());
                if (!blockFusionFits(a, bn, fused_ins, fused_outs,
                                     opts.machine)) {
                    break;
                }
                fuse(g, s, static_cast<int>(i), b);
                ++rewrites;
            }
        }
        if (rewrites)
            s.compact();
        return rewrites;
    }

  private:
    /** Merge block @p bi into block @p ai (every @p ai output feeds
     * @p bi). Register files concatenate; bridge movs join them and
     * are cleaned up by const-fold on the next iteration. */
    static void
    fuse(Dfg &g, Surgeon &s, int ai, int bi)
    {
        Node &a = g.nodes[ai];
        Node &b = g.nodes[bi];
        const int off = a.nRegs;

        for (size_t j = 0; j < b.ins.size(); ++j) {
            int l = b.ins[j];
            if (g.links[l].src != ai)
                continue;
            BlockOp mv;
            mv.kind = OpKind::mov;
            mv.dst = off + b.inputRegs[j];
            mv.a = a.outputRegs[indexOf(a.outs, l)];
            a.ops.push_back(mv);
        }
        for (BlockOp op : b.ops) {
            if (op.dst >= 0)
                op.dst += off;
            if (op.a >= 0)
                op.a += off;
            if (op.b >= 0)
                op.b += off;
            if (op.c >= 0)
                op.c += off;
            if (op.guard >= 0)
                op.guard += off;
            a.ops.push_back(op);
        }

        for (int l : a.outs)
            s.linkDead[l] = 1;
        a.outs.clear();
        a.outputRegs.clear();
        for (size_t k = 0; k < b.outs.size(); ++k) {
            int l = b.outs[k];
            g.links[l].src = ai;
            a.outs.push_back(l);
            a.outputRegs.push_back(off + b.outputRegs[k]);
        }
        for (size_t j = 0; j < b.ins.size(); ++j) {
            int l = b.ins[j];
            if (g.links[l].src == ai)
                continue; // bridge link, already dead
            g.links[l].dst = ai;
            a.ins.push_back(l);
            a.inputRegs.push_back(off + b.inputRegs[j]);
        }
        a.nRegs += b.nRegs;
        a.name += "+" + b.name;
        a.loopDepth = std::max(a.loopDepth, b.loopDepth);
        a.foreachDepth = std::max(a.foreachDepth, b.foreachDepth);
        a.isBulk = a.isBulk || b.isBulk;
        s.nodeDead[bi] = 1;
    }
};

// ---- replicate bufferization (Section V-C(d)) --------------------------

class ReplicateBufferize : public GraphPass
{
  public:
    std::string name() const override { return "replicate-bufferize"; }

    int
    run(Dfg &g, const GraphPassOptions &opts) override
    {
        if (g.replicates.empty())
            return 0;

        // Pass-over candidates per region, collected up front so a
        // link entangled with more than one region (nested or chained
        // regions) can be refused outright: a single park/restore pair
        // cannot sit on the correct side of two boundaries.
        const int n_regions = static_cast<int>(g.replicates.size());
        std::vector<std::vector<int>> crossings(n_regions);
        std::vector<int> owner(g.links.size(), -1); // -2: contested
        for (int r = 0; r < n_regions; ++r) {
            crossings[r] = g.replicatePassOverLinks(r);
            for (int l : crossings[r])
                owner[l] = owner[l] == -1 ? r : -2;
        }

        Surgeon s(g);
        int rewrites = 0;
        for (int r = 0; r < n_regions; ++r) {
            // Classify the region body. Order-safe regions (blocks,
            // fanouts, sinks only) keep the thread stream intact, so a
            // positional FIFO park re-pairs correctly. Filters and
            // merges (a while header, an if join, thread exits) emit
            // threads out of entry order — their pass-over values ride
            // the bundles and are converted to ordinal-keyed parks
            // below. Counters/broadcasts/reduces multiply or contract
            // the thread stream (a fork's distribution machinery):
            // one parked value per entering thread cannot re-pair
            // with several exiting ones, so such regions stay refused.
            bool order_safe = true, multiplies = false;
            for (const auto &n : g.nodes) {
                if (n.replicateRegion != r)
                    continue;
                if (n.kind != NodeKind::block &&
                    n.kind != NodeKind::fanout &&
                    n.kind != NodeKind::sink) {
                    order_safe = false;
                }
                if (n.kind == NodeKind::counter ||
                    n.kind == NodeKind::broadcast ||
                    n.kind == NodeKind::reduce) {
                    multiplies = true;
                }
            }
            if (order_safe) {
                rewrites += parkCrossings(g, r, crossings[r], owner, opts);
            } else if (!multiplies) {
                rewrites += keyRides(g, s, r, opts);
            }
            g.replicates[r].bufferized = g.replicateParkedValues(r);
        }
        s.grow();
        bool surgery =
            std::find(s.nodeDead.begin(), s.nodeDead.end(), 1) !=
                s.nodeDead.end() ||
            std::find(s.linkDead.begin(), s.linkDead.end(), 1) !=
                s.linkDead.end();
        if (surgery)
            s.compact();
        return rewrites;
    }

  private:
    /** FIFO-park the pure crossing links of order-preserving region
     * @p r (the PR-4 behavior, unchanged). */
    static int
    parkCrossings(Dfg &g, int r, const std::vector<int> &crossings,
                  const std::vector<int> &owner,
                  const GraphPassOptions &opts)
    {
        std::vector<int> elig;
        for (int l : crossings) {
            if (owner[l] != r)
                continue; // nested-region refusal
            const Node &src = g.nodes[g.links[l].src];
            const Node &dst = g.nodes[g.links[l].dst];
            // Endpoints inside some other replicate region would
            // put the park inside that region and replicate it.
            if (src.replicateRegion >= 0 || dst.replicateRegion >= 0)
                continue;
            if (isParkKind(src.kind) || isParkKind(dst.kind))
                continue;
            // Dangling streams die in DCE; parking them buys
            // nothing and would pin the sink alive.
            if (dst.kind == NodeKind::sink)
                continue;
            // A value also consumed inside the region already
            // rides its distribution/collection trees; the pass-
            // over copy is not a pure pass-over (V-C(d)).
            if (valueEntersRegion(g, l, r))
                continue;
            elig.push_back(l);
        }
        int parked = g.replicateParkedValues(r);
        // Table II budget: one parked value per MU bank of the
        // region's park buffer. Overflow bails the whole region —
        // the collection trees must then be sized for the carried
        // set anyway, so a partial park would not shrink them.
        if (parked + static_cast<int>(elig.size()) >
            opts.machine.muBanks) {
            return 0;
        }
        for (int l : elig)
            parkLink(g, l, r);
        return static_cast<int>(elig.size());
    }

    static bool
    isParkKind(NodeKind kind)
    {
        return kind == NodeKind::park || kind == NodeKind::restore ||
            kind == NodeKind::ordinal;
    }

    /** New helper nodes sit at the region boundary: inherit placement
     * annotations from @p like (an outside endpoint of the rewrite). */
    static void
    annotateFrom(Dfg &g, Node &n, int like)
    {
        const Node &src = g.nodes[like];
        n.loopDepth = src.loopDepth;
        n.foreachDepth = src.foreachDepth;
        n.isBulk = src.isBulk;
    }

    /**
     * Ordinal-keyed parking for thread-reordering (but 1:1) region
     * @p region. The pass-over values of such a region ride its
     * bundles — lowering cannot stash them as crossing links because a
     * positional re-pair would scramble values once the region emits
     * threads out of entry order. For every pure ride lane
     * (Dfg::replicateRideLanes) the value is instead parked in SRAM
     * under its arrival ordinal before the region; one ride's
     * in-region path per exit point is repurposed as the ordinal lane
     * (fed by a fresh ordinal node that enumerates entering threads),
     * the remaining ride lanes are removed from every bundle they
     * widened, and each restore becomes an associative lookup driven
     * by the ordinal stream emerging at the region exit. Returns the
     * number of keyed park/restore pairs created.
     */
    static int
    keyRides(Dfg &g, Surgeon &s, int region, const GraphPassOptions &opts)
    {
        auto rides = g.replicateRideLanes(region);
        if (rides.empty())
            return 0;

        // Group rides by the node their exit leaves from: every member
        // of a group exits the region in the same stream order, so one
        // ordinal tap (the group's carrier lane) keys them all.
        std::vector<std::vector<const ReplicateRide *>> groups;
        {
            std::vector<std::pair<int, int>> group_of; // producer, idx
            for (const auto &ride : rides) {
                // Dangling streams die in DCE; parking buys nothing.
                if (g.nodes[g.links[ride.exit].dst].kind ==
                    NodeKind::sink) {
                    continue;
                }
                int p = g.links[ride.exit].src;
                int gi = -1;
                for (const auto &[prod, idx] : group_of) {
                    if (prod == p)
                        gi = idx;
                }
                if (gi < 0) {
                    gi = static_cast<int>(groups.size());
                    group_of.emplace_back(p, gi);
                    groups.emplace_back();
                }
                groups[gi].push_back(&ride);
            }
        }
        if (groups.empty())
            return 0;

        // Feasibility: a group's first member is the carrier (its lane
        // stays, repurposed for the ordinal); every other member's
        // lane is removed from the region, which must never empty a
        // filter/merge bundle or strip a block's last input.
        std::vector<int> ins_lost(g.nodes.size(), 0);
        std::vector<int> outs_lost(g.nodes.size(), 0);
        std::vector<std::vector<const ReplicateRide *>> plan(groups.size());
        int total = 0;
        for (size_t gi = 0; gi < groups.size(); ++gi) {
            for (size_t mi = 0; mi < groups[gi].size(); ++mi) {
                const ReplicateRide *ride = groups[gi][mi];
                if (mi == 0) {
                    plan[gi].push_back(ride);
                    ++total;
                    continue;
                }
                std::vector<std::pair<int, int>> din, dout;
                auto bump = [](std::vector<std::pair<int, int>> &v,
                               int id) {
                    for (auto &[nid, cnt] : v) {
                        if (nid == id) {
                            ++cnt;
                            return;
                        }
                    }
                    v.emplace_back(id, 1);
                };
                for (int l : ride->links) {
                    int dst = g.links[l].dst, src = g.links[l].src;
                    if (g.nodes[dst].replicateRegion == region)
                        bump(din, dst);
                    if (g.nodes[src].replicateRegion == region)
                        bump(dout, src);
                }
                bool fits = true;
                for (const auto &[nid, lost] : dout) {
                    const Node &n = g.nodes[nid];
                    if (n.kind == NodeKind::filter ||
                        n.kind == NodeKind::fwdMerge ||
                        n.kind == NodeKind::fbMerge) {
                        fits = fits &&
                            static_cast<int>(n.outs.size()) -
                                outs_lost[nid] - lost >= 1;
                    }
                }
                for (const auto &[nid, lost] : din) {
                    const Node &n = g.nodes[nid];
                    if (n.kind == NodeKind::block) {
                        fits = fits &&
                            static_cast<int>(n.ins.size()) -
                                ins_lost[nid] - lost >= 1;
                    }
                }
                if (!fits)
                    continue;
                for (const auto &[nid, lost] : din)
                    ins_lost[nid] += lost;
                for (const auto &[nid, lost] : dout)
                    outs_lost[nid] += lost;
                plan[gi].push_back(ride);
                ++total;
            }
        }

        // Table II budget: keyed slots share the region's MU banks
        // with FIFO parks. Overflow bails the whole region, mirroring
        // the crossing-park discipline.
        if (g.replicateParkedValues(region) + total >
            opts.machine.muBanks) {
            return 0;
        }

        std::vector<char> dead;
        for (const auto &members : plan) {
            if (members.empty())
                continue;
            const ReplicateRide *carrier = members[0];

            // Exit consumer ports, recorded before any rewiring.
            std::vector<std::pair<int, int>> ports;
            for (const ReplicateRide *m : members) {
                int c = g.links[m->exit].dst;
                ports.emplace_back(c, indexOf(g.nodes[c].ins, m->exit));
            }
            const int anno = ports[0].first;

            // Carrier entry -> fanout{park value, ordinal}; the fresh
            // ordinal stream takes over the carrier's region-entry
            // port and rides its old path through every bundle.
            const int entry = carrier->entry;
            const int into = g.links[entry].dst;
            const int into_port = indexOf(g.nodes[into].ins, entry);
            const std::string base = g.links[entry].name;

            auto &fan = g.newNode(NodeKind::fanout, "ordfan." + base);
            annotateFrom(g, fan, anno);
            const int fan_id = fan.id;
            g.links[entry].dst = fan_id;
            g.nodes[fan_id].ins.push_back(entry);
            int vlink = g.newLink(base + ".v", g.links[entry].elem);
            g.connectOut(fan_id, vlink);
            int tlink = g.newLink(base + ".th", Scalar::i32);
            g.connectOut(fan_id, tlink);

            auto &ord = g.newNode(NodeKind::ordinal, "ord." + base);
            ord.parkRegion = region;
            annotateFrom(g, ord, anno);
            const int ord_id = ord.id;
            g.connectIn(ord_id, tlink);
            int ord_link = g.newLink(base + ".ord", Scalar::i32);
            g.connectOut(ord_id, ord_link);
            g.links[ord_link].dst = into;
            g.nodes[into].ins[into_port] = ord_link;
            for (int l : carrier->links) {
                if (l != entry)
                    g.links[l].elem = Scalar::i32;
            }

            // The ordinal stream emerging at the region exit keys
            // every restore of the group.
            const int exit = carrier->exit;
            std::vector<int> keys;
            if (members.size() > 1) {
                auto &kfan =
                    g.newNode(NodeKind::fanout, "keyfan." + base);
                annotateFrom(g, kfan, anno);
                const int kfan_id = kfan.id;
                g.links[exit].dst = kfan_id;
                g.nodes[kfan_id].ins.push_back(exit);
                for (size_t i = 0; i < members.size(); ++i) {
                    int kl = g.newLink(base + ".key", Scalar::i32);
                    g.connectOut(kfan_id, kl);
                    keys.push_back(kl);
                }
            } else {
                keys.push_back(exit);
            }

            for (size_t i = 0; i < members.size(); ++i) {
                const ReplicateRide *m = members[i];
                const Scalar elem = g.links[m->entry].elem;
                const std::string nm = g.links[m->entry].name;
                auto &park = g.newNode(NodeKind::park, "park." + nm);
                park.parkRegion = region;
                park.keyed = true;
                annotateFrom(g, park, anno);
                const int pk = park.id;
                auto &rest =
                    g.newNode(NodeKind::restore, "restore." + nm);
                rest.parkRegion = region;
                rest.keyed = true;
                annotateFrom(g, rest, anno);
                const int rs = rest.id;
                if (i == 0) {
                    g.connectIn(pk, vlink);
                } else {
                    g.links[m->entry].dst = pk;
                    g.nodes[pk].ins.push_back(m->entry);
                }
                int sram = g.newLink(nm + ".park", elem);
                g.connectOut(pk, sram);
                g.connectIn(rs, sram);
                g.links[keys[i]].dst = rs;
                g.nodes[rs].ins.push_back(keys[i]);
                int rst = g.newLink(nm + ".rst", elem);
                g.connectOut(rs, rst);
                g.links[rst].dst = ports[i].first;
                g.nodes[ports[i].first].ins[ports[i].second] = rst;
            }

            // Non-carrier ride paths leave the region's bundles.
            dead.resize(g.links.size(), 0);
            for (size_t i = 1; i < members.size(); ++i) {
                for (int l : members[i]->links) {
                    if (l == members[i]->entry)
                        continue;
                    dead[l] = 1;
                }
            }
        }
        s.grow();
        if (!dead.empty()) {
            dead.resize(g.links.size(), 0);
            for (size_t l = 0; l < dead.size(); ++l) {
                if (dead[l])
                    s.linkDead[l] = 1;
            }
            sweepLanes(g, s, dead);
        }
        return total;
    }

    /**
     * Drop every port referencing a removed ride lane. A port is gone
     * when its link is marked dead or no longer names the node as its
     * endpoint (the lane's entry was redirected into a park). Bundle
     * nodes drop whole lanes; fanouts/flattens/sinks whose core link
     * is gone die outright (their remaining links are dead too).
     */
    static void
    sweepLanes(Dfg &g, Surgeon &s, const std::vector<char> &dead)
    {
        auto gone_in = [&](const Node &n, int l) {
            return dead[l] || g.links[l].dst != n.id;
        };
        auto gone_out = [&](const Node &n, int l) {
            return dead[l] || g.links[l].src != n.id;
        };
        const size_t n_nodes = g.nodes.size();
        for (size_t i = 0; i < n_nodes; ++i) {
            Node &n = g.nodes[i];
            if (s.nodeDead[i])
                continue;
            switch (n.kind) {
              case NodeKind::block: {
                std::vector<int> ins, in_regs, outs, out_regs;
                for (size_t j = 0; j < n.ins.size(); ++j) {
                    if (!gone_in(n, n.ins[j])) {
                        ins.push_back(n.ins[j]);
                        in_regs.push_back(n.inputRegs[j]);
                    }
                }
                for (size_t j = 0; j < n.outs.size(); ++j) {
                    if (!gone_out(n, n.outs[j])) {
                        outs.push_back(n.outs[j]);
                        out_regs.push_back(n.outputRegs[j]);
                    }
                }
                n.ins = std::move(ins);
                n.inputRegs = std::move(in_regs);
                n.outs = std::move(outs);
                n.outputRegs = std::move(out_regs);
                break;
              }
              case NodeKind::filter: {
                std::vector<int> ins{n.ins[0]}, outs;
                for (size_t j = 0; j < n.outs.size(); ++j) {
                    if (!gone_out(n, n.outs[j])) {
                        outs.push_back(n.outs[j]);
                        ins.push_back(n.ins[j + 1]);
                    }
                }
                n.ins = std::move(ins);
                n.outs = std::move(outs);
                break;
              }
              case NodeKind::fwdMerge:
              case NodeKind::fbMerge: {
                const size_t half = n.outs.size();
                std::vector<int> ins_a, ins_b, outs;
                for (size_t j = 0; j < half; ++j) {
                    if (!gone_out(n, n.outs[j])) {
                        outs.push_back(n.outs[j]);
                        ins_a.push_back(n.ins[j]);
                        ins_b.push_back(n.ins[j + half]);
                    }
                }
                n.ins = std::move(ins_a);
                n.ins.insert(n.ins.end(), ins_b.begin(), ins_b.end());
                n.outs = std::move(outs);
                break;
              }
              case NodeKind::fanout: {
                if (gone_in(n, n.ins[0])) {
                    s.nodeDead[i] = 1;
                    break;
                }
                std::vector<int> outs;
                for (int l : n.outs) {
                    if (!gone_out(n, l))
                        outs.push_back(l);
                }
                n.outs = std::move(outs);
                if (n.outs.empty())
                    s.nodeDead[i] = 1;
                break;
              }
              case NodeKind::flatten:
              case NodeKind::sink:
                if (gone_in(n, n.ins[0]))
                    s.nodeDead[i] = 1;
                break;
              default:
                break;
            }
        }
    }

    /** True if a fanout copy of @p link's value is consumed inside
     * region @p region (walking the surrounding fanout tree both up to
     * its root and down every branch). */
    static bool
    valueEntersRegion(const Dfg &g, int link, int region)
    {
        int root = g.links[link].src;
        while (g.nodes[root].kind == NodeKind::fanout) {
            int up = g.links[g.nodes[root].ins[0]].src;
            if (up < 0 || g.nodes[up].kind != NodeKind::fanout)
                break;
            root = up;
        }
        if (g.nodes[root].kind != NodeKind::fanout)
            return false;
        std::vector<int> stack{root};
        while (!stack.empty()) {
            int id = stack.back();
            stack.pop_back();
            for (int out : g.nodes[id].outs) {
                int c = g.links[out].dst;
                if (c < 0)
                    continue;
                if (g.nodes[c].replicateRegion == region)
                    return true;
                if (g.nodes[c].kind == NodeKind::fanout)
                    stack.push_back(c);
            }
        }
        return false;
    }

    /** Detour @p l through a fresh park/restore pair for @p region:
     * src -> l -> park -> (sram) -> restore -> (rst) -> consumer. */
    static void
    parkLink(Dfg &g, int l, int region)
    {
        const std::string base = g.links[l].name;
        const Scalar elem = g.links[l].elem;
        const int consumer = g.links[l].dst;

        Node &park = g.newNode(NodeKind::park, "park." + base);
        park.parkRegion = region;
        park.loopDepth = g.nodes[consumer].loopDepth;
        park.foreachDepth = g.nodes[consumer].foreachDepth;
        park.isBulk = g.nodes[consumer].isBulk;
        const int pk = park.id;
        Node &rest = g.newNode(NodeKind::restore, "restore." + base);
        rest.parkRegion = region;
        rest.loopDepth = park.loopDepth;
        rest.foreachDepth = park.foreachDepth;
        rest.isBulk = park.isBulk;
        const int rs = rest.id;

        const int idx = indexOf(g.nodes[consumer].ins, l);
        g.links[l].dst = pk;
        g.nodes[pk].ins.push_back(l);
        int sram = g.newLink(base + ".park", elem);
        g.connectOut(pk, sram);
        g.connectIn(rs, sram);
        int rst = g.newLink(base + ".rst", elem);
        g.connectOut(rs, rst);
        g.links[rst].dst = consumer;
        g.nodes[consumer].ins[idx] = rst;
    }
};

// ---- sub-word packing across merges (Section V-B(d)) -------------------

class SubwordPack : public FactsPass
{
  public:
    std::string name() const override { return "subword-pack"; }

    int
    runWith(Dfg &g, const GraphPassOptions &, GraphFacts &facts) override
    {
        int rewrites = 0;
        const size_t n_nodes = g.nodes.size();
        bool any_merge = false;
        for (size_t i = 0; i < n_nodes; ++i)
            any_merge |= g.nodes[i].kind == NodeKind::fwdMerge ||
                         g.nodes[i].kind == NodeKind::fbMerge;
        if (!any_merge)
            return 0;
        // Value analysis widens type-based narrowness: an i32/u32 lane
        // whose interval provably fits a narrow canonical range packs
        // exactly like a type-narrow lane.
        const AbsintReport &vals = facts.of(g);
        for (size_t i = 0; i < n_nodes; ++i) {
            if (g.nodes[i].kind != NodeKind::fwdMerge &&
                g.nodes[i].kind != NodeKind::fbMerge) {
                continue;
            }
            rewrites += packMerge(g, static_cast<int>(i), vals);
        }
        return rewrites;
    }

  private:
    struct Group
    {
        std::vector<int> lanes;
        std::vector<Scalar> effs; ///< effective (possibly virtual) elems
        int bits = 0;
        bool widthDerived = false; ///< any lane narrowed by range facts
    };

    static int
    packMerge(Dfg &g, int mi, const AbsintReport &vals)
    {
        const int half = static_cast<int>(g.nodes[mi].outs.size());

        // Narrow lanes whose element type agrees across both input
        // bundles and the output. Type-narrow lanes (packing relies on
        // the link-value normalization invariant, stated per element
        // type) keep their element; full-width lanes get a virtual
        // narrow element when the interval analysis proves both arms
        // fit one (the merged output is a subset of the arms' union).
        std::vector<int> narrow;
        std::vector<Scalar> eff(static_cast<size_t>(half),
                                Scalar::invalid);
        std::vector<char> derived(static_cast<size_t>(half), 0);
        // A sound interval that escapes a clamp proves the lane is
        // carrying raw words wider than its declared element.
        auto fits = [](const AbsVal &u, const AbsVal &c) {
            return u.bottom ||
                   (u.smin >= c.smin && u.smax <= c.smax &&
                    u.umin >= c.umin && u.umax <= c.umax);
        };
        for (int j = 0; j < half; ++j) {
            const Node &m = g.nodes[mi];
            Scalar e = g.links[m.outs[j]].elem;
            if (g.links[m.ins[j]].elem != e ||
                g.links[m.ins[j + half]].elem != e) {
                continue;
            }
            int w = lang::bitWidth(e);
            if (w > 0 && w < 32) {
                // Distrust the type when the value analysis disagrees:
                // some lanes ride a narrow-typed link with raw words
                // that are never normalized (an SRAM handle inheriting
                // the buffer's char element, e.g.) — masking those
                // corrupts them. Only pack a type-narrow lane whose
                // inferred range actually fits the type's range.
                AbsVal u = joinVal(vals.links[m.ins[j]],
                                   vals.links[m.ins[j + half]]);
                if (!fits(u, typeClamp(e)))
                    continue;
                eff[j] = e;
                narrow.push_back(j);
                continue;
            }
            if (w < 32)
                continue;
            AbsVal u = joinVal(vals.links[m.ins[j]],
                               vals.links[m.ins[j + half]]);
            if (u.bottom)
                continue;
            auto pe = packElem(u);
            if (!pe)
                continue;
            eff[j] = *pe;
            derived[j] = 1;
            narrow.push_back(j);
        }
        if (narrow.size() < 2)
            return 0;

        // First-fit the narrow lanes into shared 32-bit lanes.
        std::vector<Group> groups;
        for (int j : narrow) {
            int w = lang::bitWidth(eff[j]);
            bool placed = false;
            for (auto &grp : groups) {
                if (grp.bits + w <= 32) {
                    grp.lanes.push_back(j);
                    grp.effs.push_back(eff[j]);
                    grp.bits += w;
                    grp.widthDerived |= derived[j] != 0;
                    placed = true;
                    break;
                }
            }
            if (!placed)
                groups.push_back(
                    Group{{j}, {eff[j]}, w, derived[j] != 0});
        }
        groups.erase(std::remove_if(groups.begin(), groups.end(),
                                    [](const Group &grp) {
                                        return grp.lanes.size() < 2;
                                    }),
                     groups.end());
        if (groups.empty())
            return 0;

        std::vector<char> packed(half, 0);
        std::vector<int> pa, pb, po;
        for (const auto &grp : groups) {
            for (int j : grp.lanes)
                packed[j] = 1;
            std::vector<int> ins_a, ins_b, outs;
            for (int j : grp.lanes) {
                ins_a.push_back(g.nodes[mi].ins[j]);
                ins_b.push_back(g.nodes[mi].ins[j + half]);
                outs.push_back(g.nodes[mi].outs[j]);
            }
            // "dpack" marks diamonds packed by range inference (the
            // bench gate counts them); "pack" stays type-driven.
            const char *pre = grp.widthDerived ? "dpack" : "pack";
            pa.push_back(makePackBlock(g, mi, ins_a, grp.effs,
                                       std::string(pre) + ".a"));
            pb.push_back(makePackBlock(g, mi, ins_b, grp.effs,
                                       std::string(pre) + ".b"));
            po.push_back(makeUnpackBlock(g, mi, outs, grp.effs));
        }

        // Rebuild the merge bundles: surviving lanes keep their order,
        // packed lanes append (A-bundle / B-bundle / outs in step).
        Node &m = g.nodes[mi];
        std::vector<int> ins_a, ins_b, outs;
        for (int j = 0; j < half; ++j) {
            if (packed[j])
                continue;
            ins_a.push_back(m.ins[j]);
            ins_b.push_back(m.ins[j + half]);
            outs.push_back(m.outs[j]);
        }
        ins_a.insert(ins_a.end(), pa.begin(), pa.end());
        ins_b.insert(ins_b.end(), pb.begin(), pb.end());
        outs.insert(outs.end(), po.begin(), po.end());
        m.ins = std::move(ins_a);
        m.ins.insert(m.ins.end(), ins_b.begin(), ins_b.end());
        m.outs = std::move(outs);
        return static_cast<int>(groups.size());
    }

    /** Block computing the shared lane: acc |= (v_j & mask) << off.
     * Widths come from the effective elems (virtual for range-narrow
     * i32 lanes); the masked bits round-trip through the unpack
     * block's norm because every value fits the effective type's
     * canonical range. */
    static int
    makePackBlock(Dfg &g, int mi, const std::vector<int> &in_links,
                  const std::vector<Scalar> &effs, const std::string &name)
    {
        Node &blk = g.newNode(NodeKind::block, name);
        annotateLike(g, blk, mi);
        const int bi = blk.id;
        int acc = -1, off = 0;
        for (size_t j = 0; j < in_links.size(); ++j) {
            int l = in_links[j];
            int w = lang::bitWidth(effs[j]);
            int in = static_cast<int>(blk.nRegs++);
            blk.inputRegs.push_back(in);
            g.links[l].dst = bi;
            blk.ins.push_back(l);

            int mask = blk.nRegs++;
            pushOp(blk, OpKind::cnst, mask, -1, -1,
                   w >= 32 ? 0xffffffffu : ((1u << w) - 1u));
            int masked = blk.nRegs++;
            pushOp(blk, OpKind::andb, masked, in, mask);
            int shifted = masked;
            if (off > 0) {
                int sh = blk.nRegs++;
                pushOp(blk, OpKind::cnst, sh, -1, -1,
                       static_cast<Word>(off));
                shifted = blk.nRegs++;
                pushOp(blk, OpKind::shl, shifted, masked, sh);
            }
            if (acc < 0) {
                acc = shifted;
            } else {
                int next = blk.nRegs++;
                pushOp(blk, OpKind::orb, next, acc, shifted);
                acc = next;
            }
            off += w;
        }
        blk.outputRegs.push_back(acc);
        int out = g.newLink("pk", Scalar::i32);
        g.connectOut(bi, out);
        g.links[out].dst = mi;
        return out;
    }

    /** Unpack block: each original output link j reads
     * norm_elem(acc >> off_j); returns the packed link feeding it. */
    static int
    makeUnpackBlock(Dfg &g, int mi, const std::vector<int> &out_links,
                    const std::vector<Scalar> &effs)
    {
        Node &blk = g.newNode(NodeKind::block, "unpack");
        annotateLike(g, blk, mi);
        const int bi = blk.id;
        int in = blk.nRegs++;
        blk.inputRegs.push_back(in);
        int off = 0;
        for (size_t k = 0; k < out_links.size(); ++k) {
            int l = out_links[k];
            Scalar elem = effs[k];
            int w = lang::bitWidth(elem);
            int shifted = in;
            if (off > 0) {
                int sh = blk.nRegs++;
                pushOp(blk, OpKind::cnst, sh, -1, -1,
                       static_cast<Word>(off));
                shifted = blk.nRegs++;
                pushOp(blk, OpKind::shru, shifted, in, sh);
            }
            int lane = blk.nRegs++;
            pushOp(blk, OpKind::norm, lane, shifted).elem = elem;
            blk.outputRegs.push_back(lane);
            g.links[l].src = bi;
            blk.outs.push_back(l);
            off += w;
        }
        int packed = g.newLink("pk", Scalar::i32);
        g.links[packed].src = mi;
        g.connectIn(bi, packed);
        return packed;
    }

    static BlockOp &
    pushOp(Node &blk, OpKind kind, int dst, int a = -1, int b = -1,
           Word imm = 0)
    {
        BlockOp op;
        op.kind = kind;
        op.dst = dst;
        op.a = a;
        op.b = b;
        op.imm = imm;
        blk.ops.push_back(op);
        return blk.ops.back();
    }

    /** Pack/unpack contexts sit right at the merge: inherit its
     * placement annotations (and region membership). */
    static void
    annotateLike(Dfg &g, Node &blk, int mi)
    {
        const Node &m = g.nodes[mi];
        blk.loopDepth = m.loopDepth;
        blk.foreachDepth = m.foreachDepth;
        blk.replicateRegion = m.replicateRegion;
        blk.isBulk = m.isBulk;
        if (m.replicateRegion >= 0)
            g.replicates[m.replicateRegion].nodeIds.push_back(blk.id);
    }
};

} // namespace

std::unique_ptr<GraphPass>
makeConstFoldPass()
{
    return std::make_unique<ConstFold>();
}

std::unique_ptr<GraphPass>
makeCrossBlockConstPropPass()
{
    return std::make_unique<CrossBlockConstProp>();
}

std::unique_ptr<GraphPass>
makeCopyPropPass()
{
    return std::make_unique<CopyProp>();
}

std::unique_ptr<GraphPass>
makeFanoutCoalescePass()
{
    return std::make_unique<FanoutCoalesce>();
}

std::unique_ptr<GraphPass>
makeBlockFusionPass()
{
    return std::make_unique<BlockFusion>();
}

std::unique_ptr<GraphPass>
makeDeadNodeElimPass()
{
    return std::make_unique<DeadNodeElim>();
}

std::unique_ptr<GraphPass>
makeReplicateBufferizePass()
{
    return std::make_unique<ReplicateBufferize>();
}

std::unique_ptr<GraphPass>
makeSubwordPackPass()
{
    return std::make_unique<SubwordPack>();
}

std::vector<std::unique_ptr<GraphPass>>
makeDefaultPasses(const GraphPassOptions &opts)
{
    std::vector<std::unique_ptr<GraphPass>> out;
    out.push_back(makeConstFoldPass());
    // Cross-block propagation right after in-block folding: folded
    // cnst outputs become whole-graph facts, and the cnst wiring it
    // injects is folded/fused by the passes behind it next iteration.
    out.push_back(makeCrossBlockConstPropPass());
    out.push_back(makeCopyPropPass());
    out.push_back(makeFanoutCoalescePass());
    out.push_back(makeBlockFusionPass());
    out.push_back(makeDeadNodeElimPass());
    // The structural rewrites run after cleanup so parks and packed
    // lanes are decided on the settled graph, not on wiring blocks and
    // dead cones the earlier passes are about to erase.
    if (opts.replicateBufferize)
        out.push_back(makeReplicateBufferizePass());
    if (opts.subwordPack)
        out.push_back(makeSubwordPackPass());
    return out;
}

GraphOptReport
runPasses(Dfg &dfg, const std::vector<std::unique_ptr<GraphPass>> &passes,
          const GraphPassOptions &opts)
{
    GraphOptReport rep;
    rep.nodesBefore = static_cast<int>(dfg.nodes.size());
    rep.linksBefore = static_cast<int>(dfg.links.size());
    for (const auto &pass : passes)
        rep.rewrites.emplace_back(pass->name(), 0);

    // A pass reporting no rewrites leaves the graph as it found it, so
    // the post-graph account of the last validated pass is the
    // pre-graph account of the next one that applies.
    GraphFacts facts;
    TokenAccount account;
    if (opts.validate)
        account = accountTokens(dfg);
    for (int iter = 0; iter < kMaxIterations; ++iter) {
        int any = 0;
        for (size_t pi = 0; pi < passes.size(); ++pi) {
            GraphPass &pass = *passes[pi];
            auto *facts_pass = dynamic_cast<FactsPass *>(&pass);
            int applied = facts_pass ? facts_pass->runWith(dfg, opts, facts)
                                     : pass.run(dfg, opts);
            rep.rewrites[pi].second += applied;
            any += applied;
            if (!applied)
                continue;
            facts.rewritten();
            dfg.verify();
            if (opts.validate) {
                TokenAccount now;
                auto diags = validateRewrite(pass.name(), account, dfg,
                                             facts.of(dfg), &now);
                if (hasErrors(diags))
                    throw ValidationError(pass.name(), std::move(diags));
                account = std::move(now);
                ++rep.validatedPasses;
            }
        }
        ++rep.iterations;
        if (!any)
            break;
    }
    rep.nodesAfter = static_cast<int>(dfg.nodes.size());
    rep.linksAfter = static_cast<int>(dfg.links.size());
    rep.facts = facts.current();
    return rep;
}

GraphOptReport
optimize(Dfg &dfg, const GraphPassOptions &opts)
{
    if (!opts.enable) {
        GraphOptReport rep;
        rep.nodesBefore = rep.nodesAfter =
            static_cast<int>(dfg.nodes.size());
        rep.linksBefore = rep.linksAfter =
            static_cast<int>(dfg.links.size());
        return rep;
    }
    auto passes = makeDefaultPasses(opts);
    return runPasses(dfg, passes, opts);
}

} // namespace graph
} // namespace revet
