/**
 * @file
 * The streaming dataflow graph (DFG): Revet's compilation target.
 *
 * A Dfg is a network of nodes connected by SLTF links. Block nodes hold
 * straight-line element-wise op sequences (one virtual context each,
 * split against the Table II limits by the resource model); every other
 * node kind is one of the Section III-B streaming primitives. The same
 * graph drives the bytecode executor (graph/bytecode.hh), the resource
 * model (graph/resources.hh), and the cycle-level simulator (sim/).
 */

#ifndef REVET_GRAPH_DFG_HH
#define REVET_GRAPH_DFG_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "lang/ast.hh"
#include "sltf/token.hh"

namespace revet
{
namespace graph
{

using lang::Scalar;
using sltf::Word;

/** Element-wise operations inside a block context. */
enum class OpKind
{
    cnst, mov,
    add, sub, mul, divs, divu, rems, remu,
    andb, orb, xorb, shl, shrs, shru,
    eq, ne, lts, ltu, les, leu,
    land, lor, lnot, bnot, neg, sel,
    norm,      ///< normalize to `elem` (narrow-type wrap)
    sramAlloc, ///< allocate `size` elements; yields handle
    sramRead,  ///< a=handle, b=index -> value
    sramWrite, ///< a=handle, b=index, c=value (guarded)
    rmwAdd,    ///< a=handle, b=index, c=delta -> old (guarded)
    rmwSub,
    dramRead,  ///< a=index (element units) in region `dram`
    dramWrite, ///< a=index, b=value (guarded)
};

/** True if the op touches an on-chip memory (maps to an MU). */
bool isSramOp(OpKind kind);

/** True if the op touches DRAM (maps to an AG). */
bool isDramOp(OpKind kind);

/** True if the op is a memory write (SRAM/DRAM store or read-modify-
 * write): an effect that optimizer passes must preserve and order. */
bool isEffectOp(OpKind kind);

/** One element-wise operation over block registers. */
struct BlockOp
{
    OpKind kind = OpKind::mov;
    int dst = -1;         ///< destination register (-1: none)
    int a = -1, b = -1, c = -1;
    Word imm = 0;         ///< cnst payload
    int dram = -1;        ///< DRAM region for dram ops
    int64_t size = 0;     ///< sramAlloc element count
    Scalar elem = Scalar::i32; ///< norm target / memory element type
    int guard = -1;       ///< predication register (-1: unconditional)
};

/**
 * Evaluate a pure (ALU) op over resolved operand values — the single
 * definition of block-op arithmetic, shared by the graph executor and
 * the optimizer's constant folder so the two cannot drift. Returns
 * false for memory ops and for division/remainder by zero (the
 * executor throws there; the folder refuses to fold). INT32_MIN / -1
 * wraps to INT32_MIN.
 */
bool evalPureOp(const BlockOp &op, Word a, Word b, Word c, Word &out);

enum class NodeKind
{
    block,     ///< element-wise context (BlockOps over a bundle)
    counter,   ///< expansion: (min,max,step) -> iterate, +1 level
    broadcast, ///< expansion: repeat shallow value across deep groups
    reduce,    ///< contraction: sum last dimension, -1 level
    flatten,   ///< hierarchy strip: -1 level, data untouched
    filter,    ///< predicate routing (bundle atomically)
    fwdMerge,  ///< forward merge (if-join)
    fbMerge,   ///< forward-backward merge (while header)
    fanout,    ///< copy one link to several consumers
    source,    ///< program entry stream
    sink,      ///< consumes a dangling stream
    park,      ///< SRAM-park a stream passing over a replicate region
    restore,   ///< matching read-back on the far side of the region
    ordinal,   ///< tag each thread entering a replicate region with its
               ///< arrival index (the key for ordinal-keyed parking)
};

std::string toString(NodeKind kind);

struct Node
{
    int id = -1;
    NodeKind kind = NodeKind::block;
    std::string name;
    std::vector<int> ins;  ///< link ids (ordered; see kind conventions)
    std::vector<int> outs; ///< link ids

    // block payload
    std::vector<BlockOp> ops;
    std::vector<int> inputRegs;  ///< register receiving each input link
    std::vector<int> outputRegs; ///< register feeding each output link
    int nRegs = 0;

    // filter: keep lanes where (pred != 0) == sense; ins[0] is pred.
    bool sense = true;
    // fwdMerge/fbMerge: ins = A-bundle then B-bundle, each of outs.size().
    // reduce: additive with this initial value.
    Word init = 0;
    // broadcast: ins = {deep, shallow}; hierarchy distance:
    int level = 1;
    // source payload: initial token stream
    sltf::TokenStream seed;

    // park/restore/ordinal: the replicate region this node serves.
    int parkRegion = -1;
    /** Ordinal-keyed park/restore pair (thread-reordering regions):
     * the park stores each value under its arrival index and the
     * restore is an associative lookup — ins = {park link, ordinal key
     * stream from the region exit} — instead of a FIFO pop. Both sides
     * of a pair must agree (verify() enforces it). */
    bool keyed = false;

    // annotations for resource/timing models
    int loopDepth = 0;    ///< enclosing while-loop nesting
    int foreachDepth = 0; ///< enclosing foreach nesting
    int replicateRegion = -1; ///< id of enclosing replicate (-1: none)
    bool isBulk = false;  ///< part of a bulk DRAM transfer path
};

struct Link
{
    int id = -1;
    std::string name;
    int src = -1; ///< producer node
    int dst = -1; ///< consumer node
    bool vector = true; ///< vector vs scalar network resource
    /** Element type. Invariant: values on a narrow (sub-32-bit) link
     * are normalize(elem)-canonical — lowering norms on assignment —
     * which is what lets the sub-word packing pass share a 32-bit lane
     * between narrow streams without changing their values. */
    Scalar elem = Scalar::i32;
};

/** A replicate region's metadata (Section V-B(b), V-C(d)). */
struct ReplicateInfo
{
    int id = -1;
    int replicas = 1;
    int liveValuesIn = 0;  ///< live values entering the region
    /** Pass-over values parked in SRAM around the region. Zero out of
     * lowering; the replicate-bufferize GraphPass re-derives it from
     * the rewritten graph (count of park/restore pairs). */
    int bufferized = 0;
    std::vector<int> nodeIds; ///< nodes inside the region
};

/**
 * A pure ride lane over a replicate region: a value produced outside
 * the region that enters it and traverses the interior untouched — as
 * an identity lane of every filter/merge/block on its way — before
 * leaving through exactly one link. Lowering emits this shape for
 * pass-over values of thread-reordering (while/if) replicate bodies,
 * where a crossing link would re-pair streams positionally and
 * scramble values. The replicate-bufferize pass converts rides into
 * ordinal-keyed park/restore pairs, repurposing one ride's in-region
 * path per exit point as the ordinal lane.
 */
struct ReplicateRide
{
    int entry = -1;         ///< the link from outside into the region
    int exit = -1;          ///< the unique link leaving the region
    std::vector<int> links; ///< every link the value rides (incl. both)
};

struct Dfg
{
    // Deque, not vector: lowering holds `Node &` references from
    // newNode() across calls that create further nodes (e.g. the
    // while-join merge across flattenLink), so node storage must never
    // relocate. Links are only ever addressed by id.
    std::deque<Node> nodes;
    std::vector<Link> links;
    std::vector<ReplicateInfo> replicates;

    Node &
    newNode(NodeKind kind, std::string name)
    {
        Node n;
        n.id = static_cast<int>(nodes.size());
        n.kind = kind;
        n.name = std::move(name);
        nodes.push_back(std::move(n));
        return nodes.back();
    }

    int
    newLink(std::string name, Scalar elem = Scalar::i32)
    {
        Link l;
        l.id = static_cast<int>(links.size());
        l.name = std::move(name);
        l.elem = elem;
        links.push_back(std::move(l));
        return links.back().id;
    }

    void
    connectOut(int node, int link)
    {
        nodes[node].outs.push_back(link);
        links[link].src = node;
    }

    void
    connectIn(int node, int link)
    {
        nodes[node].ins.push_back(link);
        links[link].dst = node;
    }

    /** Graphviz rendering for debugging / docs. */
    std::string toDot() const;

    /**
     * Links that pass over replicate region @p region: produced outside
     * the region by a node that feeds into it, consumed outside the
     * region by a node it feeds into, without the link itself entering
     * the region. These are the Section V-C(d) bufferization candidates;
     * already-parked segments (park/restore detours) do not reappear.
     */
    std::vector<int> replicatePassOverLinks(int region) const;

    /** Park/restore pairs serving region @p region (graph-derived
     * counterpart of ReplicateInfo::bufferized). */
    int replicateParkedValues(int region) const;

    /** Pure ride lanes over region @p region: see ReplicateRide. These
     * are the ordinal-keyed bufferization candidates (thread-reordering
     * regions carry their pass-over values through the bundles, so the
     * candidates are lanes, not crossing links). */
    std::vector<ReplicateRide> replicateRideLanes(int region) const;

    /**
     * The one structural checker. Enforces:
     *  - node and link ids equal their container indices;
     *  - every link has exactly one producer and one consumer, and
     *    each lists it back exactly once;
     *  - node arities match their kind conventions;
     *  - every block register (inputRegs/outputRegs, op operands and
     *    guards) is in range;
     *  - each park feeds the restore of its region and each restore
     *    is fed by the park of its region, both agreeing on `keyed`
     *    (a keyed restore takes the key stream as a second input);
     *    park/restore/ordinal region ids are in range;
     *  - park, restore and ordinal nodes never sit inside a replicate
     *    region (they buffer values around it);
     *  - every filter and merge lane keeps its element type across the
     *    bundle (the sub-word packing invariant);
     *  - ReplicateInfo::nodeIds and Node::replicateRegion agree in both
     *    directions.
     * Runs in O(nodes + links + region members). Throws
     * std::logic_error naming the offending node or link. Run after
     * lowering and after every applied optimizer pass.
     */
    void verify() const;
};

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_DFG_HH
