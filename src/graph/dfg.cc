#include "graph/dfg.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "lang/type.hh"

namespace revet
{
namespace graph
{

bool
isSramOp(OpKind kind)
{
    switch (kind) {
      case OpKind::sramAlloc:
      case OpKind::sramRead:
      case OpKind::sramWrite:
      case OpKind::rmwAdd:
      case OpKind::rmwSub:
        return true;
      default:
        return false;
    }
}

bool
isDramOp(OpKind kind)
{
    return kind == OpKind::dramRead || kind == OpKind::dramWrite;
}

bool
isEffectOp(OpKind kind)
{
    switch (kind) {
      case OpKind::sramWrite:
      case OpKind::dramWrite:
      case OpKind::rmwAdd:
      case OpKind::rmwSub:
        return true;
      default:
        return false;
    }
}

bool
evalPureOp(const BlockOp &op, Word a, Word b, Word c, Word &out)
{
    const auto sa = static_cast<int32_t>(a);
    const auto sb = static_cast<int32_t>(b);
    switch (op.kind) {
      case OpKind::cnst: out = op.imm; return true;
      case OpKind::mov: out = a; return true;
      case OpKind::add: out = a + b; return true;
      case OpKind::sub: out = a - b; return true;
      case OpKind::mul: out = a * b; return true;
      case OpKind::divs:
        if (b == 0)
            return false;
        // INT32_MIN / -1 overflows; define it as the wrapped result.
        out = (sb == -1 && sa == INT32_MIN)
            ? a
            : static_cast<uint32_t>(sa / sb);
        return true;
      case OpKind::divu:
        if (b == 0)
            return false;
        out = a / b;
        return true;
      case OpKind::rems:
        if (b == 0)
            return false;
        out = (sb == -1 && sa == INT32_MIN)
            ? 0
            : static_cast<uint32_t>(sa % sb);
        return true;
      case OpKind::remu:
        if (b == 0)
            return false;
        out = a % b;
        return true;
      case OpKind::andb: out = a & b; return true;
      case OpKind::orb: out = a | b; return true;
      case OpKind::xorb: out = a ^ b; return true;
      case OpKind::shl: out = a << (b & 31); return true;
      case OpKind::shrs:
        out = static_cast<uint32_t>(sa >> (b & 31));
        return true;
      case OpKind::shru: out = a >> (b & 31); return true;
      case OpKind::eq: out = a == b; return true;
      case OpKind::ne: out = a != b; return true;
      case OpKind::lts: out = sa < sb; return true;
      case OpKind::ltu: out = a < b; return true;
      case OpKind::les: out = sa <= sb; return true;
      case OpKind::leu: out = a <= b; return true;
      case OpKind::land: out = (a != 0 && b != 0) ? 1 : 0; return true;
      case OpKind::lor: out = (a != 0 || b != 0) ? 1 : 0; return true;
      case OpKind::lnot: out = a == 0 ? 1 : 0; return true;
      case OpKind::bnot: out = ~a; return true;
      case OpKind::neg: out = -a; return true;
      case OpKind::sel: out = a != 0 ? b : c; return true;
      case OpKind::norm: out = lang::normalize(op.elem, a); return true;
      default:
        return false; // memory ops: executor-only
    }
}

std::string
toString(NodeKind kind)
{
    switch (kind) {
      case NodeKind::block: return "block";
      case NodeKind::counter: return "counter";
      case NodeKind::broadcast: return "broadcast";
      case NodeKind::reduce: return "reduce";
      case NodeKind::flatten: return "flatten";
      case NodeKind::filter: return "filter";
      case NodeKind::fwdMerge: return "fwd-merge";
      case NodeKind::fbMerge: return "fb-merge";
      case NodeKind::fanout: return "fanout";
      case NodeKind::source: return "source";
      case NodeKind::sink: return "sink";
      case NodeKind::park: return "park";
      case NodeKind::restore: return "restore";
      case NodeKind::ordinal: return "ordinal";
    }
    return "?";
}

std::vector<int>
Dfg::replicatePassOverLinks(int region) const
{
    const size_t n_nodes = nodes.size();
    std::vector<char> in_region(n_nodes, 0);
    for (const auto &n : nodes) {
        if (n.replicateRegion == region)
            in_region[n.id] = 1;
    }

    // Classify every node relative to the region: "before" nodes reach
    // it (their thread continues into the region), "after" nodes are
    // reached from it. A node that is both (a cycle through the region,
    // e.g. a while loop enclosing it) is ambiguous and claims neither
    // side, so its links are never parked.
    std::vector<char> reaches(n_nodes, 0), reached(n_nodes, 0);
    std::vector<int> work;
    for (size_t i = 0; i < n_nodes; ++i) {
        if (in_region[i]) {
            reaches[i] = reached[i] = 1;
            work.push_back(static_cast<int>(i));
        }
    }
    std::vector<int> fwd = work;
    while (!work.empty()) {
        int id = work.back();
        work.pop_back();
        for (int l : nodes[id].ins) {
            int p = links[l].src;
            if (p >= 0 && !reaches[p]) {
                reaches[p] = 1;
                work.push_back(p);
            }
        }
    }
    while (!fwd.empty()) {
        int id = fwd.back();
        fwd.pop_back();
        for (int l : nodes[id].outs) {
            int c = links[l].dst;
            if (c >= 0 && !reached[c]) {
                reached[c] = 1;
                fwd.push_back(c);
            }
        }
    }

    std::vector<int> out;
    for (const auto &l : links) {
        if (l.src < 0 || l.dst < 0)
            continue;
        if (in_region[l.src] || in_region[l.dst])
            continue;
        bool src_before = reaches[l.src] && !reached[l.src];
        bool dst_after = reached[l.dst] && !reaches[l.dst];
        if (src_before && dst_after)
            out.push_back(l.id);
    }
    return out;
}

int
Dfg::replicateParkedValues(int region) const
{
    int parked = 0;
    for (const auto &n : nodes)
        parked += n.kind == NodeKind::park && n.parkRegion == region;
    return parked;
}

namespace
{

/**
 * Trace a ride's value through one block it enters on @p in_reg: movs
 * extend the set of registers carrying the value, any other read
 * taints the ride (the region consumes it), a non-mov write retires
 * the register. Appends the out-link of every output register still
 * carrying the value to @p next; returns false on taint or if the
 * value does not leave the block at all.
 */
bool
traceRideThroughBlock(const Node &node, int in_reg, std::vector<int> &next)
{
    std::vector<char> carries(node.nRegs, 0);
    carries[in_reg] = 1;
    for (const auto &op : node.ops) {
        if (op.kind == OpKind::mov && op.guard < 0 && op.a >= 0 &&
            carries[op.a]) {
            if (op.dst >= 0)
                carries[op.dst] = 1;
            continue;
        }
        for (int r : {op.a, op.b, op.c, op.guard}) {
            if (r >= 0 && r < node.nRegs && carries[r])
                return false; // the region reads the value
        }
        if (op.dst >= 0 && carries[op.dst]) {
            // A guarded write only overwrites on guard-true threads;
            // guard-false ones still export the original value, so the
            // register neither cleanly carries nor cleanly retires.
            if (op.guard >= 0)
                return false;
            carries[op.dst] = 0; // overwritten
        }
    }
    bool exported = false;
    for (size_t k = 0; k < node.outs.size(); ++k) {
        if (carries[node.outputRegs[k]]) {
            next.push_back(node.outs[k]);
            exported = true;
        }
    }
    return exported;
}

} // namespace

std::vector<ReplicateRide>
Dfg::replicateRideLanes(int region) const
{
    std::vector<ReplicateRide> out;
    std::vector<char> claimed(links.size(), 0);
    auto inRegion = [&](int node) {
        return node >= 0 && nodes[node].replicateRegion == region;
    };
    auto laneOf = [](const std::vector<int> &v, int x) {
        auto it = std::find(v.begin(), v.end(), x);
        return it == v.end() ? -1 : static_cast<int>(it - v.begin());
    };

    for (const auto &entry : links) {
        if (entry.src < 0 || entry.dst < 0)
            continue;
        if (inRegion(entry.src) || !inRegion(entry.dst))
            continue; // region-entry links only
        const Node &producer = nodes[entry.src];
        // Skip lanes already serving the keyed machinery (idempotence)
        // and values entangled with another region's boundary.
        if (producer.kind == NodeKind::ordinal ||
            producer.kind == NodeKind::park ||
            producer.kind == NodeKind::restore ||
            producer.replicateRegion >= 0) {
            continue;
        }

        // Forward flood from the entry: every link the value occupies
        // inside the region, failing on any non-identity use.
        std::vector<char> in_set(links.size(), 0);
        std::vector<int> ride, work{entry.id}, exits;
        in_set[entry.id] = 1;
        bool ok = true;
        while (ok && !work.empty()) {
            int cur = work.back();
            work.pop_back();
            ride.push_back(cur);
            const int dst = links[cur].dst;
            const Node &d = nodes[dst];
            if (!inRegion(dst)) {
                // Leaving the region — but only into region-free
                // territory; a node of another region means the ride
                // spans two boundaries and one pair cannot serve both.
                if (d.replicateRegion >= 0) {
                    ok = false;
                    break;
                }
                exits.push_back(cur);
                continue;
            }
            auto follow = [&](int l) {
                if (!in_set[l]) {
                    in_set[l] = 1;
                    work.push_back(l);
                }
            };
            switch (d.kind) {
              case NodeKind::block: {
                int idx = laneOf(d.ins, cur);
                std::vector<int> next;
                ok = idx >= 0 &&
                    traceRideThroughBlock(d, d.inputRegs[idx], next);
                for (int l : next)
                    follow(l);
                break;
              }
              case NodeKind::fanout:
                for (int l : d.outs)
                    follow(l);
                break;
              case NodeKind::filter: {
                int idx = laneOf(d.ins, cur);
                ok = idx > 0; // ins[0] is the predicate: a real use
                if (ok)
                    follow(d.outs[idx - 1]);
                break;
              }
              case NodeKind::fwdMerge:
              case NodeKind::fbMerge: {
                int half = static_cast<int>(d.outs.size());
                int idx = laneOf(d.ins, cur);
                ok = idx >= 0;
                if (ok)
                    follow(d.outs[idx < half ? idx : idx - half]);
                break;
              }
              case NodeKind::flatten:
                follow(d.outs[0]);
                break;
              case NodeKind::sink:
                break; // discarded copy (scrubbed scope temp)
              default:
                // counter/broadcast/reduce change the element count
                // per thread (a fork's distribution machinery);
                // park/restore/ordinal/source cannot sit inside.
                ok = false;
                break;
            }
        }
        if (!ok || exits.size() != 1)
            continue;

        // Merge closure: a merge lane only carries the ride if BOTH
        // bundle sides do — otherwise the output interleaves the value
        // with something else (e.g. a loop body that redefines the
        // slot on the backedge) and is not a pure ride.
        for (const auto &m : nodes) {
            if (!ok)
                break;
            if (m.replicateRegion != region ||
                (m.kind != NodeKind::fwdMerge &&
                 m.kind != NodeKind::fbMerge)) {
                continue;
            }
            int half = static_cast<int>(m.outs.size());
            for (int j = 0; j < half; ++j) {
                if (in_set[m.outs[j]] &&
                    (!in_set[m.ins[j]] || !in_set[m.ins[j + half]])) {
                    ok = false;
                    break;
                }
            }
        }
        if (!ok)
            continue;
        // Disjointness: overlapping rides (two entries converging on
        // one lane) cannot both be parked; first wins, rest refuse.
        for (int l : ride)
            ok = ok && !claimed[l];
        if (!ok)
            continue;
        for (int l : ride)
            claimed[l] = 1;
        ReplicateRide r;
        r.entry = entry.id;
        r.exit = exits[0];
        r.links = std::move(ride);
        out.push_back(std::move(r));
    }
    return out;
}

std::string
Dfg::toDot() const
{
    std::ostringstream os;
    os << "digraph revet {\n  rankdir=TB;\n";
    for (const auto &n : nodes) {
        os << "  n" << n.id << " [label=\"" << toString(n.kind) << "\\n"
           << n.name;
        if (n.kind == NodeKind::block)
            os << "\\n" << n.ops.size() << " ops";
        // SRAM park/restore pairs render as cylinders tagged with the
        // replicate region they buffer around; ordinal-keyed pairs and
        // the thread-enumerating ordinal node carry a "keyed" tag.
        if (n.kind == NodeKind::park || n.kind == NodeKind::restore)
            os << (n.keyed ? "\\nkeyed region " : "\\nregion ")
               << n.parkRegion;
        if (n.kind == NodeKind::ordinal)
            os << "\\nregion " << n.parkRegion;
        const char *shape = n.kind == NodeKind::block ? "box"
            : (n.kind == NodeKind::park || n.kind == NodeKind::restore)
            ? "cylinder"
            : n.kind == NodeKind::ordinal ? "diamond"
                                          : "ellipse";
        os << "\" shape=" << shape << "];\n";
    }
    // Links carry their element type and vector-vs-scalar network
    // class (scalar links render dashed).
    for (const auto &l : links) {
        if (l.src >= 0 && l.dst >= 0) {
            os << "  n" << l.src << " -> n" << l.dst << " [label=\""
               << l.name << ":" << lang::toString(l.elem)
               << (l.vector ? ":v" : ":s") << "\""
               << (l.vector ? "" : " style=dashed") << "];\n";
        }
    }
    os << "}\n";
    return os.str();
}

void
Dfg::verify() const
{
    const int n_nodes = static_cast<int>(nodes.size());
    const int n_links = static_cast<int>(links.size());
    for (int i = 0; i < n_links; ++i) {
        const Link &l = links[i];
        if (l.id != i)
            throw std::logic_error("link '" + l.name + "' id mismatch");
        if (l.src < 0)
            throw std::logic_error("link '" + l.name + "' has no producer");
        if (l.dst < 0)
            throw std::logic_error("link '" + l.name + "' has no consumer");
        if (l.src >= n_nodes || l.dst >= n_nodes)
            throw std::logic_error("link '" + l.name +
                                   "' endpoint out of range");
    }
    // Every link must be listed exactly once as an output of its
    // producer and once as an input of its consumer.
    std::vector<int> produced(links.size(), 0), consumed(links.size(), 0);
    for (int i = 0; i < n_nodes; ++i) {
        const Node &n = nodes[i];
        if (n.id != i) {
            throw std::logic_error("node '" + n.name + "' id mismatch");
        }
        for (int l : n.outs) {
            if (l < 0 || l >= n_links)
                throw std::logic_error("node '" + n.name +
                                       "': output link out of range");
            if (links[l].src != i)
                throw std::logic_error("node '" + n.name + "': link '" +
                                       links[l].name +
                                       "' does not name it as producer");
            ++produced[l];
        }
        for (int l : n.ins) {
            if (l < 0 || l >= n_links)
                throw std::logic_error("node '" + n.name +
                                       "': input link out of range");
            if (links[l].dst != i)
                throw std::logic_error("node '" + n.name + "': link '" +
                                       links[l].name +
                                       "' does not name it as consumer");
            ++consumed[l];
        }
    }
    for (int i = 0; i < n_links; ++i) {
        if (produced[i] != 1 || consumed[i] != 1) {
            throw std::logic_error("link '" + links[i].name +
                                   "' endpoint listed " +
                                   std::to_string(produced[i]) + "/" +
                                   std::to_string(consumed[i]) +
                                   " times (want 1/1)");
        }
    }
    for (const auto &n : nodes) {
        auto fail = [&](const std::string &msg) {
            throw std::logic_error("node '" + n.name + "' (" +
                                   toString(n.kind) + "): " + msg);
        };
        auto need = [&](bool ok, const char *msg) {
            if (!ok)
                fail(msg);
        };
        auto regOk = [&](int reg, bool allowNone) {
            return reg < n.nRegs && (allowNone ? reg >= -1 : reg >= 0);
        };
        // Filter and merge lanes carry one element type end to end
        // (the sub-word packing invariant).
        auto laneKeepsElem = [&](size_t lane, int in) {
            if (links[in].elem != links[n.outs[lane]].elem) {
                fail("lane " + std::to_string(lane) +
                     " changes element type across the bundle");
            }
        };
        // Park machinery buffers values *around* a replicate region and
        // never sits inside one.
        auto outsideRegion = [&]() {
            if (n.replicateRegion >= 0) {
                fail("serves region " + std::to_string(n.parkRegion) +
                     " but sits inside region " +
                     std::to_string(n.replicateRegion));
            }
        };
        switch (n.kind) {
          case NodeKind::counter:
            need(n.ins.size() == 3 && n.outs.size() == 1,
                 "counter needs 3 ins / 1 out");
            break;
          case NodeKind::broadcast:
            need(n.ins.size() == 2 && n.outs.size() == 1,
                 "broadcast needs 2 ins / 1 out");
            break;
          case NodeKind::reduce:
          case NodeKind::flatten:
            need(n.ins.size() == 1 && n.outs.size() == 1,
                 "needs 1 in / 1 out");
            break;
          case NodeKind::filter:
            need(n.ins.size() == n.outs.size() + 1,
                 "filter needs pred + bundle");
            for (size_t j = 0; j < n.outs.size(); ++j)
                laneKeepsElem(j, n.ins[j + 1]);
            break;
          case NodeKind::fwdMerge:
          case NodeKind::fbMerge: {
            need(n.ins.size() == 2 * n.outs.size() && !n.outs.empty(),
                 "merge needs two equal bundles");
            const size_t half = n.outs.size();
            for (size_t j = 0; j < half; ++j) {
                laneKeepsElem(j, n.ins[j]);
                laneKeepsElem(j, n.ins[j + half]);
            }
            break;
          }
          case NodeKind::fanout:
            need(n.ins.size() == 1 && n.outs.size() >= 1,
                 "fanout needs 1 in");
            break;
          case NodeKind::source:
            need(n.ins.empty() && n.outs.size() == 1, "source arity");
            break;
          case NodeKind::sink:
            need(n.ins.size() == 1 && n.outs.empty(), "sink arity");
            break;
          case NodeKind::park: {
            need(n.ins.size() == 1 && n.outs.size() == 1,
                 "park needs 1 in / 1 out");
            need(n.parkRegion >= 0 &&
                     n.parkRegion < static_cast<int>(replicates.size()),
                 "park region id out of range");
            const Link &out = links[n.outs[0]];
            need(out.dst >= 0 &&
                     nodes[out.dst].kind == NodeKind::restore &&
                     nodes[out.dst].parkRegion == n.parkRegion,
                 "park must feed the matching restore");
            need(nodes[out.dst].keyed == n.keyed,
                 "park/restore ordinal-key mismatch");
            outsideRegion();
            break;
          }
          case NodeKind::restore: {
            // A keyed restore takes a second input: the ordinal key
            // stream from the region exit that drives its associative
            // lookup. A FIFO restore pops positionally and has one.
            need(n.ins.size() == (n.keyed ? 2u : 1u) &&
                     n.outs.size() == 1,
                 n.keyed ? "keyed restore needs park + key ins / 1 out"
                         : "restore needs 1 in / 1 out");
            need(n.parkRegion >= 0 &&
                     n.parkRegion < static_cast<int>(replicates.size()),
                 "restore region id out of range");
            const Link &in = links[n.ins[0]];
            need(in.src >= 0 && nodes[in.src].kind == NodeKind::park &&
                     nodes[in.src].parkRegion == n.parkRegion,
                 "restore must be fed by the matching park");
            need(nodes[in.src].keyed == n.keyed,
                 "park/restore ordinal-key mismatch");
            outsideRegion();
            break;
          }
          case NodeKind::ordinal:
            need(n.ins.size() == 1 && n.outs.size() == 1,
                 "ordinal needs 1 in / 1 out");
            need(n.parkRegion >= 0 &&
                     n.parkRegion < static_cast<int>(replicates.size()),
                 "ordinal region id out of range");
            outsideRegion();
            break;
          case NodeKind::block:
            need(n.ins.size() == n.inputRegs.size(),
                 "block input register mismatch");
            need(n.outs.size() == n.outputRegs.size(),
                 "block output register mismatch");
            need(n.nRegs >= 0, "negative register count");
            for (int reg : n.inputRegs)
                need(regOk(reg, false), "input register out of range");
            for (int reg : n.outputRegs)
                need(regOk(reg, false), "output register out of range");
            for (const auto &op : n.ops) {
                need(regOk(op.dst, true) && regOk(op.a, true) &&
                         regOk(op.b, true) && regOk(op.c, true) &&
                         regOk(op.guard, true),
                     "op register out of range");
            }
            break;
        }
    }
    // Region membership agrees in both directions: each region lists
    // exactly the nodes whose replicateRegion names it.
    std::vector<int> listedIn(nodes.size(), -1);
    for (const auto &info : replicates) {
        const std::string region = "region " + std::to_string(info.id);
        for (int id : info.nodeIds) {
            if (id < 0 || id >= n_nodes)
                throw std::logic_error(region + ": member out of range");
            if (nodes[id].replicateRegion != info.id) {
                throw std::logic_error(region + " lists node '" +
                                       nodes[id].name +
                                       "' as a member but the node "
                                       "disagrees");
            }
            listedIn[id] = info.id;
        }
    }
    for (const auto &n : nodes) {
        if (n.replicateRegion >= 0 &&
            listedIn[n.id] != n.replicateRegion) {
            throw std::logic_error("node '" + n.name + "' claims region " +
                                   std::to_string(n.replicateRegion) +
                                   " but the region does not list it");
        }
    }
}

} // namespace graph
} // namespace revet
