/**
 * @file
 * Static DFG analyses: translation validation, token-rate balance,
 * and finite-buffer deadlock lint (see analyze.hh).
 */

#include "graph/analyze.hh"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "graph/absint.hh"

namespace revet
{
namespace graph
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
idArray(const std::vector<int> &ids)
{
    std::string out = "[";
    for (size_t i = 0; i < ids.size(); ++i) {
        if (i)
            out += ",";
        out += std::to_string(ids[i]);
    }
    return out + "]";
}

/** Memory-effect key for the conservation account ("" for pure ops). */
std::string
effectKey(const BlockOp &op)
{
    if (!isEffectOp(op.kind))
        return {};
    switch (op.kind) {
      case OpKind::dramWrite:
        return "dramWrite@" + std::to_string(op.dram);
      case OpKind::rmwAdd: return "rmwAdd";
      case OpKind::rmwSub: return "rmwSub";
      default: return "sramWrite"; // the one remaining effect op
    }
}

std::string
nodeRef(const Dfg &g, int id)
{
    if (id < 0 || id >= static_cast<int>(g.nodes.size()))
        return "node#" + std::to_string(id);
    const Node &n = g.nodes[id];
    return "'" + n.name + "' (" + toString(n.kind) + " #" +
        std::to_string(id) + ")";
}

// ---------------------------------------------------------------------
// Affine symbolic rates
// ---------------------------------------------------------------------

/** An affine data-token rate: c + sum coeff_i * sym_i, terms sorted by
 * symbol id with no zero coefficients. */
struct Rate
{
    long long c = 0;
    std::vector<std::pair<int, long long>> terms;

    bool isConst() const { return terms.empty(); }
    bool isZero() const { return c == 0 && terms.empty(); }

    bool
    operator==(const Rate &o) const
    {
        return c == o.c && terms == o.terms;
    }
};

Rate
rateConst(long long v)
{
    Rate r;
    r.c = v;
    return r;
}

Rate
rateSym(int sym)
{
    Rate r;
    r.terms.emplace_back(sym, 1);
    return r;
}

Rate
rateAdd(const Rate &a, const Rate &b)
{
    Rate out;
    out.c = a.c + b.c;
    size_t i = 0, j = 0;
    while (i < a.terms.size() || j < b.terms.size()) {
        if (j >= b.terms.size() ||
            (i < a.terms.size() && a.terms[i].first < b.terms[j].first)) {
            out.terms.push_back(a.terms[i++]);
        } else if (i >= a.terms.size() ||
                   b.terms[j].first < a.terms[i].first) {
            out.terms.push_back(b.terms[j++]);
        } else {
            long long k = a.terms[i].second + b.terms[j].second;
            if (k != 0)
                out.terms.emplace_back(a.terms[i].first, k);
            ++i;
            ++j;
        }
    }
    return out;
}

Rate
rateScale(const Rate &a, long long k)
{
    Rate out;
    if (k == 0)
        return out;
    out.c = a.c * k;
    for (const auto &t : a.terms)
        out.terms.emplace_back(t.first, t.second * k);
    return out;
}

Rate
rateSub(const Rate &a, const Rate &b)
{
    return rateAdd(a, rateScale(b, -1));
}

/** Trip count of a counter whose (min, max, step) are all proven
 * constant by the value-analysis lattice (absint.hh) — one fact source
 * shared with the optimizer — applying the Counter primitive's exact
 * semantics. */
std::optional<long long>
counterTrips(const Node &n, const AbsintReport &vals)
{
    if (n.ins.size() != 3)
        return std::nullopt;
    auto mn = vals.constantOf(n.ins[0]);
    auto mx = vals.constantOf(n.ins[1]);
    auto st = vals.constantOf(n.ins[2]);
    if (!mn || !mx || !st || *st == 0)
        return std::nullopt;
    long long lo = *mn, hi = *mx, step = *st;
    if (step > 0)
        return hi > lo ? (hi - lo + step - 1) / step : 0;
    return lo > hi ? (lo - hi - step - 1) / -step : 0;
}

/** Conflict reasons. `reported` keys on the pointer, so each reason is
 * one object shared by every site that uses it. */
const char *const kSourceSeed = "source seed";
const char *const kBundleLanes = "bundle lanes";
const char *const kCounterTrips = "counter trip count";
const char *const kMergeSum = "merge conservation";

/**
 * Balance-equation solver over one graph's links, event-driven.
 *
 * Every link lists the constraints it appears in (`users`). A
 * constraint is queued when one of its links goes from unknown to
 * known, and only then; when the queue drains, bindUnknown() gives the
 * lowest-numbered unknown link a fresh symbol and queues its users.
 * Each link becomes known exactly once, so a solve queues at most one
 * check per (link, constraint) incidence and always terminates.
 *
 * The queue replays sweep order: a constraint numbered above the one
 * being checked runs in the current round, one at or below it in the
 * next, and a round never revisits a constraint that no new link
 * touched. A check that held stays true after later bindings (normalize
 * substitutes the same way on both sides), so skipping those revisits
 * changes nothing, and the set of known links at quiescence is the same
 * closure in any order — bindUnknown() picks the same links in the same
 * order and gives the same symbol names as a full re-sweep would.
 */
struct RateSolver
{
    /** Links classLinks[begin, end) must carry equal rates (one node's
     * bundle law). */
    struct EqCls
    {
        int begin, end;
        int node;
    };
    /** rate[out] = rate[a] + rate[b] (a merge's conservation law). */
    struct SumCon
    {
        int out, a, b;
        int node;
    };
    /** rate[out] = k * rate[in] (a constant-bound counter). */
    struct LinCon
    {
        int out, in;
        long long k;
        int node;
    };

    const Dfg &g;
    const AbsintReport &vals; ///< shared value-analysis facts
    /** Raw rates by id. Links refer to them by id, so propagating a
     * rate through a bundle copies an int. */
    std::vector<Rate> rates;
    std::vector<int> linkRate; ///< per link: rate id, -1 while unknown
    std::vector<std::string> symNames;
    std::vector<std::optional<Rate>> bindings;
    /** Constraints, numbered classes first, then linears, then sums
     * (the order a sweep would check them in). */
    std::vector<EqCls> classes;
    std::vector<int> classLinks;
    std::vector<LinCon> linears;
    std::vector<SumCon> sums;
    /** Constraint ids per link: users[userStart[l], userStart[l + 1]). */
    std::vector<int> userStart, users;
    /** Queued constraint ids: this round's as a min-heap (a sweep's
     * order), the next round's unordered; flags dedup each round. */
    std::vector<int> thisRound, nextRound;
    std::vector<char> inThisRound, inNextRound;
    int checking = -1; ///< constraint being checked (-1: none)
    size_t firstUnknown = 0; ///< every link below it is known
    std::vector<Diagnostic> diags;
    std::set<std::pair<int, const char *>> reported;
    bool consistent = true;

    RateSolver(const Dfg &dfg, const AbsintReport &vals)
        : g(dfg), vals(vals), linkRate(dfg.links.size(), -1)
    {
    }

    bool
    valid(int link) const
    {
        return link >= 0 && link < static_cast<int>(linkRate.size());
    }

    bool
    known(int link) const
    {
        return valid(link) && linkRate[link] >= 0;
    }

    /** Raw rate of @p link, or null while unknown. */
    const Rate *
    rateOf(int link) const
    {
        return known(link) ? &rates[linkRate[link]] : nullptr;
    }

    int
    intern(Rate r)
    {
        rates.push_back(std::move(r));
        return static_cast<int>(rates.size()) - 1;
    }

    int
    newSym(std::string name)
    {
        symNames.push_back(std::move(name));
        bindings.emplace_back();
        return static_cast<int>(symNames.size()) - 1;
    }

    /** Substitute bound symbols, recursively (bind times strictly
     * increase along the substitution chain, so this terminates). */
    Rate
    normalize(const Rate &r) const
    {
        Rate out = rateConst(r.c);
        for (const auto &t : r.terms) {
            if (bindings[t.first]) {
                out = rateAdd(out,
                              rateScale(normalize(*bindings[t.first]),
                                        t.second));
            } else {
                out = rateAdd(out, rateScale(rateSym(t.first), t.second));
            }
        }
        return out;
    }

    std::string
    render(const Rate &raw) const
    {
        Rate r = normalize(raw);
        if (r.terms.empty())
            return std::to_string(r.c);
        std::string out;
        for (const auto &t : r.terms) {
            long long k = t.second;
            if (k < 0) {
                out += "-";
                k = -k;
            } else if (!out.empty()) {
                out += "+";
            }
            if (k != 1)
                out += std::to_string(k) + "*";
            out += symNames[t.first];
        }
        if (r.c > 0)
            out += "+" + std::to_string(r.c);
        else if (r.c < 0)
            out += std::to_string(r.c);
        return out;
    }

    void
    conflict(int node, const char *what, const Rate &a, const Rate &b,
             int link)
    {
        consistent = false;
        if (!reported.insert({node, what}).second)
            return;
        if (diags.size() >= 16)
            return;
        Diagnostic d;
        d.analysis = "rates";
        d.code = "rate-imbalance";
        d.severity = Diagnostic::Severity::error;
        d.message = "balance conflict at " + nodeRef(g, node) + ": " +
            what + " require rate " + render(a) + " but found " +
            render(b);
        d.nodes = {node};
        d.links = {link};
        diags.push_back(std::move(d));
    }

    /** Equate two rates, binding a free unit-coefficient symbol when
     * possible; reports a conflict otherwise. */
    void
    unify(const Rate &a, const Rate &b, int node, const char *what,
          int link)
    {
        Rate d = normalize(rateSub(a, b));
        if (d.isZero())
            return;
        for (const auto &t : d.terms) {
            if (t.second != 1 && t.second != -1)
                continue;
            // t.coeff * S + rest = 0  =>  S = -rest / t.coeff
            Rate rest = d;
            for (auto it = rest.terms.begin(); it != rest.terms.end();
                 ++it) {
                if (it->first == t.first) {
                    rest.terms.erase(it);
                    break;
                }
            }
            bindings[t.first] = rateScale(rest, t.second == 1 ? -1 : 1);
            return;
        }
        conflict(node, what, normalize(a), normalize(b), link);
    }

    /** Queue constraint @p c: in this round if a sweep would still
     * reach it, otherwise in the next. */
    void
    enqueue(int c)
    {
        if (c > checking) {
            if (!inThisRound[c]) {
                inThisRound[c] = 1;
                thisRound.push_back(c);
                std::push_heap(thisRound.begin(), thisRound.end(),
                               std::greater<>());
            }
        } else if (!inNextRound[c]) {
            inNextRound[c] = 1;
            nextRound.push_back(c);
        }
    }

    /** Make unknown link @p link known as rate @p r; queue its users. */
    void
    learn(int link, int r)
    {
        linkRate[link] = r;
        for (int u = userStart[link]; u < userStart[link + 1]; ++u)
            enqueue(users[u]);
    }

    /** Give @p link rate @p r, or equate it with the rate it has
     * (equal raw rates trivially agree and skip the unify). */
    void
    setLink(int link, int r, int node, const char *what)
    {
        if (!valid(link))
            return;
        const int have = linkRate[link];
        if (have < 0)
            learn(link, r);
        else if (have != r && !(rates[have] == rates[r]))
            unify(rates[have], rates[r], node, what, link);
    }

    /** Append @p links[from, to) to the equality class being built. */
    void
    lanes(const std::vector<int> &links, size_t from = 0,
          size_t to = SIZE_MAX)
    {
        classLinks.insert(classLinks.end(), links.begin() + from,
                          links.begin() + std::min(to, links.size()));
    }

    /** Close the class being built as @p node's (dropped when it has
     * fewer than two links: nothing to equate). */
    void
    closeClass(int node)
    {
        const int begin = classes.empty() ? 0 : classes.back().end;
        const int end = static_cast<int>(classLinks.size());
        if (end - begin >= 2)
            classes.push_back(EqCls{begin, end, node});
        else
            classLinks.resize(begin);
    }

    /** Collect every node's balance law; returns the source seeds
     * (link, node) in node order. */
    std::vector<std::pair<int, int>>
    buildConstraints()
    {
        std::vector<std::pair<int, int>> seeds;
        for (const auto &n : g.nodes) {
            switch (n.kind) {
              case NodeKind::block:
                lanes(n.ins);
                lanes(n.outs);
                closeClass(n.id);
                break;
              case NodeKind::counter: {
                lanes(n.ins);
                closeClass(n.id);
                auto trips = counterTrips(n, vals);
                if (trips && n.ins.size() == 3 && n.outs.size() == 1) {
                    linears.push_back(
                        LinCon{n.outs[0], n.ins[0], *trips, n.id});
                }
                break;
              }
              case NodeKind::broadcast:
                // Output repeats the shallow value per deep element.
                if (n.ins.size() == 2 && n.outs.size() == 1) {
                    lanes(n.ins, 0, 1);
                    lanes(n.outs);
                    closeClass(n.id);
                }
                break;
              case NodeKind::reduce:
                break; // one output per group: a fresh unknown
              case NodeKind::flatten:
              case NodeKind::park:
              case NodeKind::ordinal:
                if (n.ins.size() == 1 && n.outs.size() == 1) {
                    lanes(n.ins);
                    lanes(n.outs);
                    closeClass(n.id);
                }
                break;
              case NodeKind::filter:
                lanes(n.ins); // pred + data bundle
                closeClass(n.id);
                lanes(n.outs); // kept lanes agree
                closeClass(n.id);
                break;
              case NodeKind::fwdMerge:
              case NodeKind::fbMerge: {
                size_t half = n.outs.size();
                if (half == 0 || n.ins.size() != 2 * half)
                    break;
                lanes(n.ins, 0, half);
                closeClass(n.id);
                lanes(n.ins, half);
                closeClass(n.id);
                lanes(n.outs);
                closeClass(n.id);
                sums.push_back(SumCon{n.outs[0], n.ins[0],
                                      n.ins[half], n.id});
                break;
              }
              case NodeKind::fanout:
                if (n.ins.size() != 1)
                    break;
                lanes(n.ins);
                lanes(n.outs);
                closeClass(n.id);
                break;
              case NodeKind::source:
                // The executor seeds every source with exactly one
                // data token (one main() argument or the start token).
                if (n.outs.size() == 1)
                    seeds.emplace_back(n.outs[0], n.id);
                break;
              case NodeKind::sink:
                break;
              case NodeKind::restore:
                // A keyed restore emits one value per ordinal key; a
                // FIFO restore forwards the parked stream.
                if (n.keyed && n.ins.size() == 2 && n.outs.size() == 1) {
                    lanes(n.ins, 1);
                    lanes(n.outs);
                    closeClass(n.id);
                } else if (!n.keyed && n.ins.size() == 1 &&
                           n.outs.size() == 1) {
                    lanes(n.ins);
                    lanes(n.outs);
                    closeClass(n.id);
                }
                break;
            }
        }

        // Index users per link (counting sort by link).
        userStart.assign(linkRate.size() + 1, 0);
        forEachUse([&](int, int link) { ++userStart[link + 1]; });
        for (size_t l = 0; l < linkRate.size(); ++l)
            userStart[l + 1] += userStart[l];
        users.resize(userStart.back());
        std::vector<int> fill(userStart.begin(), userStart.end() - 1);
        forEachUse([&](int c, int link) { users[fill[link]++] = c; });
        const size_t n_constraints =
            classes.size() + linears.size() + sums.size();
        inThisRound.assign(n_constraints, 0);
        inNextRound.assign(n_constraints, 0);
        return seeds;
    }

    /** Call @p fn(constraint, link) for every valid link of every
     * constraint, in constraint order. */
    template <typename Fn>
    void
    forEachUse(Fn fn) const
    {
        int id = 0;
        auto use = [&](int link) {
            if (valid(link))
                fn(id, link);
        };
        for (const auto &cls : classes) {
            for (int i = cls.begin; i < cls.end; ++i)
                use(classLinks[i]);
            ++id;
        }
        for (const auto &lin : linears) {
            use(lin.in);
            use(lin.out);
            ++id;
        }
        for (const auto &sum : sums) {
            use(sum.out);
            use(sum.a);
            use(sum.b);
            ++id;
        }
    }

    /** Apply constraint @p c to the links known so far. */
    void
    check(int c)
    {
        const int n_classes = static_cast<int>(classes.size());
        const int n_linears = static_cast<int>(linears.size());
        if (c < n_classes) {
            const EqCls &cls = classes[c];
            int want = -1;
            for (int i = cls.begin; i < cls.end && want < 0; ++i)
                if (known(classLinks[i]))
                    want = linkRate[classLinks[i]];
            if (want < 0)
                return;
            for (int i = cls.begin; i < cls.end; ++i)
                setLink(classLinks[i], want, cls.node, kBundleLanes);
        } else if (c < n_classes + n_linears) {
            const LinCon &lin = linears[c - n_classes];
            if (!known(lin.in))
                return;
            setLink(lin.out,
                    intern(rateScale(normalize(*rateOf(lin.in)), lin.k)),
                    lin.node, kCounterTrips);
        } else {
            // intern() may move `rates`, so each pointer below is read
            // only while building intern()'s argument.
            const SumCon &sum = sums[c - n_classes - n_linears];
            const Rate *ro = rateOf(sum.out);
            const Rate *ra = rateOf(sum.a);
            const Rate *rb = rateOf(sum.b);
            if (ra && rb) {
                setLink(sum.out,
                        intern(rateAdd(normalize(*ra), normalize(*rb))),
                        sum.node, kMergeSum);
            } else if (ro && ra) {
                setLink(sum.b,
                        intern(rateSub(normalize(*ro), normalize(*ra))),
                        sum.node, kMergeSum);
            } else if (ro && rb) {
                setLink(sum.a,
                        intern(rateSub(normalize(*ro), normalize(*rb))),
                        sum.node, kMergeSum);
            }
        }
    }

    /** Introduce a fresh symbol for the first still-unknown link, named
     * after its producer (c=counter, f=filter, r=reduce, m=merge). */
    bool
    bindUnknown()
    {
        while (firstUnknown < linkRate.size() && linkRate[firstUnknown] >= 0)
            ++firstUnknown;
        if (firstUnknown == linkRate.size())
            return false;
        const int l = static_cast<int>(firstUnknown);
        int src = g.links[l].src;
        char prefix = 'x';
        int tag = l;
        if (src >= 0 && src < static_cast<int>(g.nodes.size())) {
            switch (g.nodes[src].kind) {
              case NodeKind::counter: prefix = 'c'; tag = src; break;
              case NodeKind::filter: prefix = 'f'; tag = src; break;
              case NodeKind::reduce: prefix = 'r'; tag = src; break;
              case NodeKind::fbMerge:
              case NodeKind::fwdMerge: prefix = 'm'; tag = src; break;
              default: break;
            }
        }
        learn(l, intern(rateSym(newSym(prefix + std::to_string(tag)))));
        return true;
    }

    void
    solve()
    {
        const auto seeds = buildConstraints();
        const int one = intern(rateConst(1));
        for (const auto &[link, node] : seeds)
            setLink(link, one, node, kSourceSeed);
        do {
            while (!thisRound.empty() || !nextRound.empty()) {
                if (thisRound.empty()) {
                    thisRound.swap(nextRound);
                    inThisRound.swap(inNextRound);
                    std::make_heap(thisRound.begin(), thisRound.end(),
                                   std::greater<>());
                }
                std::pop_heap(thisRound.begin(), thisRound.end(),
                              std::greater<>());
                checking = thisRound.back();
                thisRound.pop_back();
                inThisRound[checking] = 0;
                check(checking);
            }
            checking = -1;
        } while (bindUnknown());
    }
};

} // namespace

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

std::string
Diagnostic::json() const
{
    std::string out = "{\"analysis\":\"" + jsonEscape(analysis) +
        "\",\"code\":\"" + jsonEscape(code) + "\",\"severity\":\"" +
        (severity == Severity::error ? "error" : "warning") +
        "\",\"message\":\"" + jsonEscape(message) + "\",\"nodes\":" +
        idArray(nodes) + ",\"links\":" + idArray(links) + "}";
    return out;
}

bool
hasErrors(const std::vector<Diagnostic> &diags)
{
    for (const auto &d : diags)
        if (d.severity == Diagnostic::Severity::error)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------

TokenAccount
accountTokens(const Dfg &dfg)
{
    TokenAccount acc;
    for (const Node &n : dfg.nodes) {
        switch (n.kind) {
          case NodeKind::source:
            acc.sources.push_back(n.name);
            break;
          case NodeKind::block:
            for (const auto &op : n.ops) {
                std::string key = effectKey(op);
                if (!key.empty()) {
                    ++acc.effects[key];
                    acc.effectNodes[key].push_back(n.id);
                }
            }
            break;
          case NodeKind::park:
            if (n.keyed)
                ++acc.parks[n.parkRegion].keyedParks;
            else
                ++acc.parks[n.parkRegion].fifoParks;
            break;
          case NodeKind::restore:
            if (n.keyed)
                ++acc.parks[n.parkRegion].keyedRestores;
            else
                ++acc.parks[n.parkRegion].fifoRestores;
            break;
          case NodeKind::ordinal:
            ++acc.parks[n.parkRegion].ordinals;
            break;
          default:
            break;
        }
    }
    return acc;
}

PassPermissions
permissionsFor(const std::string &passName)
{
    PassPermissions p;
    if (passName == "const-fold") {
        // Folds guards to constant false and removes the dead effect.
        p.dropEffects = true;
    } else if (passName == "cross-block-const-prop") {
        // Strips effects from blocks the abstract interpreter proves
        // can never receive a data bundle.
        p.dropEffects = true;
    } else if (passName == "dead-node-elim") {
        // Prunes park/restore pairs (and their ordinal lanes) whose
        // value is never consumed.
        p.dropParks = true;
    } else if (passName == "replicate-bufferize") {
        // Creates the park/restore/ordinal machinery.
        p.addParks = true;
    }
    return p;
}

std::vector<Diagnostic>
validateRewrite(const std::string &passName, const TokenAccount &before,
                const Dfg &after, const AbsintReport &vals,
                TokenAccount *account)
{
    std::vector<Diagnostic> out;
    const PassPermissions perm = permissionsFor(passName);
    TokenAccount now = accountTokens(after);

    auto emit = [&](const std::string &code, const std::string &msg,
                    std::vector<int> nodes) {
        Diagnostic d;
        d.analysis = "validate";
        d.code = code;
        d.severity = Diagnostic::Severity::error;
        d.message = "pass '" + passName + "': " + msg;
        d.nodes = std::move(nodes);
        out.push_back(std::move(d));
    };

    // Program-entry sources: the executor binds main() arguments to
    // sources positionally, so the ordered name list is inviolable.
    if (now.sources != before.sources) {
        std::vector<int> ids;
        for (const Node &n : after.nodes)
            if (n.kind == NodeKind::source)
                ids.push_back(n.id);
        auto joined = [](const std::vector<std::string> &v) {
            std::string s;
            for (const auto &e : v)
                s += (s.empty() ? "" : ",") + e;
            return s.empty() ? std::string("<none>") : s;
        };
        emit("source-changed",
             "program-entry sources changed from [" +
                 joined(before.sources) + "] to [" +
                 joined(now.sources) + "]",
             std::move(ids));
    }

    // Memory-effect conservation.
    std::set<std::string> keys;
    for (const auto &kv : before.effects)
        keys.insert(kv.first);
    for (const auto &kv : now.effects)
        keys.insert(kv.first);
    for (const auto &key : keys) {
        auto bit = before.effects.find(key);
        auto nit = now.effects.find(key);
        int b = bit == before.effects.end() ? 0 : bit->second;
        int a = nit == now.effects.end() ? 0 : nit->second;
        if (a > b) {
            auto nn = now.effectNodes.find(key);
            emit("effect-added",
                 "invented " + std::to_string(a - b) + " '" + key +
                     "' effect(s) (" + std::to_string(b) + " -> " +
                     std::to_string(a) + ")",
                 nn == now.effectNodes.end() ? std::vector<int>{}
                                             : nn->second);
        } else if (a < b && !perm.dropEffects) {
            auto bn = before.effectNodes.find(key);
            emit("effect-dropped",
                 "dropped " + std::to_string(b - a) + " '" + key +
                     "' effect(s) (" + std::to_string(b) + " -> " +
                     std::to_string(a) +
                     "); pre-rewrite carrier nodes listed",
                 bn == before.effectNodes.end() ? std::vector<int>{}
                                                : bn->second);
        }
    }

    // Park/restore/ordinal census per region.
    std::set<int> regions;
    for (const auto &kv : before.parks)
        regions.insert(kv.first);
    for (const auto &kv : now.parks)
        regions.insert(kv.first);
    for (int r : regions) {
        static const TokenAccount::RegionParks zero;
        auto bit = before.parks.find(r);
        auto nit = now.parks.find(r);
        const auto &b = bit == before.parks.end() ? zero : bit->second;
        const auto &a = nit == now.parks.end() ? zero : nit->second;
        // The region's park machinery (or only its parks) in @p after.
        auto machinery = [&](bool parksOnly) {
            std::vector<int> ids;
            for (const Node &n : after.nodes) {
                if ((n.kind == NodeKind::park ||
                     (!parksOnly && (n.kind == NodeKind::restore ||
                                     n.kind == NodeKind::ordinal))) &&
                    n.parkRegion == r)
                    ids.push_back(n.id);
            }
            return ids;
        };
        auto census = [](const TokenAccount::RegionParks &c) {
            return std::to_string(c.fifoParks) + " fifo / " +
                std::to_string(c.keyedParks) + " keyed park(s), " +
                std::to_string(c.ordinals) + " ordinal(s)";
        };
        bool grew = a.fifoParks > b.fifoParks ||
            a.keyedParks > b.keyedParks || a.ordinals > b.ordinals;
        bool shrank = a.fifoParks < b.fifoParks ||
            a.keyedParks < b.keyedParks || a.ordinals < b.ordinals;
        if (grew && !perm.addParks) {
            emit("park-added",
                 "added park machinery for region " + std::to_string(r) +
                     " (" + census(b) + " -> " + census(a) + ")",
                 machinery(false));
        }
        if (shrank && !perm.dropParks) {
            emit("park-dropped",
                 "removed park machinery for region " +
                     std::to_string(r) + " (" + census(b) + " -> " +
                     census(a) + ")",
                 machinery(false));
        }
        // Keyed parking needs its ordinal lane: an ordinal-keyed
        // restore in a region without a thread-enumerating ordinal node
        // can never be fed keys. (Hand-built graphs may key a park from
        // any stream; pipeline output always keys from an ordinal.)
        if (a.keyedParks > 0 && a.ordinals == 0) {
            emit("ordinal-missing",
                 "region " + std::to_string(r) + " has " +
                     std::to_string(a.keyedParks) +
                     " ordinal-keyed park(s) but no ordinal node "
                     "enumerating its threads",
                 machinery(true));
        }
    }

    // Token-rate balance must still hold. Only the verdict matters
    // here, so the solved link rates are never rendered.
    RateSolver solver(after, vals);
    solver.solve();
    for (auto &d : solver.diags)
        out.push_back(std::move(d));

    if (account)
        *account = std::move(now);
    return out;
}

ValidationError::ValidationError(std::string passName,
                                 std::vector<Diagnostic> diagnostics)
    : std::logic_error([&] {
          std::string msg =
              "translation validation failed after pass '" + passName +
              "':";
          for (const auto &d : diagnostics) {
              if (d.severity == Diagnostic::Severity::error)
                  msg += "\n  [" + d.code + "] " + d.message;
          }
          return msg;
      }()),
      pass_(std::move(passName)), diags_(std::move(diagnostics))
{
}

// ---------------------------------------------------------------------
// Token-rate balance
// ---------------------------------------------------------------------

std::string
RateReport::rate(int id) const
{
    if (id < 0 || id >= static_cast<int>(linkRates.size()))
        return "?";
    return linkRates[id];
}

RateReport
analyzeRates(const Dfg &dfg)
{
    return analyzeRates(dfg, analyzeValues(dfg));
}

namespace
{

/** The rates @p solver found, rendered per link. */
RateReport
renderRates(const RateSolver &solver)
{
    RateReport out;
    out.linkRates.reserve(solver.linkRate.size());
    for (size_t l = 0; l < solver.linkRate.size(); ++l) {
        const Rate *r = solver.rateOf(static_cast<int>(l));
        out.linkRates.push_back(r ? solver.render(*r) : std::string("?"));
    }
    out.diagnostics = solver.diags;
    out.consistent = solver.consistent;
    return out;
}

} // namespace

RateReport
analyzeRates(const Dfg &dfg, const AbsintReport &vals)
{
    RateSolver solver(dfg, vals);
    solver.solve();
    return renderRates(solver);
}

// ---------------------------------------------------------------------
// Finite-buffer deadlock lint
// ---------------------------------------------------------------------

BufferCaps
BufferCaps::fromMachine(const sim::MachineConfig &machine)
{
    BufferCaps caps;
    caps.vectorWords = machine.vecBufferWords;
    caps.scalarWords = machine.scalBufferWords;
    caps.parkSlots = machine.parkBankWords();
    return caps;
}

namespace
{

/** The deadlock lint over the rates @p solver found for @p dfg. */
DeadlockReport
lintWithRates(const Dfg &dfg, const BufferCaps &caps,
              const RateSolver &solver)
{
    DeadlockReport rep;

    auto constRate = [&](int link) -> std::optional<long long> {
        const Rate *raw = solver.rateOf(link);
        if (!raw)
            return std::nullopt;
        Rate r = solver.normalize(*raw);
        if (!r.isConst())
            return std::nullopt;
        return r.c;
    };
    auto renderRate = [&](int link) {
        const Rate *raw = solver.rateOf(link);
        return raw ? solver.render(*raw) : std::string("?");
    };

    // Minimal safe SRAM park sizes: a park must hold every value that
    // enters it before the matching restore drains (worst case, all of
    // them — the reordering region can emit its threads in any order).
    for (const Node &n : dfg.nodes) {
        if (n.kind != NodeKind::park || n.ins.size() != 1 ||
            n.outs.size() != 1)
            continue;
        ParkDemand pd;
        pd.park = n.id;
        pd.region = n.parkRegion;
        int dst = n.outs[0] >= 0 &&
                n.outs[0] < static_cast<int>(dfg.links.size())
            ? dfg.links[n.outs[0]].dst
            : -1;
        pd.restore = dst;
        pd.rate = renderRate(n.ins[0]);
        if (auto c = constRate(n.ins[0])) {
            pd.bounded = true;
            pd.minSafeSlots = *c;
            if (*c > caps.parkSlots) {
                Diagnostic d;
                d.analysis = "deadlock";
                d.code = "park-undersized";
                d.severity = Diagnostic::Severity::error;
                d.message = "park " + nodeRef(dfg, n.id) +
                    " needs " + std::to_string(*c) +
                    " slots in the worst case but one MU bank holds " +
                    std::to_string(caps.parkSlots);
                d.nodes = {n.id, dst};
                d.links = {n.ins[0]};
                rep.diagnostics.push_back(std::move(d));
            }
        } else {
            Diagnostic d;
            d.analysis = "deadlock";
            d.code = "park-unbounded";
            d.severity = Diagnostic::Severity::warning;
            d.message = "park " + nodeRef(dfg, n.id) +
                " has data-dependent demand " + pd.rate +
                " against a " + std::to_string(caps.parkSlots) +
                "-slot MU bank";
            d.nodes = {n.id, dst};
            d.links = {n.ins[0]};
            rep.diagnostics.push_back(std::move(d));
        }
        rep.parks.push_back(std::move(pd));
    }

    // Cycle enumeration over the channel graph (one cycle per DFS back
    // edge) and per-cycle buffering balance: the tokens a contraction
    // node must absorb before producing cannot exceed what the cycle's
    // link buffers can hold, or the cycle wedges.
    const int n_nodes = static_cast<int>(dfg.nodes.size());
    std::vector<int> color(n_nodes, 0); // 0 white, 1 gray, 2 black
    std::vector<int> viaLink(n_nodes, -1);
    std::vector<int> parent(n_nodes, -1);
    const size_t maxCycles = 64;

    for (int root = 0; root < n_nodes; ++root) {
        if (color[root] != 0)
            continue;
        std::vector<std::pair<int, size_t>> stack{{root, 0}};
        color[root] = 1;
        while (!stack.empty()) {
            auto &[u, ei] = stack.back();
            const Node &nu = dfg.nodes[u];
            if (ei >= nu.outs.size()) {
                color[u] = 2;
                stack.pop_back();
                continue;
            }
            int l = nu.outs[ei++];
            if (l < 0 || l >= static_cast<int>(dfg.links.size()))
                continue;
            int v = dfg.links[l].dst;
            if (v < 0 || v >= n_nodes)
                continue;
            if (color[v] == 0) {
                color[v] = 1;
                parent[v] = u;
                viaLink[v] = l;
                stack.push_back({v, 0});
            } else if (color[v] == 1 && rep.cycles.size() < maxCycles) {
                // Back edge u -> v: unwind the tree path v..u.
                ChannelCycle cyc;
                std::vector<int> path;
                for (int w = u; w != v && w >= 0; w = parent[w])
                    path.push_back(w);
                path.push_back(v);
                std::reverse(path.begin(), path.end());
                cyc.nodes = path;
                for (size_t i = 1; i < path.size(); ++i)
                    cyc.links.push_back(viaLink[path[i]]);
                cyc.links.push_back(l);
                for (int cl : cyc.links) {
                    cyc.capacityWords += dfg.links[cl].vector
                        ? caps.vectorWords
                        : caps.scalarWords;
                }
                for (int w : cyc.nodes) {
                    const Node &nw = dfg.nodes[w];
                    if (nw.kind != NodeKind::reduce || nw.ins.empty())
                        continue;
                    // A reduce absorbs a whole group before emitting:
                    // resident demand is the group (input) rate.
                    if (auto c = constRate(nw.ins[0]))
                        cyc.demandWords = std::max(
                            cyc.demandWords, static_cast<long>(*c));
                    else
                        cyc.bounded = false;
                }
                bool risky = !cyc.bounded ||
                    cyc.demandWords > cyc.capacityWords;
                if (risky) {
                    ++rep.riskyCycles;
                    Diagnostic d;
                    d.analysis = "deadlock";
                    d.code = cyc.bounded ? "cycle-overflow"
                                         : "cycle-unbounded";
                    d.severity = cyc.bounded
                        ? Diagnostic::Severity::error
                        : Diagnostic::Severity::warning;
                    d.message = cyc.bounded
                        ? "cycle through " + nodeRef(dfg, cyc.nodes[0]) +
                            " needs " + std::to_string(cyc.demandWords) +
                            " resident words but its links buffer only " +
                            std::to_string(cyc.capacityWords)
                        : "cycle through " + nodeRef(dfg, cyc.nodes[0]) +
                            " has data-dependent buffering demand "
                            "against " +
                            std::to_string(cyc.capacityWords) +
                            " words of link buffering";
                    d.nodes = cyc.nodes;
                    d.links = cyc.links;
                    rep.diagnostics.push_back(std::move(d));
                }
                rep.cycles.push_back(std::move(cyc));
            }
        }
    }
    return rep;
}

} // namespace

DeadlockReport
lintDeadlock(const Dfg &dfg, const BufferCaps &caps)
{
    return lintDeadlock(dfg, caps, analyzeValues(dfg));
}

DeadlockReport
lintDeadlock(const Dfg &dfg, const BufferCaps &caps,
             const AbsintReport &vals)
{
    RateSolver solver(dfg, vals);
    solver.solve();
    return lintWithRates(dfg, caps, solver);
}

// ---------------------------------------------------------------------
// Combined driver
// ---------------------------------------------------------------------

std::vector<Diagnostic>
AnalyzeReport::all() const
{
    std::vector<Diagnostic> out = rates.diagnostics;
    out.insert(out.end(), deadlock.diagnostics.begin(),
               deadlock.diagnostics.end());
    out.insert(out.end(), values.begin(), values.end());
    return out;
}

bool
AnalyzeReport::hasErrors() const
{
    return graph::hasErrors(rates.diagnostics) ||
        graph::hasErrors(deadlock.diagnostics) ||
        graph::hasErrors(values);
}

std::string
AnalyzeReport::summary() const
{
    int boundedParks = 0;
    for (const auto &p : deadlock.parks)
        boundedParks += p.bounded;
    std::ostringstream oss;
    oss << "rates " << (rates.consistent ? "consistent" : "INCONSISTENT")
        << " over " << rates.linkRates.size() << " links; "
        << deadlock.cycles.size() << " cycle(s), " << deadlock.riskyCycles
        << " risky; " << deadlock.parks.size() << " park(s), "
        << boundedParks << " bounded";
    return oss.str();
}

AnalyzeReport
analyzeGraph(const Dfg &dfg, const sim::MachineConfig &machine)
{
    return analyzeGraph(dfg, machine, analyzeValues(dfg));
}

AnalyzeReport
analyzeGraph(const Dfg &dfg, const sim::MachineConfig &machine,
             const AbsintReport &vals)
{
    AnalyzeReport rep;
    // One abstract-interpretation fixpoint feeds rate analysis (counter
    // trip counts), the deadlock lint, and the value-range lints; one
    // rate solve feeds both the rate report and the deadlock lint.
    RateSolver solver(dfg, vals);
    solver.solve();
    rep.rates = renderRates(solver);
    rep.deadlock =
        lintWithRates(dfg, BufferCaps::fromMachine(machine), solver);
    for (const ValueFinding &f : vals.findings) {
        Diagnostic d;
        d.analysis = "absint";
        d.severity = Diagnostic::Severity::warning;
        switch (f.kind) {
          case ValueFinding::overflow:
            d.code = "guaranteed-overflow";
            break;
          case ValueFinding::deadArm:
            d.code = "dead-filter-arm";
            break;
          case ValueFinding::unreachableEffect:
            d.code = "unreachable-effect";
            break;
        }
        d.message = f.detail;
        if (f.node >= 0)
            d.nodes.push_back(f.node);
        if (f.link >= 0)
            d.links.push_back(f.link);
        rep.values.push_back(std::move(d));
    }
    return rep;
}

} // namespace graph
} // namespace revet
