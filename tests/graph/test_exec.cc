/**
 * @file
 * End-to-end compiler correctness: parse -> sema -> pass pipeline ->
 * dataflow lowering -> streaming execution, compared bit-for-bit against
 * the AST reference interpreter on the same inputs. This validates the
 * Section V-C control-flow-to-dataflow lowering (filters, merges,
 * counters, reduces, forward-backward loops, fork) on real programs.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "../dataflow/shuffled_schedule.hh"
#include "graph/bytecode.hh"
#include "graph/exec.hh"
#include "graph/lower.hh"
#include "interp/interp.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"

using namespace revet;
using lang::DramImage;
using lang::Program;
using shuffled_test::allSchedules;
using shuffled_test::runSchedule;
using shuffled_test::scheduleName;

namespace
{

using Filler = std::function<void(DramImage &)>;

graph::ExecStats
compareCompiledToInterp(const std::string &src, const Filler &fill,
                        const std::vector<int32_t> &args)
{
    // Reference: interpreter on the unlowered program.
    Program ref_prog = lang::parseAndAnalyze(src);
    DramImage ref_dram(ref_prog);
    fill(ref_dram);
    interp::run(ref_prog, ref_dram, args);

    // Compiled: pass pipeline + graph lowering + streaming execution.
    Program prog = lang::parseAndAnalyze(src);
    passes::runPipeline(prog);
    graph::Dfg dfg = graph::lower(prog);
    DramImage dram(prog);
    fill(dram);
    auto stats =
        graph::execute(graph::BytecodeProgram::compile(dfg), dram, args);
    EXPECT_TRUE(stats.drained);

    for (int d = 0; d < ref_dram.dramCount(); ++d) {
        EXPECT_EQ(ref_dram.bytes(d), dram.bytes(d))
            << "DRAM region '" << ref_dram.name(d)
            << "' diverged between interpreter and dataflow";
    }
    return stats;
}

} // namespace

TEST(DataflowExec, StraightLine)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int a = n * 3 + 1;
          int b = (a ^ 21) & 0xff;
          out[0] = a; out[1] = b; out[2] = a - b;
        })",
        [](DramImage &d) { d.resize("out", 12); }, {14});
}

TEST(DataflowExec, IfStatementBothArms)
{
    for (int arg : {2, 9}) {
        compareCompiledToInterp(
            R"(
            DRAM<int> out;
            void main(int n) {
              int x = 1;
              if (n > 5) { x = n * 2; } else { x = n + 100; };
              out[0] = x;
            })",
            [](DramImage &d) { d.resize("out", 4); }, {arg});
    }
}

TEST(DataflowExec, IfWithDivisionStaysBranchy)
{
    // Division prevents if-to-select, so this exercises real filter /
    // forward-merge structure at the top level.
    for (int arg : {0, 8}) {
        compareCompiledToInterp(
            R"(
            DRAM<int> out;
            void main(int n) {
              int x = 7;
              if (n != 0) { x = 1000 / n; };
              out[0] = x;
            })",
            [](DramImage &d) { d.resize("out", 4); }, {arg});
    }
}

TEST(DataflowExec, WhileLoop)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0; int acc = 0;
          while (i < n) {
            acc = acc + i * i;
            i++;
          };
          out[0] = acc;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {37});
}

TEST(DataflowExec, WhileLoopZeroTrips)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0;
          while (i < n) { i++; };
          out[0] = i + 55;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {0});
}

TEST(DataflowExec, NestedWhile)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0; int acc = 0;
          while (i < n) {
            int j = 0;
            while (j < i) {
              acc = acc + 1;
              j++;
            };
            i++;
          };
          out[0] = acc;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {12});
}

TEST(DataflowExec, ForeachParallelStores)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            out[i] = i * 7 + 3;
          };
        })",
        [](DramImage &d) { d.resize("out", 64 * 4); }, {64});
}

TEST(DataflowExec, ForeachReduction)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            return i * i;
          };
          out[0] = total;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {50});
}

TEST(DataflowExec, ForeachBroadcastsParentValues)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int scale = n * 2 + 1;
          int total = foreach (n) { int i =>
            return i * scale;
          };
          out[0] = total;
          out[1] = scale;
        })",
        [](DramImage &d) { d.resize("out", 8); }, {17});
}

TEST(DataflowExec, ForeachWithExit)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            if (i % 3 == 0) { exit(); };
            return i;
          };
          out[0] = total;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {20});
}

TEST(DataflowExec, NestedForeach)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            int inner = foreach (i + 1) { int j =>
              return i * 10 + j;
            };
            return inner;
          };
          out[0] = total;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {6});
}

TEST(DataflowExec, WhileInsideForeach)
{
    // The key composition the paper's machine model enables: data-
    // dependent while loops nested under parallel foreach threads.
    compareCompiledToInterp(
        R"(
        DRAM<int> data; DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int v = data[i];
            int steps = 0;
            while (v != 1) {
              if (v % 2 == 0) { v = v / 2; } else { v = v * 3 + 1; };
              steps++;
            };
            out[i] = steps;
          };
        })",
        [](DramImage &d) {
          std::vector<int32_t> data(24);
          for (int i = 0; i < 24; ++i)
              data[i] = i + 1;
          d.fill("data", data);
          d.resize("out", 24 * 4);
        },
        {24});
}

TEST(DataflowExec, ForeachInsideWhile)
{
    // Parallel-patterns foreach inside a sequential while (the paper's
    // "periodically load a vector" case).
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          int round = 0;
          int acc = 0;
          while (round < n) {
            int sum = foreach (round + 1) { int i =>
              return i + round;
            };
            acc = acc + sum;
            round++;
          };
          out[0] = acc;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {9});
}

TEST(DataflowExec, SramScratchpad)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 16> buf;
          foreach (16) { int i =>
            buf[i] = i * i;
          };
          int total = foreach (16) { int i =>
            return buf[15 - i];
          };
          out[0] = total;
        })",
        [](DramImage &d) { d.resize("out", 4); }, {0});
}

TEST(DataflowExec, AtomicRmw)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 2> cell;
          int last = foreach (n) { int i =>
            int old = fetch_add(cell, 0, 2);
            return old;
          };
          out[0] = cell[0];
          out[1] = last;
        })",
        [](DramImage &d) { d.resize("out", 8); }, {10});
}

TEST(DataflowExec, ForkDuplicatesThreads)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 16> acc;
          foreach (1) { int t =>
            int i = fork(n);
            int j = fork(2);
            fetch_add(acc, i * 2 + j, 1);
          };
          foreach (16) { int k =>
            out[k] = acc[k];
          };
        })",
        [](DramImage &d) { d.resize("out", 64); }, {5});
}

TEST(DataflowExec, EliminatedHierarchy)
{
    compareCompiledToInterp(
        R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            pragma(eliminate_hierarchy);
            out[i] = i * 3 + 1;
          };
          out[n] = 999;
        })",
        [](DramImage &d) { d.resize("out", 33 * 4); }, {32});
}

TEST(DataflowExec, ReadIteratorDemandPath)
{
    compareCompiledToInterp(
        R"(
        DRAM<char> text; DRAM<int> out;
        void main(int n) {
          ReadIt<8> it(text, 0);
          int len = 0;
          while (*it) {
            len++;
            it++;
          };
          out[0] = len;
        })",
        [](DramImage &d) {
            std::vector<int8_t> text(60, 'x');
            text[47] = 0;
            d.fill("text", text);
            d.resize("out", 4);
        },
        {0});
}

TEST(DataflowExec, StrlenFigure7Complete)
{
    const char *src = R"(
        DRAM<char> input; DRAM<int> offsets; DRAM<int> lengths;
        void main(int count) {
          foreach (count by 16) { int outer =>
            ReadView<16> in_view(offsets, outer);
            WriteView<16> out_view(lengths, outer);
            foreach (16) { int idx =>
              pragma(eliminate_hierarchy);
              int len = 0;
              int off = in_view[idx];
              replicate (4) {
                ReadIt<8> it(input, off);
                while (*it) {
                  len++;
                  it++;
                };
              };
              out_view[idx] = len;
            };
          };
        })";
    auto fill = [](DramImage &d) {
        std::mt19937 rng(11);
        std::vector<int8_t> text;
        std::vector<int32_t> offsets;
        for (int i = 0; i < 32; ++i) {
            offsets.push_back(static_cast<int32_t>(text.size()));
            int len = rng() % 30;
            for (int k = 0; k < len; ++k)
                text.push_back('a' + rng() % 26);
            text.push_back(0);
        }
        d.fill("input", text);
        d.fill("offsets", offsets);
        d.resize("lengths", 32 * 4);
    };
    compareCompiledToInterp(src, fill, {32});
}

TEST(DataflowExec, HashProbeLoop)
{
    // Open-addressing probe: data-dependent while with DRAM random
    // access — the shape of the paper's hash-table workload.
    const char *src = R"(
        DRAM<int> keys; DRAM<int> table; DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int key = keys[i];
            int h = (key * 2654435761) % 64;
            if (h < 0) { h = h + 64; };
            int probes = 0;
            int found = 0 - 1;
            while (table[h * 2] != 0 && found < 0 && probes < 64) {
              if (table[h * 2] == key) {
                found = table[h * 2 + 1];
              };
              h = (h + 1) % 64;
              probes++;
            };
            out[i] = found;
          };
        })";
    auto fill = [](DramImage &d) {
        std::vector<int32_t> table(128, 0);
        std::mt19937 rng(5);
        std::vector<int32_t> keys;
        auto insert = [&](int32_t k, int32_t v) {
            uint32_t h = (static_cast<uint32_t>(k) * 2654435761u) % 64;
            while (table[h * 2] != 0)
                h = (h + 1) % 64;
            table[h * 2] = k;
            table[h * 2 + 1] = v;
        };
        for (int i = 0; i < 16; ++i) {
            int32_t k = 1 + static_cast<int32_t>(rng() % 1000);
            insert(k, k * 10);
            keys.push_back(k);
        }
        for (int i = 0; i < 16; ++i)
            keys.push_back(1 + static_cast<int32_t>(rng() % 1000));
        d.fill("keys", keys);
        d.fill("table", table);
        d.resize("out", 32 * 4);
    };
    compareCompiledToInterp(src, fill, {32});
}

// ---------------------------------------------------------------------
// Keyed-SRAM park/restore semantics (ordinal-keyed replicate
// bufferization): hand-built graphs drive the executor directly.

namespace
{

using graph::BlockOp;
using graph::Dfg;
using graph::NodeKind;
using graph::OpKind;

const lang::Program &
outProgram()
{
    static lang::Program prog = lang::parseAndAnalyze(
        "DRAM<int> out; void main(int n) { out[0] = n; }");
    return prog;
}

/**
 * counter 0..n -> {blockV: v=i*7+3 -> keyed park}, {blockK: k=n-1-i ->
 * restore key + write address}; restore output lands in out[k]. The
 * key stream is the exact reverse of park order, so every lookup is
 * out of order: out[k] == k*7+3 only if the restore re-pairs by key.
 */
Dfg
reversedRestoreGraph(int n)
{
    Dfg g;
    graph::ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;
    g.replicates.push_back(info);

    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);

    auto &bounds = g.newNode(NodeKind::block, "bounds");
    g.connectIn(bounds.id, tok);
    bounds.inputRegs = {0};
    bounds.nRegs = 4;
    auto cnst = [&](graph::Node &blk, int dst, sltf::Word imm) {
        BlockOp op;
        op.kind = OpKind::cnst;
        op.dst = dst;
        op.imm = imm;
        blk.ops.push_back(op);
    };
    cnst(bounds, 1, 0);
    cnst(bounds, 2, static_cast<sltf::Word>(n));
    cnst(bounds, 3, 1);
    int lmin = g.newLink("min"), lmax = g.newLink("max"),
        lstep = g.newLink("step");
    bounds.outputRegs = {1, 2, 3};
    for (int l : {lmin, lmax, lstep})
        g.connectOut(bounds.id, l);

    auto &ctr = g.newNode(NodeKind::counter, "threads");
    for (int l : {lmin, lmax, lstep})
        g.connectIn(ctr.id, l);
    int iv = g.newLink("iv");
    g.connectOut(ctr.id, iv);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, iv);
    int iv_a = g.newLink("iva"), iv_b = g.newLink("ivb");
    g.connectOut(fan.id, iv_a);
    g.connectOut(fan.id, iv_b);

    auto binop = [&](graph::Node &blk, OpKind kind, int dst, int a,
                     int b) {
        BlockOp op;
        op.kind = kind;
        op.dst = dst;
        op.a = a;
        op.b = b;
        blk.ops.push_back(op);
    };

    // v = i * 7 + 3, in thread order.
    auto &bv = g.newNode(NodeKind::block, "blockV");
    g.connectIn(bv.id, iv_a);
    bv.inputRegs = {0};
    bv.nRegs = 5;
    cnst(bv, 1, 7);
    binop(bv, OpKind::mul, 2, 0, 1);
    cnst(bv, 3, 3);
    binop(bv, OpKind::add, 4, 2, 3);
    int v = g.newLink("v");
    bv.outputRegs = {4};
    g.connectOut(bv.id, v);

    // k = n-1-i: the reversed key/address stream.
    auto &bk = g.newNode(NodeKind::block, "blockK");
    g.connectIn(bk.id, iv_b);
    bk.inputRegs = {0};
    bk.nRegs = 3;
    cnst(bk, 1, static_cast<sltf::Word>(n - 1));
    binop(bk, OpKind::sub, 2, 1, 0);
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

/**
 * reversedRestoreGraph with thread death: blockK also computes
 * p = (i < n/2) and a filter drops the key whenever p is false, so the
 * keys that survive are exactly {n/2, ..., n-1} (from threads
 * i in [0, n/2)) while *every* thread parks its value. The n/2 values
 * whose key never arrives are dead threads; without batch-close
 * reclamation their slots stay parked forever (sramParkedEnd == n/2).
 */
Dfg
deadThreadRestoreGraph(int n)
{
    Dfg g;
    graph::ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;
    g.replicates.push_back(info);

    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);

    auto cnst = [&](graph::Node &blk, int dst, sltf::Word imm) {
        BlockOp op;
        op.kind = OpKind::cnst;
        op.dst = dst;
        op.imm = imm;
        blk.ops.push_back(op);
    };
    auto binop = [&](graph::Node &blk, OpKind kind, int dst, int a,
                     int b) {
        BlockOp op;
        op.kind = kind;
        op.dst = dst;
        op.a = a;
        op.b = b;
        blk.ops.push_back(op);
    };

    auto &bounds = g.newNode(NodeKind::block, "bounds");
    g.connectIn(bounds.id, tok);
    bounds.inputRegs = {0};
    bounds.nRegs = 4;
    cnst(bounds, 1, 0);
    cnst(bounds, 2, static_cast<sltf::Word>(n));
    cnst(bounds, 3, 1);
    int lmin = g.newLink("min"), lmax = g.newLink("max"),
        lstep = g.newLink("step");
    bounds.outputRegs = {1, 2, 3};
    for (int l : {lmin, lmax, lstep})
        g.connectOut(bounds.id, l);

    auto &ctr = g.newNode(NodeKind::counter, "threads");
    for (int l : {lmin, lmax, lstep})
        g.connectIn(ctr.id, l);
    int iv = g.newLink("iv");
    g.connectOut(ctr.id, iv);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, iv);
    int iv_a = g.newLink("iva"), iv_b = g.newLink("ivb");
    g.connectOut(fan.id, iv_a);
    g.connectOut(fan.id, iv_b);

    // v = i * 7 + 3, parked by every thread (dead or not).
    auto &bv = g.newNode(NodeKind::block, "blockV");
    g.connectIn(bv.id, iv_a);
    bv.inputRegs = {0};
    bv.nRegs = 5;
    cnst(bv, 1, 7);
    binop(bv, OpKind::mul, 2, 0, 1);
    cnst(bv, 3, 3);
    binop(bv, OpKind::add, 4, 2, 3);
    int v = g.newLink("v");
    bv.outputRegs = {4};
    g.connectOut(bv.id, v);

    // k = n-1-i and p = (i < n/2): only the first half of the threads
    // survive to present their (reversed) keys.
    auto &bk = g.newNode(NodeKind::block, "blockK");
    g.connectIn(bk.id, iv_b);
    bk.inputRegs = {0};
    bk.nRegs = 5;
    cnst(bk, 1, static_cast<sltf::Word>(n - 1));
    binop(bk, OpKind::sub, 2, 1, 0);
    cnst(bk, 3, static_cast<sltf::Word>(n / 2));
    binop(bk, OpKind::lts, 4, 0, 3);
    int k = g.newLink("k"), p = g.newLink("p");
    bk.outputRegs = {2, 4};
    g.connectOut(bk.id, k);
    g.connectOut(bk.id, p);

    auto &filt = g.newNode(NodeKind::filter, "alive");
    filt.sense = true;
    g.connectIn(filt.id, p);
    g.connectIn(filt.id, k);
    int k_live = g.newLink("k.live");
    g.connectOut(filt.id, k_live);

    auto &kfan = g.newNode(NodeKind::fanout, "kfan");
    g.connectIn(kfan.id, k_live);
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

} // namespace

TEST(DataflowExec, KeyedRestoreRepairsOutOfOrderThreads)
{
    const int n = 8;
    auto bc = graph::BytecodeProgram::compile(reversedRestoreGraph(n));
    for (std::optional<uint64_t> sched : allSchedules()) {
        SCOPED_TRACE(scheduleName(sched));
        DramImage dram(outProgram());
        dram.resize("out", n * 4);
        auto stats = runSchedule(bc, dram, {}, sched);
        EXPECT_TRUE(stats.drained);
        auto out = dram.read<int32_t>("out");
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(out[i], i * 7 + 3)
                << "slot " << i << " mispaired after reversed restore";
        }
        EXPECT_EQ(stats.sramParkedElems, static_cast<uint64_t>(n));
    }
}

TEST(DataflowExec, ParkedSlotHighWaterMark)
{
    // Key 7 arrives first but value 7 parks last, so the restore must
    // buffer every value before it can emit a single one: the
    // occupancy high-water mark is exactly n, regardless of schedule.
    const int n = 8;
    auto bc = graph::BytecodeProgram::compile(reversedRestoreGraph(n));
    for (std::optional<uint64_t> sched : allSchedules()) {
        SCOPED_TRACE(scheduleName(sched));
        DramImage dram(outProgram());
        dram.resize("out", n * 4);
        auto stats = runSchedule(bc, dram, {}, sched);
        EXPECT_EQ(stats.sramParkedPeak, static_cast<uint64_t>(n));
    }
}

TEST(DataflowExec, DeadThreadParkSlotsReclaimedAtBatchClose)
{
    // Every thread parks a value but only half present a key: the
    // other half are dead threads whose slots must be freed when the
    // key stream closes the batch. Regression for the leak where the
    // keyed restore held dead threads' slots forever (sramParkedEnd
    // used to read n/2 here).
    const int n = 8;
    auto bc = graph::BytecodeProgram::compile(deadThreadRestoreGraph(n));
    for (std::optional<uint64_t> sched : allSchedules()) {
        SCOPED_TRACE(scheduleName(sched));
        DramImage dram(outProgram());
        dram.resize("out", n * 4);
        auto stats = runSchedule(bc, dram, {}, sched);
        EXPECT_TRUE(stats.drained);
        // All n values parked; none left behind after batch close.
        EXPECT_EQ(stats.sramParkedElems, static_cast<uint64_t>(n));
        EXPECT_EQ(stats.sramParkedEnd, 0u)
            << "dead threads leaked park slots";
        auto out = dram.read<int32_t>("out");
        for (int i = 0; i < n; ++i) {
            const int expect = i >= n / 2 ? i * 7 + 3 : 0;
            EXPECT_EQ(out[i], expect) << "slot " << i;
        }
    }
}

TEST(DataflowExec, KeyedRestoreLeavesNoResidueOnHealthyGraphs)
{
    // On a graph where every parked value is eventually restored, the
    // end-of-run occupancy is zero.
    const int n = 8;
    auto bc = graph::BytecodeProgram::compile(reversedRestoreGraph(n));
    DramImage dram(outProgram());
    dram.resize("out", n * 4);
    auto stats = graph::execute(bc, dram, {}, 1u << 24);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(stats.sramParkedEnd, 0u);
}

TEST(DataflowExec, BytecodeStallReportNamesProcesses)
{
    // Shift the key stream to k = n-i so ordinal n is requested but
    // never parked: the keyedRestore must stall, and the diagnostic
    // must carry the opcode, the source node name, and the blocked
    // ordinal.
    const int n = 4;
    Dfg g = reversedRestoreGraph(n);
    for (auto &node : g.nodes) {
        if (node.name == "blockK")
            node.ops[0].imm = static_cast<sltf::Word>(n);
    }
    auto bc = graph::BytecodeProgram::compile(g);
    DramImage dram(outProgram());
    dram.resize("out", (n + 1) * 4);
    try {
        graph::execute(bc, dram, {}, 1u << 20);
        FAIL() << "expected the missing-key graph to stall";
    } catch (const std::runtime_error &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("dataflow execution stalled"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("keyedRestore(restore.v#"), std::string::npos)
            << "bytecode stall report lost the kind/node name: " << msg;
        EXPECT_NE(msg.find("awaiting parked value for ordinal 4"),
                  std::string::npos)
            << msg;
    }
}

TEST(DataflowExec, MismatchedOrdinalKeysRejectedByVerify)
{
    // A keyed park feeding an unkeyed restore (or vice versa) is a
    // corrupted pair: the park stores by ordinal, the restore would
    // pop positionally. verify() must reject both directions.
    Dfg g = reversedRestoreGraph(4);
    for (auto &node : g.nodes) {
        if (node.kind == NodeKind::restore)
            node.keyed = false;
    }
    EXPECT_THROW(g.verify(), std::logic_error);
    for (auto &node : g.nodes) {
        if (node.kind == NodeKind::restore)
            node.keyed = true;
        if (node.kind == NodeKind::park)
            node.keyed = false;
    }
    EXPECT_THROW(g.verify(), std::logic_error);
}

TEST(DataflowExec, GraphShapeSanity)
{
    Program prog = lang::parseAndAnalyze(R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0;
          while (i < n) { i++; };
          foreach (n) { int k => out[k] = k; };
        })");
    passes::runPipeline(prog);
    graph::Dfg dfg = graph::lower(prog);
    int fb = 0, ctr = 0, red = 0, filt = 0;
    for (const auto &node : dfg.nodes) {
        fb += node.kind == graph::NodeKind::fbMerge;
        ctr += node.kind == graph::NodeKind::counter;
        red += node.kind == graph::NodeKind::reduce;
        filt += node.kind == graph::NodeKind::filter;
    }
    EXPECT_EQ(fb, 1) << "one while loop -> one fb-merge";
    EXPECT_EQ(ctr, 1) << "one foreach -> one counter";
    EXPECT_EQ(red, 1) << "one foreach -> one reduce";
    EXPECT_GE(filt, 3) << "loop enter/back/exit filters at minimum";
    EXPECT_FALSE(dfg.toDot().empty());
}
