/**
 * @file
 * Channel FIFO tests: the segmented FIFO against a reference queue,
 * reuse and teardown mid-segment, segment reuse through the engine's
 * pool, and the opt-in value watch. The bounded-channel throws are
 * pinned, message and all, by the Backpressure tests in
 * test_scheduler.cc.
 */

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <stdexcept>

#include "dataflow/engine.hh"

using revet::dataflow::Channel;
using revet::dataflow::ChannelSegment;
using revet::dataflow::Engine;
using revet::dataflow::SegmentPool;
using revet::sltf::Token;

namespace
{

constexpr size_t kSeg = ChannelSegment::kTokens;

/** Push 0..n-1, alternating data and level-1 barriers every 7th. */
void
fill(Channel &ch, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        ch.push(i % 7 == 6 ? Token::barrier(1)
                           : Token::data(static_cast<uint32_t>(i)));
    }
}

TEST(Channel, FifoOrderMatchesReferenceQueue)
{
    // Occupancy drifts between empty and a few hundred tokens, so the
    // head and tail both cross many segment boundaries, and the
    // channel drains to empty (rewinding) along the way.
    std::mt19937 rng(20260730);
    Engine engine;
    Channel *ch = engine.channel("fifo");
    std::deque<Token> ref;
    uint64_t pushed = 0, barriers = 0;
    for (int op = 0; op < 20000; ++op) {
        const int phase = (op / 1500) % 3; // fill-heavy, balanced, drain
        const unsigned push_pct = phase == 0 ? 70 : phase == 1 ? 50 : 30;
        if (ref.empty() || rng() % 100 < push_pct) {
            const uint32_t r = rng();
            const Token tok = r % 5 == 0
                ? Token::barrier(1 + static_cast<int>(r % 15))
                : Token::data(r);
            ch->push(tok);
            ref.push_back(tok);
            ++pushed;
            barriers += tok.isBarrier();
        } else {
            ASSERT_EQ(ch->front(), ref.front()) << "op " << op;
            ASSERT_EQ(ch->pop(), ref.front()) << "op " << op;
            ref.pop_front();
        }
        ASSERT_EQ(ch->size(), ref.size()) << "op " << op;
        ASSERT_EQ(ch->empty(), ref.empty()) << "op " << op;
    }
    EXPECT_EQ(ch->totalPushed(), pushed);
    EXPECT_EQ(ch->barriersPushed(), barriers);
    while (!ref.empty()) {
        ASSERT_EQ(ch->pop(), ref.front());
        ref.pop_front();
    }
    EXPECT_TRUE(ch->empty());
    EXPECT_GT(engine.segmentPool().segments(), 3u)
        << "the sequence must cross segment boundaries";
}

TEST(Channel, ResetForReuseMidSegment)
{
    Engine engine;
    Channel *ch = engine.channel("reuse");
    fill(*ch, kSeg + 9); // two segments, tail mid-segment
    for (int i = 0; i < 5; ++i)
        ch->pop(); // head mid-segment too
    const size_t segments = engine.segmentPool().segments();
    ch->resetForReuse();
    EXPECT_TRUE(ch->empty());
    EXPECT_EQ(ch->size(), 0u);
    EXPECT_EQ(ch->totalPushed(), 0u);
    EXPECT_EQ(ch->barriersPushed(), 0u);

    fill(*ch, 2 * kSeg + 3);
    EXPECT_EQ(ch->totalPushed(), 2 * kSeg + 3);
    for (size_t i = 0; i < 2 * kSeg + 3; ++i) {
        const Token tok = ch->pop();
        if (i % 7 == 6)
            EXPECT_TRUE(tok.isBarrier()) << i;
        else
            EXPECT_EQ(tok.word(), i);
    }
    EXPECT_TRUE(ch->empty());
    EXPECT_EQ(engine.segmentPool().segments(), segments + 1)
        << "reset keeps one segment and returns the rest to the pool";
}

TEST(Channel, DestroyWithTokensQueuedIsClean)
{
    // Run under scripts/check.sh --sanitize: every segment a channel
    // still holds goes back to its pool, and the pool frees them.
    {
        SegmentPool pool;
        Channel outside("outside", Channel::unbounded, pool);
        fill(outside, 3 * kSeg + 4);
        outside.pop();
    }
    {
        Engine engine;
        Channel *a = engine.channel("a");
        Channel *b = engine.channel("b", 100);
        fill(*a, 5 * kSeg);
        fill(*b, 40);
        b->pop();
        EXPECT_EQ(engine.segmentPool().segments(), 7u);
    }
}

TEST(Channel, DrainThenRefillTakesNoNewSegment)
{
    for (size_t n : {size_t{1}, kSeg, kSeg + 1, size_t{50}, size_t{500}}) {
        SCOPED_TRACE(n);
        Engine engine;
        Channel *ch = engine.channel("c");
        fill(*ch, n);
        while (!ch->empty())
            ch->pop();
        const size_t segments = engine.segmentPool().segments();
        fill(*ch, n);
        EXPECT_EQ(engine.segmentPool().segments(), segments);
        while (!ch->empty())
            ch->pop();
        EXPECT_EQ(engine.segmentPool().segments(), segments);
    }
}

TEST(Channel, EngineChannelsShareOneSegmentPool)
{
    // Segments one channel's head returns serve another channel's
    // tail: the pool tracks the engine-wide high-water mark, not the
    // sum of per-channel peaks.
    Engine engine;
    Channel *a = engine.channel("a");
    Channel *b = engine.channel("b");
    fill(*a, 10 * kSeg);
    while (!a->empty())
        a->pop();
    const size_t segments = engine.segmentPool().segments();
    EXPECT_EQ(segments, 10u);
    fill(*b, 9 * kSeg);
    EXPECT_EQ(engine.segmentPool().segments(), segments);
}

TEST(Channel, ValueWatchIsOptIn)
{
    SegmentPool pool; // declared first: outlives the channels below
    Channel off("off", Channel::unbounded, pool);
    fill(off, 20);
    EXPECT_EQ(off.watch().dataPushed, 0u);
    EXPECT_EQ(off.watch().barriersPushed, 0u);
    EXPECT_EQ(off.barriersPushed(), 2u) << "barrier count is always kept";

    Channel on("on", Channel::unbounded, pool);
    on.watchValues(true);
    on.push(Token::data(5));
    on.push(Token::data(0xfffffffeu)); // -2 signed
    on.push(Token::barrier(2));
    on.push(Token::data(7));
    const Channel::ValueWatch &w = on.watch();
    EXPECT_EQ(w.dataPushed + w.barriersPushed, on.totalPushed());
    EXPECT_EQ(w.dataPushed, 3u);
    EXPECT_EQ(w.barriersPushed, 1u);
    EXPECT_EQ(w.first, 5u);
    EXPECT_FALSE(w.allEqual);
    EXPECT_EQ(w.smin, -2);
    EXPECT_EQ(w.smax, 7);
    EXPECT_EQ(w.umin, 5u);
    EXPECT_EQ(w.umax, 0xfffffffeu);
    EXPECT_EQ(on.pop().word(), 5u);

    on.resetForReuse();
    EXPECT_EQ(on.watch().dataPushed, 0u);
    on.push(Token::data(9));
    EXPECT_EQ(on.watch().dataPushed, 1u) << "reset keeps the watch on";

    // The watch sends every push through the checked path, where the
    // capacity bound still holds.
    Channel tight("tight", 1, pool);
    tight.watchValues(true);
    tight.push(Token::data(3));
    EXPECT_THROW(tight.push(Token::data(4)), std::runtime_error);
    EXPECT_EQ(tight.watch().dataPushed, 1u);
    EXPECT_EQ(tight.size(), 1u);
}

} // namespace
