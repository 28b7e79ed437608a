#include "dataflow/channel.hh"

#include <stdexcept>

#include "dataflow/engine.hh"

namespace revet
{
namespace dataflow
{

SegmentPool::~SegmentPool()
{
    while (free_) {
        ChannelSegment *seg = free_;
        free_ = seg->next;
        delete seg;
    }
}

ChannelSegment *
SegmentPool::take()
{
    if (!free_) {
        ++segments_;
        return new ChannelSegment;
    }
    ChannelSegment *seg = free_;
    free_ = seg->next;
    seg->next = nullptr;
    return seg;
}

void
SegmentPool::give(ChannelSegment *seg)
{
    seg->next = free_;
    free_ = seg;
}

Channel::~Channel()
{
    while (head_seg_) {
        ChannelSegment *seg = head_seg_;
        head_seg_ = seg->next;
        pool_->give(seg);
    }
}

void
Channel::resetForReuse()
{
    if (head_seg_) {
        while (head_seg_->next) {
            ChannelSegment *seg = head_seg_->next;
            head_seg_->next = seg->next;
            pool_->give(seg);
        }
        tail_seg_ = head_seg_;
        head_ = tail_ = head_seg_->tokens;
        head_end_ = tail_end_ = head_ + ChannelSegment::kTokens;
    }
    size_ = 0;
    total_pushed_ = 0;
    barriers_pushed_ = 0;
    watch_ = ValueWatch{};
}

void
Channel::pushChecked(const Token &tok)
{
    if (size_ >= capacity_) {
        throw std::runtime_error(
            "channel '" + (name_.empty() ? std::string("?") : name_) +
            "' overflow: push on a full bounded channel (capacity " +
            std::to_string(capacity_) + ") — missing canPush() guard");
    }
    if (watching_) {
        if (tok.isBarrier()) {
            ++watch_.barriersPushed;
        } else {
            const Word w = tok.word();
            const int32_t s = tok.asInt();
            if (watch_.dataPushed == 0)
                watch_.first = w;
            else
                watch_.allEqual &= w == watch_.first;
            watch_.smin = s < watch_.smin ? s : watch_.smin;
            watch_.smax = s > watch_.smax ? s : watch_.smax;
            watch_.umin = w < watch_.umin ? w : watch_.umin;
            watch_.umax = w > watch_.umax ? w : watch_.umax;
            ++watch_.dataPushed;
        }
    }
    append(tok);
}

void
Channel::throwUnderflow() const
{
    throw std::runtime_error(
        "channel '" + (name_.empty() ? std::string("?") : name_) +
        "' underflow: pop on an empty channel");
}

void
Channel::growTail()
{
    ChannelSegment *seg = pool_->take();
    if (tail_seg_) {
        tail_seg_->next = seg;
    } else {
        head_seg_ = seg;
        head_ = seg->tokens;
        head_end_ = head_ + ChannelSegment::kTokens;
    }
    tail_seg_ = seg;
    tail_ = seg->tokens;
    tail_end_ = tail_ + ChannelSegment::kTokens;
}

void
Channel::dropHeadSegment()
{
    // Only called with tokens left, so a later segment holds them.
    ChannelSegment *seg = head_seg_;
    head_seg_ = seg->next;
    pool_->give(seg);
    head_ = head_seg_->tokens;
    head_end_ = head_ + ChannelSegment::kTokens;
}

void
Channel::notifyTokenAvailable()
{
    engine_->onTokenAvailable(this);
}

void
Channel::notifySpaceAvailable()
{
    engine_->onSpaceAvailable(this);
}

bool
allHaveToken(const Bundle &bundle)
{
    for (const Channel *ch : bundle) {
        if (ch->empty())
            return false;
    }
    return true;
}

bool
allCanPush(const Bundle &bundle)
{
    for (const Channel *ch : bundle) {
        if (!ch->canPush())
            return false;
    }
    return true;
}

int
bundleHeadKind(const Bundle &bundle)
{
    bool any_data = false;
    int level = -1;
    for (const Channel *ch : bundle) {
        const Token &head = ch->front();
        if (head.isData()) {
            any_data = true;
        } else if (level == -1) {
            level = head.barrierLevel();
        } else if (level != head.barrierLevel()) {
            throw std::runtime_error(
                "bundle misaligned: barriers B" + std::to_string(level) +
                " vs B" + std::to_string(head.barrierLevel()));
        }
    }
    if (any_data && level != -1) {
        throw std::runtime_error(
            "bundle misaligned: data vs barrier at channel heads");
    }
    return any_data ? 0 : level;
}

void
pushBarrier(const Bundle &bundle, int level)
{
    for (Channel *ch : bundle)
        ch->push(Token::barrier(level));
}

} // namespace dataflow
} // namespace revet
