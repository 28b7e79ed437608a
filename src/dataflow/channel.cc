#include "dataflow/channel.hh"

#include <stdexcept>

#include "dataflow/engine.hh"

namespace revet
{
namespace dataflow
{

void
Channel::push(const Token &tok)
{
    if (fifo_.size() >= capacity_) {
        throw std::runtime_error(
            "channel '" + (name_.empty() ? std::string("?") : name_) +
            "' overflow: push on a full bounded channel (capacity " +
            std::to_string(capacity_) + ") — missing canPush() guard");
    }
    const bool was_empty = fifo_.empty();
    fifo_.push_back(tok);
    ++total_pushed_;
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
    if (engine_ && was_empty)
        engine_->onTokenAvailable(this);
}

Token
Channel::pop()
{
    if (fifo_.empty()) {
        throw std::runtime_error(
            "channel '" + (name_.empty() ? std::string("?") : name_) +
            "' underflow: pop on an empty channel");
    }
    const bool was_full = fifo_.size() == capacity_;
    Token tok = fifo_.front();
    fifo_.pop_front();
    if (engine_ && was_full)
        engine_->onSpaceAvailable(this);
    return tok;
}

TokenStream
Channel::drain()
{
    TokenStream out(fifo_.begin(), fifo_.end());
    fifo_.clear();
    return out;
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
