#include "core/page_tokens.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/status.h"

namespace mithril::core {

uint32_t
PageTokenSet::insert(std::string_view token)
{
    MITHRIL_ASSERT(!sorted_);
    if ((tokens_.size() + 1) * 2 > slots_.size()) {
        grow();
    }
    auto hash = static_cast<uint32_t>(hash64(token));
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.index == 0) {
            char *copy = allocate(token.size());
            std::memcpy(copy, token.data(), token.size());
            tokens_.emplace_back(copy, token.size());
            slot = Slot{hash, static_cast<uint32_t>(tokens_.size())};
            return slot.index - 1;
        }
        if (slot.hash == hash && tokens_[slot.index - 1] == token) {
            return slot.index - 1;
        }
    }
}

std::span<const std::string_view>
PageTokenSet::sorted()
{
    std::sort(tokens_.begin(), tokens_.end());
    sorted_ = true;
    return tokens_;
}

void
PageTokenSet::clear()
{
    tokens_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
    chunk_ = 0;
    used_ = 0;
    sorted_ = false;
}

char *
PageTokenSet::allocate(size_t n)
{
    if (chunks_.empty() || used_ + n > chunks_[chunk_].size()) {
        // Move on to the next chunk, reusing one an earlier page
        // filled. Chunks past chunk_ hold no live token, so growing
        // one moves nothing a view points at.
        if (!chunks_.empty()) {
            ++chunk_;
        }
        used_ = 0;
        if (chunk_ == chunks_.size()) {
            chunks_.emplace_back(std::max(kChunkBytes, n));
        } else if (chunks_[chunk_].size() < n) {
            chunks_[chunk_].resize(n);
        }
    }
    char *p = chunks_[chunk_].data() + used_;
    used_ += n;
    return p;
}

void
PageTokenSet::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(1024, old.size() * 2), Slot{});
    size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.index == 0) {
            continue;
        }
        size_t i = slot.hash & mask;
        while (slots_[i].index != 0) {
            i = (i + 1) & mask;
        }
        slots_[i] = slot;
    }
}

} // namespace mithril::core
