#include "accel/tokenizer.h"

namespace mithril::accel {

double
Tokenizer::usefulRatio() const
{
    if (words_emitted_ == 0) {
        return 0.0;
    }
    return static_cast<double>(useful_bytes_) /
           static_cast<double>(words_emitted_ * kDatapathBytes);
}

void
Tokenizer::resetStats()
{
    busy_cycles_ = 0;
    words_emitted_ = 0;
    useful_bytes_ = 0;
}

} // namespace mithril::accel
