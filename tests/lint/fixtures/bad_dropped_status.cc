// Known-bad fixture: -Werror=unused-result must reject line 9.
#include "bad_api.h"

namespace mithril {

void
sealAll()
{
    sealFixturePage(0);  // line 9: dropped Status
    Status kept = sealFixturePage(1);  // consumed: no finding
    (void)kept;
}

} // namespace mithril
