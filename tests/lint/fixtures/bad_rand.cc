// Known-bad fixture: non-deterministic randomness and wall-clock seeds.
#include <cstdlib>
#include <ctime>

int
roll()
{
    srand(time(nullptr));  // line 8: banned-rand-time (srand AND time)
    return rand();  // line 9: banned-rand-time
}
// mithril-lint: allow(no-such-rule) line 11: names a rule that does not exist
