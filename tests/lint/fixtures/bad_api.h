// Known-bad fixture companion: declares the Status-returning API that
// bad_dropped_status.cc drops.
#ifndef MITHRIL_TESTS_LINT_FIXTURES_BAD_API_H
#define MITHRIL_TESTS_LINT_FIXTURES_BAD_API_H

#include "common/status.h"

namespace mithril {

Status sealFixturePage(int page);

} // namespace mithril

#endif // MITHRIL_TESTS_LINT_FIXTURES_BAD_API_H
