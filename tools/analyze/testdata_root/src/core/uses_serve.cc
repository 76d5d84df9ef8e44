// Fixture for the snor_analyze_root_violation ctest: under this tree's
// tools/analyze/layers.toml, `core` may include only `util`, so the
// `serve` include below is the tree's one layer violation.
#include "util/status.h"
#include "serve/service.h"
