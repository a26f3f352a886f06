// The executor headers compiled with the opposite NDEBUG setting from the
// rest of the test binary. A program may mix NDEBUG and non-NDEBUG
// translation units against one libsharon.a, so no class in a header may
// change its layout with NDEBUG; tests/ndebug_layout_test.cc compares
// the sizes reported here with its own. Only sizeof is taken here, so
// this unit emits no inline function of those headers.

#ifdef NDEBUG
#undef NDEBUG
#else
#define NDEBUG
#endif

#include <cstddef>

#include "src/exec/chain_runner.h"
#include "src/exec/engine.h"

namespace sharon::layout_probe {

size_t FlippedNdebugSizeofChainRunner() { return sizeof(ChainRunner); }
size_t FlippedNdebugSizeofEngine() { return sizeof(Engine); }

}  // namespace sharon::layout_probe
