// ChainRunner and Engine keep one layout whether or not NDEBUG is set:
// Engine holds a std::vector<ChainRunner>, so a consumer built without
// NDEBUG against a Release library would otherwise index and free that
// vector with the wrong element size (heap corruption, not a diagnostic).

#include <gtest/gtest.h>

#include <cstddef>

#include "src/exec/chain_runner.h"
#include "src/exec/engine.h"

namespace sharon::layout_probe {

// Defined in ndebug_flipped_layout.cc, compiled with NDEBUG flipped.
size_t FlippedNdebugSizeofChainRunner();
size_t FlippedNdebugSizeofEngine();

namespace {

TEST(NdebugLayout, ChainRunnerAndEngineSizesIgnoreNdebug) {
  EXPECT_EQ(FlippedNdebugSizeofChainRunner(), sizeof(ChainRunner));
  EXPECT_EQ(FlippedNdebugSizeofEngine(), sizeof(Engine));
}

}  // namespace
}  // namespace sharon::layout_probe
