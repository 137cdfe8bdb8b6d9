#include "util/parallel.h"

#include <gtest/gtest.h>

namespace sbst::util {
namespace {

TEST(Parallel, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

}  // namespace
}  // namespace sbst::util
