#include "util/parallel.h"

#include <thread>

namespace sbst::util {

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

}  // namespace sbst::util
