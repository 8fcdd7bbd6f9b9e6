// Allocation counting for the benchmark binary: operator new is replaced
// and counts calls from every thread, but only between StartAllocWindow
// and StopAllocWindow, which the benchmark wraps around its timed calls.
#pragma once

#include <atomic>
#include <cstdint>

namespace perfbench {

void StartAllocWindow();
void StopAllocWindow();
// operator-new calls counted inside windows since the process started.
uint64_t AllocCount();

}  // namespace perfbench
