// A fixed reference kernel for calibrating host time.
//
// The benchmark host is shared: for tens of seconds at a time the same pass
// of the same program can run 20-100% slower, and thread CPU time drifts
// with wall time, so the drift is contention for the core and its caches,
// not descheduling. A kernel that belongs to the benchmark (not to the
// program) is timed before every measured pass: std::sort of 1M random
// 64-bit keys, branchy work over an 8 MiB array that lives in the shared L3
// cache like the program's task tables. Of the kernels tried (an
// L2-resident sort, heap and floating-point loop; random reads over
// 32 MiB; a sort over 16 MiB), the sort tracked the program's pass-to-pass
// slowdown best (log-log slope 1.1, against 0.6 and 0.45); this one sorts
// half as much to halve its cost. Host times are then reported as
//     median measured seconds x kReferenceNominalS / median kernel seconds,
// i.e. in seconds of a host where the kernel takes kReferenceNominalS. A
// change to the program cannot move the kernel, so it moves calibrated
// times exactly as it moves raw ones.
#pragma once

namespace perfbench {

/// About the kernel time on the lightly loaded 4-core Xeon the benchmark
/// was tuned on; it only sets the scale of calibrated times.
inline constexpr double kReferenceNominalS = 0.09;

/// Runs the reference kernel once and returns its wall time in seconds.
double reference_kernel_s();

}  // namespace perfbench
