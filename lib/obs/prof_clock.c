/* The profiler's clock: CLOCK_MONOTONIC in nanoseconds. The native entry
   point is unboxed and allocation-free, so a probe's clock read adds no
   heap words to the spans it measures. */

#include <stdint.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

int64_t clanbft_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value clanbft_monotonic_ns_byte(value unit)
{
  return caml_copy_int64(clanbft_monotonic_ns(unit));
}
