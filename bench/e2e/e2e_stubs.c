/* Measurement primitives the OCaml standard library does not expose:
   a monotonic clock, and wait4 so a reaped child's peak resident set
   size (ru_maxrss) can be read. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Seconds on CLOCK_MONOTONIC: immune to wall-clock steps, so a
   difference of two readings is always a true elapsed time. */
double e2e_now(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value e2e_now_byte(value unit)
{
  return caml_copy_double(e2e_now(unit));
}

/* [wait4 pid] blocks until [pid] ends and returns (code, maxrss_kb):
   code is the exit status, or 128 + the signal number when the child
   was killed by a signal (the shell's convention). */
value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
             : 255;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
