/* CPU affinity of the calling thread, for [Bench.pick_cpu]. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the thread may run on, as an OCaml int list. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--)
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(cpu));
        Store_field(cell, 1, list);
        list = cell;
      }
  CAMLreturn(list);
}

/* Restricts the thread to one CPU; false if the kernel refuses. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
