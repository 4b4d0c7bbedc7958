(* Host monotonic clock in nanoseconds. The stub returns an unboxed
   int64, so a read allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
