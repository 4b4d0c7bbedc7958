(* A fixed host workload, independent of the simulator, timed between
   simulations. A shared host runs some minutes far slower
   than others; dividing host times by this kernel's slowdown against
   [reference_s] reports them in reference-host seconds, so a slow
   minute slows both sides of the ratio. [reference_s] is the kernel's
   typical time on the 2-CPU 2.0 GHz Xeon host the benchmark was tuned
   on.

   The kernel runs on a freshly collected heap under fixed GC settings,
   so the program's own heap, garbage and GC tuning do not move the
   divisor: a change to them shows in the calibrated host figures, and
   the raw figures (host.raw_sim_ops_per_s) show whether the kernel moved
   too. *)

let reference_s = 0.045

let kernel () =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fff_ffff;
    !state
  in
  let table = Hashtbl.create 1024 in
  for i = 0 to 49_999 do
    Hashtbl.replace table (next () land 0xffff) i
  done;
  let hits = ref 0 in
  for _ = 0 to 99_999 do
    match Hashtbl.find_opt table (next () land 0xffff) with
    | Some v -> hits := !hits + v
    | None -> ()
  done;
  let a = Array.init 50_000 (fun _ -> next ()) in
  Array.sort Int.compare a;
  let l = List.rev_map (fun x -> x lxor a.(x land 0xffff)) (List.init 50_000 Fun.id) in
  !hits + List.length l

let fixed (c : Gc.control) =
  { c with minor_heap_size = 262_144; space_overhead = 120 }

(* Seconds the kernel takes now: the median of three timings on a
   collected heap. The program's GC settings are restored afterwards. *)
let measure () =
  let saved = Gc.get () in
  Gc.set (fixed saved);
  Gc.full_major ();
  let time () =
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    float_of_int (Clock.now_ns () - t0) /. 1e9
  in
  let a = Fun.protect ~finally:(fun () -> Gc.set saved) (fun () -> List.init 3 (fun _ -> time ())) in
  Samples.median_float a

(* How much slower than the reference the host runs right now. *)
let slowdown () = measure () /. reference_s
