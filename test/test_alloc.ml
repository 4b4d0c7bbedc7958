(* Allocation budgets for the simulated hot path. With no Obs sink
   installed, a simulated memory access, a lock operation, a cached
   Refcache delta and a user access that hits the TLB allocate nothing on
   the OCaml heap; a page fault and an mmap/munmap pair allocate only what
   they model (mapping records, folded slots, frame handles), within a
   fixed budget. [Gc.minor_words] deltas are exact in native code, so
   these budgets hold on any host: an extra allocation on one of these
   paths fails here, however fast the machine running the suite. *)

open Ccsim
module R = Vm.Radixvm.Default
module Refcache = Refcnt.Refcache

(* Minor-heap words [f ()] allocates, net of the measurement's own cost
   (none while [Gc.minor_words]'s result stays unboxed). Every call runs
   single-core, straight from the test, on a machine with no sink and no
   scheduler, so nothing else allocates in between. *)
let words f =
  let raw g =
    let before = Gc.minor_words () in
    g ();
    let after = Gc.minor_words () in
    int_of_float (after -. before)
  in
  raw f - raw ignore

(* Every word [f ()] allocates, in either heap: minor plus directly
   major-allocated, less what a minor collection promoted (counted in
   both). Arrays past the minor-heap size limit skip [Gc.minor_words]. *)
let total_words f =
  let raw g =
    Gc.full_major ();
    let minor, promoted, major = Gc.counters () in
    g ();
    let minor', promoted', major' = Gc.counters () in
    int_of_float
      (minor' -. minor +. (major' -. major) -. (promoted' -. promoted))
  in
  raw f - raw ignore

let fresh_machine () = Machine.create (Params.default ~ncores:2 ())

let zero name f = Alcotest.(check int) name 0 (words f)

let within ?(measure = words) name budget f =
  let w = measure f in
  Printf.printf "%s: %d words (budget %d)\n" name w budget;
  if w > budget then
    Alcotest.failf "%s: %d words allocated, budget %d" name w budget

let test_line () =
  let m = fresh_machine () in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let line () =
    Line.create (Machine.params m) (Machine.stats m) ~home_socket:0
  in
  let l = line () in
  zero "read miss (DRAM)" (fun () -> Line.read c0 l);
  zero "read hit" (fun () -> Line.read c0 l);
  zero "read miss (transfer)" (fun () -> Line.read c1 l);
  zero "write miss" (fun () -> Line.write c0 l);
  zero "write hit" (fun () -> Line.write c0 l);
  zero "atomic write miss" (fun () -> Line.write_atomic c1 l);
  let l' = line () in
  zero "write miss (DRAM)" (fun () -> Line.write c0 l')

let test_locks () =
  let m = fresh_machine () in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let l = Lock.create c0 in
  zero "lock acquire+release" (fun () ->
      Lock.acquire c0 l;
      Lock.release c0 l);
  zero "contended lock acquire+release" (fun () ->
      Lock.acquire c1 l;
      Lock.release c1 l);
  zero "lock try_acquire+release" (fun () ->
      if Lock.try_acquire c0 l then Lock.release c0 l);
  let rw = Rwlock.create c0 in
  zero "rwlock read acquire+release" (fun () ->
      Rwlock.read_acquire c0 rw;
      Rwlock.read_release c0 rw);
  zero "rwlock write acquire+release" (fun () ->
      Rwlock.write_acquire c1 rw;
      Rwlock.write_release c1 rw)

let test_refcache () =
  let m = fresh_machine () in
  let c0 = Machine.core m 0 in
  let rc = Refcache.create m in
  let obj = Refcache.make_obj rc c0 ~init:1 ~free:ignore in
  Refcache.inc rc c0 obj;
  Refcache.dec rc c0 obj;
  zero "cached inc+dec" (fun () ->
      Refcache.inc rc c0 obj;
      Refcache.dec rc c0 obj)

(* A mapped region with page [vpn] faulted in by core [by]. *)
let mapped_vm ?(by = 0) ~vpn () =
  let m = fresh_machine () in
  let vm = R.create m in
  R.mmap vm (Machine.core m 0) ~vpn:0 ~npages:64 ();
  ignore (R.touch vm (Machine.core m by) ~vpn : Vm.Vm_types.access_result);
  (m, vm)

let access (r : Vm.Vm_types.access_result) = ignore r

let test_translated_access () =
  let m, vm = mapped_vm ~vpn:3 () in
  let c0 = Machine.core m 0 in
  zero "TLB-hit read" (fun () -> access (R.read vm c0 ~vpn:3));
  zero "TLB-hit touch" (fun () -> access (R.touch vm c0 ~vpn:3));
  zero "TLB-hit store" (fun () -> access (R.store vm c0 ~vpn:3 7));
  Vm.Mmu.drop_tlb_range (R.mmu vm) ~owner:0 ~lo:0 ~hi:64;
  zero "TLB refill from the page table" (fun () ->
      access (R.read vm c0 ~vpn:3))

let test_physmem () =
  let m = fresh_machine () in
  let c0 = Machine.core m 0 in
  let pm = Machine.physmem m in
  Physmem.free pm c0 (Physmem.alloc pm c0);
  zero "recycled frame alloc+free" (fun () ->
      Physmem.free pm c0 (Physmem.alloc pm c0))

let test_zipf () =
  let z = Workloads.Zipf.create ~n:128 ~s:1.1 ~seed:3 in
  zero "Zipf draw" (fun () -> ignore (Workloads.Zipf.next z : int))

(* What the fault paths allocate is the state they model: a fresh
   anonymous fault builds the frame's counted object (with its two cache
   lines and lock), a mapping record with its TLB core set and a leaf
   slot; a fill fault builds the page-table line the walk reads; a core's
   first fault in an address space also builds its TLB and page-table
   map; an mmap/munmap pair builds the folded slot and record, and
   returns the removed runs. Budgets are the measured words; lower them
   when a change removes more, never raise them to admit a new
   allocation. *)
let first_fault_budget = 40
let fill_fault_budget = 16
let anon_fault_budget = 80
let mmap_munmap_budget = 125

let test_faults () =
  let m, vm = mapped_vm ~by:1 ~vpn:5 () in
  let c0 = Machine.core m 0 in
  (* vpn 13 sits on another page-table line than vpn 5. *)
  access (R.touch vm (Machine.core m 1) ~vpn:13);
  within "first fault by a core" first_fault_budget (fun () ->
      access (R.read vm c0 ~vpn:13));
  within "fill fault" fill_fault_budget (fun () ->
      access (R.read vm c0 ~vpn:5));
  within "fresh anonymous fault" anon_fault_budget (fun () ->
      access (R.touch vm c0 ~vpn:6));
  within "16-page mmap+munmap" mmap_munmap_budget (fun () ->
      R.mmap vm c0 ~vpn:128 ~npages:16 ();
      R.munmap vm c0 ~vpn:128 ~npages:16)

(* An address space pays for the cores that use it: building one on an
   80-core machine builds no per-core TLB or page-table map. Measured as
   exec and fork build it, sharing the machine-wide Refcache and page
   cache of an existing space; in total words, since the per-space tables
   are major-heap allocations. Building every core's TLB and map up front
   cost 668,682 words here. *)
let create_80_budget = 11_051

let test_create () =
  let m = Machine.create (Params.default ~ncores:80 ()) in
  let vm = R.create m in
  within ~measure:total_words "address space (80 cores)" create_80_budget
    (fun () -> ignore (R.create_with ~share_state:vm m : R.t))

let () =
  Alcotest.run "alloc"
    [
      ( "zero",
        [
          Alcotest.test_case "line read/write" `Quick test_line;
          Alcotest.test_case "lock and rwlock" `Quick test_locks;
          Alcotest.test_case "refcache cached delta" `Quick test_refcache;
          Alcotest.test_case "translated access" `Quick test_translated_access;
          Alcotest.test_case "physmem" `Quick test_physmem;
          Alcotest.test_case "zipf" `Quick test_zipf;
        ] );
      ( "budget",
        [
          Alcotest.test_case "faults and mmap" `Quick test_faults;
          Alcotest.test_case "address space on 80 cores" `Quick test_create;
        ] );
    ]
