(* prefork: a pre-fork server over Os.Kernel with 16 simulated cores.

   Set-up: init execs a VFS text file, maps a page-cache-backed cache
   file, has a short-lived child read every page of it, and forks one
   worker per core. Serving: each worker is a
   closed-loop client issuing Zipf load/store requests on the shared file
   mapping, and grows or shrinks a private heap with sbrk each batch.
   Recycling: after a seeded request count a worker exits and its core
   replaces it through wait and fork. The file is truncated once, after
   the final reap; the resize hook drops the cached pages then. No
   truncation runs while workers serve: Page_cache.get revives an evicted
   entry whose Refcache count may already be 0 and under review, which
   can free a mapped frame (Physmem.Double_free), so truncation under
   traffic stays out of this workload until the page cache takes a weak
   reference. One op is one load or store request.

   Warm start: core 0's set-up runs its clock far ahead of the other
   cores, so warmup is counted from the end of set-up, and the child's
   reads leave the page cache warm. Otherwise the few pages still cold
   when the window opens would make each op's mean and tail a count of
   first-touch disk reads. *)

open Ccsim
module K = Os.Kernel
module R = Vm.Radixvm.Default
module T = Vm.Vm_types

let ncores = 16
let slots = 64
let keys = 128
let zipf_s = 1.1
let base = 0x800  (* first page of the cache mapping; page-cache keys are vpns *)
let text_pages = 16
let batch = 16
let heap_max = 8
let warmup = 5_000_000  (* cycles after set-up *)
let default_window = 12_000_000

(* The benchmark's syscall wrapper: every Os.Kernel entry point the
   benchmark uses, timed through one probe (layer "os"). *)
let kinds = [ "fork"; "exit"; "wait"; "exec"; "mmap"; "sbrk"; "load"; "store" ]

module Syscall = struct
  let k_fork = 0
  let k_exit = 1
  let k_wait = 2
  let k_exec = 3
  let k_mmap = 4
  let k_sbrk = 5
  let k_load = 6
  let k_store = 7

  let result p k core s0 r =
    Probe.stop ~error:(Result.is_error r) p k core s0;
    r

  let fork p kern core proc = let s0 = Probe.start p core in result p k_fork core s0 (K.sys_fork kern core proc)

  let exit p kern core proc =
    let s0 = Probe.start p core in
    K.sys_exit kern core proc ~code:0;
    Probe.stop p k_exit core s0

  let wait p kern core proc = let s0 = Probe.start p core in result p k_wait core s0 (K.sys_wait kern proc)
  let exec p kern core proc ~path = let s0 = Probe.start p core in result p k_exec core s0 (K.sys_exec kern core proc ~path)

  let mmap p kern core proc ~vpn ~npages ~file =
    let s0 = Probe.start p core in
    result p k_mmap core s0 (K.sys_mmap kern core proc ~vpn ~npages ~file ())

  let sbrk p kern core proc ~pages = let s0 = Probe.start p core in result p k_sbrk core s0 (K.sys_sbrk kern core proc ~pages)

  let load p kern core proc ~vpn =
    let s0 = Probe.start p core in
    let v = K.load kern core proc ~vpn in
    Probe.stop ~error:(Option.is_none v) p k_load core s0;
    v

  let store p kern core proc ~vpn value =
    let s0 = Probe.start p core in
    let r = K.store kern core proc ~vpn value in
    Probe.stop ~error:(match r with T.Ok -> false | _ -> true) p k_store core s0;
    r
end

let stored_bit = 1 lsl 40

type worker = {
  mutable proc : K.process;
  mutable alive : bool;  (* false: exited, awaiting reap and replacement *)
  mutable served : int;
  mutable lifetime : int;
  mutable heap : int;
}

let run ~seed ~traced ~window =
  let m = Outcome.meter ~traced in
  let machine = Machine.create (Params.default ~ncores ()) in
  let probe = Probe.create ~layer:"os" kinds in
  (* Syscalls are recorded over the whole run, so the set-up's exec and
     first forks are measured too; the per-op figures use the window. *)
  probe.Probe.recording <- true;
  let kern = K.boot machine in
  let c0 = Machine.core machine 0 in
  let vfs = K.vfs kern in
  ignore (Os.Vfs.create_file vfs ~name:"/bin/server" ~pages:text_pages);
  let fd = Os.Vfs.create_file vfs ~name:"cache.mmap" ~pages:(base + slots) in
  let init = K.init_process kern in
  let setup_errors = ref 0 in
  let expect = function Ok v -> Some v | Error _ -> incr setup_errors; None in
  ignore (expect (Syscall.exec probe kern c0 init ~path:"/bin/server"));
  ignore (expect (Syscall.mmap probe kern c0 init ~vpn:base ~npages:slots ~file:fd));
  Os.Vfs.set_resize_hook vfs (fun f ~old_pages ~new_pages ->
      if f = fd && new_pages < old_pages then
        for p = max new_pages base to old_pages - 1 do
          R.evict_file_page (K.vm init) c0 ~file:fd ~page:p
        done);
  let physmem = Machine.physmem machine in
  let frames0 = Physmem.live_frames physmem in
  (match Syscall.fork probe kern c0 init with
  | Ok primer ->
      for s = 0 to slots - 1 do
        if Syscall.load probe kern c0 primer ~vpn:(base + s) = None then incr setup_errors
      done;
      Syscall.exit probe kern c0 primer;
      ignore (expect (Syscall.wait probe kern c0 init))
  | Error _ -> incr setup_errors);
  let rngs = Array.init ncores (fun c -> Random.State.make [| seed; c |]) in
  let lifetime c = 200 + Random.State.int rngs.(c) 400 in
  let workers =
    Array.init ncores (fun c ->
        match Syscall.fork probe kern c0 init with
        | Ok proc -> { proc; alive = true; served = 0; lifetime = lifetime c; heap = 0 }
        | Error e -> failwith ("prefork: initial fork: " ^ K.errno_to_string e))
  in
  let lat = Samples.create () in
  let attempted = ref 0 in
  let failed = ref 0 in
  let bad_data = ref 0 in
  let measuring = ref false in
  let next_op = ref 0 in
  for c = 0 to ncores - 1 do
    let core = Machine.core machine c in
    let rng = rngs.(c) in
    let z = Workloads.Zipf.create ~n:keys ~s:zipf_s ~seed:(seed + c) in
    let w = workers.(c) in
    let fail () = if !measuring then incr failed in
    let request () =
      let k = Workloads.Zipf.next z in
      let s = k mod slots in
      let vpn = base + s in
      probe.Probe.op <- !next_op;
      incr next_op;
      (if Random.State.int rng 100 < 70 then
         match Syscall.load probe kern core w.proc ~vpn with
         | Some v ->
             (* A page holds its file content or a value some worker
                stored for a key of the same slot. *)
             if
               v <> Vm.Page_cache.file_content ~file:fd ~page:vpn
               && (v land stored_bit = 0 || (v land (stored_bit - 1)) mod slots <> s)
             then incr bad_data
         | None -> fail ()
       else
         match Syscall.store probe kern core w.proc ~vpn (k lor stored_bit) with
         | T.Ok -> ()
         | T.Segfault | T.Oom -> fail ());
      if !measuring then begin
        incr attempted;
        Samples.add lat probe.Probe.last
      end
    in
    let syscall_ok = function Ok _ -> () | Error _ -> fail () in
    Machine.set_workload machine c (fun () ->
        if not w.alive then begin
          syscall_ok (Syscall.wait probe kern core init);
          match Syscall.fork probe kern core init with
          | Ok proc ->
              w.proc <- proc;
              w.alive <- true;
              w.served <- 0;
              w.lifetime <- lifetime c;
              w.heap <- 0
          | Error _ -> fail ()
        end
        else begin
          for _ = 1 to batch do
            request ()
          done;
          (* Grow or shrink the private heap; fresh pages get written. *)
          let delta = Random.State.int rng 5 - 2 in
          let delta = max (-w.heap) (min (heap_max - w.heap) delta) in
          if delta <> 0 then begin
            match Syscall.sbrk probe kern core w.proc ~pages:delta with
            | Ok brk ->
                for p = 0 to delta - 1 do
                  match Syscall.store probe kern core w.proc ~vpn:(brk + p) p with
                  | T.Ok -> ()
                  | T.Segfault | T.Oom -> fail ()
                done;
                w.heap <- w.heap + delta
            | Error _ -> fail ()
          end;
          w.served <- w.served + batch;
          if w.served >= w.lifetime then begin
            Syscall.exit probe kern core w.proc;
            w.alive <- false
          end
        end;
        true)
  done;
  let start = c0.Core.clock in
  Machine.run_for machine ~cycles:(start + warmup);
  let r0 = K.vm init in
  let refcache = R.refcache r0 in
  let epoch0 = Refcnt.Refcache.epoch refcache in
  measuring := true;
  Outcome.begin_window m machine [ probe ];
  Machine.run_for machine ~cycles:(start + warmup + window);
  Outcome.end_window m machine;
  measuring := false;
  let live = List.filter (fun w -> w.alive) (Array.to_list workers) in
  let vms = K.vm init :: List.map (fun w -> K.vm w.proc) live in
  let sum f = float_of_int (List.fold_left (fun acc v -> acc + f v) 0 vms) in
  let layer =
    [
      ("core.refaults_per_eviction", 0.);
      ("core.pt_bytes", sum R.pt_bytes);
      ("core.index_bytes", sum R.index_bytes);
      ("radix.nodes", sum R.radix_nodes);
      ("refcache.epochs", float_of_int (Refcnt.Refcache.epoch refcache - epoch0));
      ("refcache.pending_review_end", float_of_int (Refcnt.Refcache.pending_review refcache));
      ("os.cached_file_pages", float_of_int (R.cached_file_pages r0));
    ]
  in
  let invariants =
    List.for_all
      (fun v ->
        match R.check_invariants v with
        | () -> true
        | exception T.Invariant_violation _ -> false)
      vms
  in
  (* Final reap: every worker exits, init reaps them all, and only then
     is init alone; truncating the file and draining Refcache must then
     give every frame back. *)
  let all_counted = K.process_count kern = 1 + ncores in
  List.iter (fun w -> Syscall.exit probe kern c0 w.proc) live;
  let before_reap = K.process_count kern in
  let rec reap n = match K.sys_wait kern init with Ok _ -> reap (n + 1) | Error _ -> n in
  let reaped = reap 0 in
  let reaped_to_init = before_reap = 1 + ncores && reaped = ncores && K.process_count kern = 1 in
  ignore (Os.Vfs.resize_file vfs fd ~pages:0);
  Machine.drain machine ~cycles:(4 * (Machine.params machine).Params.epoch_cycles);
  let frames_back = Physmem.live_frames physmem = frames0 in
  Outcome.finish m ~workload:"prefork" ~machine ~window_cycles:window
    ~attempted:!attempted ~failed:!failed ~lat ~layer
    ~detail:
      (Printf.sprintf "requests=%d setup_errors=%d" !next_op !setup_errors)
    ~checks:
      [
        ("radixvm_invariants", invariants);
        ("setup_syscalls_ok", !setup_errors = 0);
        ("loads_return_file_or_stored_data", !bad_data = 0);
        ("process_count_until_final_reap", all_counted);
        ("process_count_init_after_reap", reaped_to_init);
        ("frames_return_after_drain", frames_back);
      ]
