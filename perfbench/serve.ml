(* serve: the shared-memory cache service on the paper's 80-core machine.
   [Cache_serve.Make (Timed (Radixvm.Default))] over an anonymous
   128-slot region, Zipf s = 1.1, a 70/25/5 get/set/del mix, core 0
   running the LRU sweep. Every core is a closed-loop client; one op is
   one get, set or del, i.e. one [read] or [touch] of the timed VM. *)

module R = Vm.Radixvm.Default
module TR = Timed.Make (R)
module CS = Workloads.Cache_serve.Make (TR)
module CS_plain = Workloads.Cache_serve.Make (R)

let ncores = 80
let slots = 128
let zipf_s = 1.1
let warmup = 1_000_000
let default_window = 4_000_000

let serve_plain ~seed ~window =
  CS_plain.serve ~warmup ~slots ~zipf_s ~seed ~ncores ~duration:window R.create

let run ~seed ~traced ~window =
  let m = Outcome.meter ~traced in
  let probe = Probe.create ~layer:"core" Timed.kinds in
  let vm = ref None in
  let machine = ref None in
  let epoch0 = ref 0 in
  let result =
    CS.serve ~warmup ~slots ~zipf_s ~seed ~ncores ~duration:window
      ~on_machine:(fun mc -> machine := Some mc)
      ~on_measure:(fun () ->
        let v = Option.get !vm in
        epoch0 := Refcnt.Refcache.epoch (R.refcache (TR.inner v));
        Outcome.begin_window m (Option.get !machine) [ probe ])
      (fun mc ->
        let v = TR.wrap probe (R.create mc) in
        vm := Some v;
        v)
  in
  let machine = Option.get !machine in
  Outcome.end_window m machine;
  let v = Option.get !vm in
  let r = TR.inner v in
  (* Every op is one read or touch: their samples are the op latencies. *)
  let lat = Samples.create () in
  Samples.append ~into:lat probe.Probe.kinds.(Timed.k_read).Probe.samples;
  Samples.append ~into:lat probe.Probe.kinds.(Timed.k_touch).Probe.samples;
  let invariants =
    match R.check_invariants r with () -> true | exception Vm.Vm_types.Invariant_violation _ -> false
  in
  (* The sweep may stop between unmapping a victim and remapping it;
     that one slot is the only one allowed to be missing. *)
  let all_mapped =
    let ok = ref true in
    for s = 0 to slots - 1 do
      if (not (TR.mapped v ~vpn:s)) && TR.unmap_pending v <> Some s then ok := false
    done;
    !ok
  in
  let fill = List.assoc "fill_faults" m.Outcome.m_stats in
  let refcache = R.refcache r in
  let layer =
    [
      ("core.refaults_per_eviction",
        if result.evictions = 0 then 0. else float_of_int fill /. float_of_int result.evictions);
      ("core.pt_bytes", float_of_int (TR.pt_bytes v));
      ("core.index_bytes", float_of_int (TR.index_bytes v));
      ("radix.nodes", float_of_int (R.radix_nodes r));
      ("refcache.epochs", float_of_int (Refcnt.Refcache.epoch refcache - !epoch0));
      ("refcache.pending_review_end", float_of_int (Refcnt.Refcache.pending_review refcache));
      ("os.cached_file_pages", float_of_int (R.cached_file_pages r));
    ]
  in
  let outcome =
    Outcome.finish m ~workload:"serve" ~machine ~window_cycles:window
      ~attempted:result.ops ~failed:result.lost ~lat ~layer
      ~detail:(Marshal.to_string result [])
      ~checks:[ ("radixvm_invariants", invariants); ("every_slot_mapped", all_mapped) ]
  in
  (outcome, result)
