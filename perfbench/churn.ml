(* churn: address-space writes on RadixVM with 32 simulated cores, each
   a closed-loop client. A core maps a private region of a seeded
   power-law size (1-64 pages), writes every page, and unmaps it. A
   seeded quarter of the regions go to the next core instead, which
   writes them and unmaps them: the paper's pipeline pattern, costing one
   targeted remote shootdown. One op is one region lifecycle; its latency
   is the summed simulated cycles of its VM calls (time queued between
   cores is excluded). *)

open Ccsim
module R = Vm.Radixvm.Default
module TR = Timed.Make (R)

let ncores = 32
let nbuf = 4  (* regions a core may have in flight *)
let max_pages = 64
let arena = 4096  (* pages per core: a leaf node apart, no false sharing *)
let handoff_pct = 25
let chunk = 16  (* page writes per scheduler step *)
let warmup = 4_000_000
let default_window = 20_000_000

type region = {
  op : int;
  owner : int;
  slot : int;
  vpn : int;
  pages : int;
  span : int;
  mutable cycles : int;
  mutable failed : bool;
}

type state = Idle | Writing of region * int | Consuming of region * int

(* Log-uniform over [1, max_pages]: P(size >= k) falls as 1/k. *)
let region_pages rng =
  let u = Random.State.float rng 1.0 in
  min max_pages (int_of_float (Float.exp (u *. Float.log (float_of_int (max_pages + 1)))))

let run ~seed ~traced ~window =
  let m = Outcome.meter ~traced in
  let machine = Machine.create (Params.default ~ncores ()) in
  let probe = Probe.create ~layer:"core" Timed.kinds in
  let vm = TR.wrap probe (R.create machine) in
  let r = TR.inner vm in
  let physmem = Machine.physmem machine in
  let frames0 = Physmem.live_frames physmem in
  let live : (int, region) Hashtbl.t = Hashtbl.create 256 in
  let next_op = ref 0 in
  let lat = Samples.create () in
  let attempted = ref 0 in
  let failed = ref 0 in
  let measuring = ref false in
  let data = Array.init ncores (fun c -> Channel.create (Machine.core machine c)) in
  let acks = Array.init ncores (fun c -> Channel.create (Machine.core machine c)) in
  for c = 0 to ncores - 1 do
    let core = Machine.core machine c in
    let rng = Random.State.make [| seed; c |] in
    let free = ref (List.init nbuf Fun.id) in
    let state = ref Idle in
    let enter reg =
      probe.Probe.op <- reg.op;
      probe.Probe.parent <- reg.span
    in
    let charge reg = reg.cycles <- reg.cycles + probe.Probe.last in
    let write reg pos =
      let stop = min reg.pages (pos + chunk) in
      enter reg;
      for p = pos to stop - 1 do
        (match TR.touch vm core ~vpn:(reg.vpn + p) with
        | Vm.Vm_types.Ok -> ()
        | Vm.Vm_types.Segfault | Vm.Vm_types.Oom -> reg.failed <- true);
        charge reg
      done;
      stop
    in
    let retire reg =
      enter reg;
      TR.munmap vm core ~vpn:reg.vpn ~npages:reg.pages;
      charge reg;
      Probe.close_op probe reg.span;
      Hashtbl.remove live reg.op;
      if !measuring then begin
        incr attempted;
        if reg.failed then incr failed;
        Samples.add lat reg.cycles
      end
    in
    let rec drain_acks () =
      match Channel.recv core acks.(c) with
      | Some slot ->
          free := slot :: !free;
          drain_acks ()
      | None -> ()
    in
    Machine.set_workload machine c (fun () ->
        (match !state with
        | Consuming (reg, pos) ->
            let stop = write reg pos in
            if stop < reg.pages then state := Consuming (reg, stop)
            else begin
              retire reg;
              Channel.send core acks.(reg.owner) reg.slot;
              state := Idle
            end
        | Writing (reg, pos) ->
            let stop = write reg pos in
            if stop < reg.pages then state := Writing (reg, stop)
            else begin
              if Random.State.int rng 100 < handoff_pct then
                Channel.send core data.((c + 1) mod ncores) reg
              else begin
                retire reg;
                free := reg.slot :: !free
              end;
              state := Idle
            end
        | Idle -> (
            drain_acks ();
            match Channel.recv core data.(c) with
            | Some reg -> state := Consuming (reg, 0)
            | None -> (
                match !free with
                | slot :: rest ->
                    free := rest;
                    let op = !next_op in
                    incr next_op;
                    let reg =
                      {
                        op;
                        owner = c;
                        slot;
                        vpn = (c * arena) + (slot * max_pages);
                        pages = region_pages rng;
                        span = Probe.open_op probe ~name:"lifecycle" ~op ~core:c;
                        cycles = 0;
                        failed = false;
                      }
                    in
                    Hashtbl.replace live op reg;
                    enter reg;
                    TR.mmap vm core ~vpn:reg.vpn ~npages:reg.pages ();
                    charge reg;
                    state := Writing (reg, 0)
                | [] -> Machine.wait_hint machine core)));
        true)
  done;
  Machine.run_for machine ~cycles:warmup;
  let refcache = R.refcache r in
  let epoch0 = Refcnt.Refcache.epoch refcache in
  measuring := true;
  Outcome.begin_window m machine [ probe ];
  Machine.run_for machine ~cycles:(warmup + window);
  Outcome.end_window m machine;
  measuring := false;
  let layer =
    [
      ("core.refaults_per_eviction", 0.);
      ("core.pt_bytes", float_of_int (TR.pt_bytes vm));
      ("core.index_bytes", float_of_int (TR.index_bytes vm));
      ("radix.nodes", float_of_int (R.radix_nodes r));
      ("refcache.epochs", float_of_int (Refcnt.Refcache.epoch refcache - epoch0));
      ("refcache.pending_review_end", float_of_int (Refcnt.Refcache.pending_review refcache));
      ("os.cached_file_pages", 0.);
    ]
  in
  let invariants =
    match R.check_invariants r with
    | () -> true
    | exception Vm.Vm_types.Invariant_violation _ -> false
  in
  (* A page is mapped exactly when a live (not yet unmapped) region
     covers it. *)
  let expect = Array.make (ncores * arena) false in
  Hashtbl.iter
    (fun _ reg ->
      for p = reg.vpn to reg.vpn + reg.pages - 1 do
        expect.(p) <- true
      done)
    live;
  let unmapped_clean =
    let ok = ref true in
    for c = 0 to ncores - 1 do
      for p = c * arena to (c * arena) + (nbuf * max_pages) - 1 do
        if TR.mapped vm ~vpn:p <> expect.(p) then ok := false
      done
    done;
    !ok
  in
  (* Tear down what is still in flight, let Refcache settle, and every
     frame must be back. *)
  let in_flight = Hashtbl.fold (fun _ reg acc -> reg :: acc) live [] in
  List.iter
    (fun reg ->
      R.munmap r (Machine.core machine reg.owner) ~vpn:reg.vpn ~npages:reg.pages)
    (List.sort (fun a b -> Int.compare a.op b.op) in_flight);
  Machine.drain machine ~cycles:(4 * (Machine.params machine).Params.epoch_cycles);
  let frames_back = Physmem.live_frames physmem = frames0 in
  Outcome.finish m ~workload:"churn" ~machine ~window_cycles:window
    ~attempted:!attempted ~failed:!failed ~lat ~layer
    ~detail:(Printf.sprintf "lifecycles=%d in_flight=%d" !next_op (List.length in_flight))
    ~checks:
      [
        ("radixvm_invariants", invariants);
        ("unmapped_regions_unmapped", unmapped_clean);
        ("frames_return_after_drain", frames_back);
      ]
