(* The traced run's [Obs] sink: event counts per label and per event
   kind, and lock hold times in simulated cycles. A hold is measured from
   the acting core's [clock] at Acquire to its [clock] at Release, read
   without folding pending interrupts (which would perturb the run). *)

open Ccsim

type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable acquires : int;
  holds : Samples.t;
}

type t = {
  labels : (string, counts) Hashtbl.t;
  held : (int, int) Hashtbl.t;  (* lock * ncores + core -> acquire clock *)
  mutable events : int;
  mutable rc_inc : int;
  mutable rc_dec : int;
  mutable rc_free : int;
}

let create () =
  {
    labels = Hashtbl.create 16;
    held = Hashtbl.create 64;
    events = 0;
    rc_inc = 0;
    rc_dec = 0;
    rc_free = 0;
  }

let counts t label =
  match Hashtbl.find_opt t.labels label with
  | Some c -> c
  | None ->
      let c = { reads = 0; writes = 0; acquires = 0; holds = Samples.create () } in
      Hashtbl.replace t.labels label c;
      c

let handle t machine ev =
  let n = Machine.ncores machine in
  let clock core = (Machine.core machine core).Core.clock in
  t.events <- t.events + 1;
  match ev with
  | Obs.Read { label; _ } ->
      let c = counts t label in
      c.reads <- c.reads + 1
  | Obs.Write { label; _ } ->
      let c = counts t label in
      c.writes <- c.writes + 1
  | Obs.Acquire { core; lock; label; _ } ->
      let c = counts t label in
      c.acquires <- c.acquires + 1;
      Hashtbl.replace t.held ((lock * n) + core) (clock core)
  | Obs.Release { core; lock; label; _ } -> (
      let c = counts t label in
      let key = (lock * n) + core in
      match Hashtbl.find_opt t.held key with
      | Some t0 ->
          Hashtbl.remove t.held key;
          Samples.add c.holds (clock core - t0)
      | None -> ())
  | Obs.Rc_inc _ -> t.rc_inc <- t.rc_inc + 1
  | Obs.Rc_dec _ -> t.rc_dec <- t.rc_dec + 1
  | Obs.Rc_free _ -> t.rc_free <- t.rc_free + 1
  | Obs.Tlb_fill _ | Obs.Tlb_drop _ | Obs.Unmap_done _ | Obs.Rc_make _ -> ()

let install t machine =
  Obs.set_sink (Machine.obs machine) (Some (handle t machine))

let uninstall machine = Obs.set_sink (Machine.obs machine) None

let accesses t label =
  match Hashtbl.find_opt t.labels label with
  | Some c -> c.reads + c.writes
  | None -> 0

let acquires t label =
  match Hashtbl.find_opt t.labels label with Some c -> c.acquires | None -> 0

let hold_p99 t label =
  match Hashtbl.find_opt t.labels label with
  | Some c -> Samples.percentile c.holds 0.99
  | None -> 0

let merge all =
      let t = create () in
      List.iter
        (fun s ->
          t.events <- t.events + s.events;
          t.rc_inc <- t.rc_inc + s.rc_inc;
          t.rc_dec <- t.rc_dec + s.rc_dec;
          t.rc_free <- t.rc_free + s.rc_free;
          Hashtbl.iter
            (fun label c ->
              let into = counts t label in
              into.reads <- into.reads + c.reads;
              into.writes <- into.writes + c.writes;
              into.acquires <- into.acquires + c.acquires;
              Samples.append ~into:into.holds c.holds)
            s.labels)
        all;
      t
