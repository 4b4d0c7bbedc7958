(* The repository benchmark's command-line entry point.

     bench.exe --workload serve|churn|prefork --seed N --seconds S --trace 0|1

   A run first makes one pass over several simulations whose seeds derive
   from N, each a set-up and a measured window; the simulated metrics come
   from that pass. It then runs the same simulations again, in turn, until
   S seconds have passed since it started; every re-run must reproduce its
   simulation's digest exactly. With --trace 0 it prints the end-to-end
   metrics: host ones are medians over every simulation run, in
   reference-host seconds (see Calib). With --trace 1 every simulation
   runs untraced and then traced, the traced run must simulate exactly
   what the untraced one did, and the per-layer metrics are printed. The
   last line of standard output is the JSON result; the exit code is
   nonzero when any output check fails, a simulation raising included. *)

open Perfbench

let workloads = [ "serve"; "churn"; "prefork" ]

let default_window = function
  | "serve" -> Serve.default_window
  | "churn" -> Churn.default_window
  | "prefork" -> Prefork.default_window
  | w -> invalid_arg ("unknown workload " ^ w)

(* A pass pools several independent simulations: one seed's dynamics
   vary more than a longer window averages away. *)
let instances = function "churn" -> 4 | "serve" -> 16 | _ -> 32
let instance_seed seed i = ((seed * 1_000_003) + (i * 7_919)) land 0x3fff_ffff

type sim = {
  outcome : Outcome.t;
  served : Workloads.Cache_serve.result option;  (* serve's own result *)
  digest : string;
  slow : float;  (* host slowdown around it (see Calib) *)
}

let simulate workload ~seed ~window ~traced =
  (* Start every simulation from a collected heap, so one simulation's
     garbage does not tax the next one's set-up or window. *)
  Gc.full_major ();
  match workload with
  | "serve" ->
      let o, r = Serve.run ~seed ~traced ~window in
      (o, Some r)
  | "churn" -> (Churn.run ~seed ~traced ~window, None)
  | _ -> (Prefork.run ~seed ~traced ~window, None)

(* The calibration kernel's slowdown when the latest simulation ended. *)
let last_slowdown = lazy (ref (Calib.slowdown ()))

(* Simulation [index] of a pass, or [None] when it raised: the failure
   is reported with the simulation's seed, so it can be replayed alone.
   With [calibrate], its host slowdown is the mean of the calibration
   kernel's slowdown just before and just after it; otherwise 1. Only
   simulation 0 keeps its host spans: the spans of one serve simulation
   alone run to a few hundred thousand. *)
let run_sim workload ~seed ~window ~traced ~calibrate index =
  let seed = instance_seed seed index in
  let result =
    try Some (simulate workload ~seed ~window ~traced)
    with e ->
      Printf.eprintf "simulation seed %d: %s\n%!" seed (Printexc.to_string e);
      None
  in
  let slow =
    if calibrate then begin
      let before = Lazy.force last_slowdown in
      let after = Calib.slowdown () in
      let slow = (!before +. after) /. 2. in
      before := after;
      slow
    end
    else 1.
  in
  Option.map
    (fun ((o : Outcome.t), served) ->
      let outcome = if index = 0 then o else { o with spans = None } in
      { outcome; served; digest = Report.digest o; slow })
    result

let elapsed_s t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

let check name ok =
  Printf.printf "check %-36s %s\n" name (if ok then "ok" else "FAILED");
  ok

let report_checks (o : Outcome.t) =
  List.fold_left (fun all (name, ok) -> check name ok && all) true o.checks

(* Serve through the timing wrapper must return exactly what the
   unwrapped workload returns. *)
let non_perturbation workload ~seed ~window first =
  match (workload, first) with
  | "serve", Some { served = Some r; _ } ->
      check "timed_serve_equals_unwrapped"
        (Serve.serve_plain ~seed:(instance_seed seed 0) ~window = r)
  | "serve", _ -> check "timed_serve_equals_unwrapped" false
  | _ -> true

let print_digest (o : Outcome.t) s digest =
  Printf.printf "workload %s  seed-derived window: %d cycles on %d cores\n" o.workload
    o.window_cycles o.ncores;
  Printf.printf "op latency samples %d (%d beyond p99.9): p50 %d p99 %d p99.9 %d cycles\n"
    (Samples.length o.lat) (Samples.beyond o.lat 0.999) (Samples.percentile_of_sorted s 0.5)
    (Samples.percentile_of_sorted s 0.99) (Samples.percentile_of_sorted s 0.999);
  Printf.printf "sim_digest %s\n" digest

(* Host figures of one simulation: ops, and seconds of its window and
   set-up. A re-run keeps only these, so the re-runs' collections do not
   walk earlier simulations' samples. *)
type host = { ops : float; window : float; setup : float; slow : float }

let host_of s =
  match s.outcome.host with
  | [ (ops, w, u) ] ->
      { ops = float_of_int ops; window = float_of_int w /. 1e9; setup = float_of_int u /. 1e9; slow = s.slow }
  | _ -> invalid_arg "host_of"

let raw_rate h = h.ops /. h.window

(* Host times are reported in reference-host seconds (see Calib). *)
let rate h = h.ops /. (h.window /. h.slow)
let setup h = h.setup /. h.slow

(* A pass over every simulation; [None] entries raised. *)
let pass workload ~seed ~window ~traced ~calibrate =
  List.init (instances workload) (run_sim workload ~seed ~window ~traced ~calibrate)

let completed = List.filter_map Fun.id

(* Re-runs simulations in turn until [seconds] have passed since [t0]
   and, with [full], at least one whole pass has been re-run; [step i]
   runs simulation [i] and returns whether it reproduced the first pass. *)
let repeat workload ~t0 ~seconds ~full step =
  let n = instances workload in
  let rec go k ok =
    if elapsed_s t0 >= seconds && ((not full) || k >= n) then ok
    else go (k + 1) (step (k mod n) && ok)
  in
  go 0 true

(* [s] completed and reproduced digest [d] of its first-pass run exactly. *)
let same_sim d (s : sim option) =
  match (d, s) with
  | Some d, Some s -> s.digest = d && List.for_all snd s.outcome.checks
  | _ -> false

let digests = List.map (Option.map (fun s -> s.digest))

(* The first pass's simulated figures, checks and digests; the pass's
   outcomes are dropped once [f] has reported on their merge. *)
let first_pass workload ~seed ~window first f =
  let all_done = List.for_all Option.is_some first in
  match completed first with
  | [] -> (check "simulations_completed" false, None)
  | done_ ->
      let merged = Outcome.merge (List.map (fun s -> s.outcome) done_) in
      let sorted_lat = Samples.sorted merged.lat in
      print_digest merged sorted_lat (Report.pass_digest (List.map (fun s -> s.digest) done_));
      let all_done = check "simulations_completed" all_done in
      let ok_checks = report_checks merged in
      let np = non_perturbation workload ~seed ~window (List.hd first) in
      let values = f merged sorted_lat in
      ( all_done && ok_checks && np,
        Some (merged.attempted, merged.failed, values, List.map host_of done_) )

let untraced workload ~seed ~window ~seconds =
  let t0 = Clock.now_ns () in
  let first = pass workload ~seed ~window ~traced:false ~calibrate:true in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let ds = digests first in
  match
    first_pass workload ~seed ~window first (fun merged sorted_lat ->
        Report.end_to_end_values ~first:merged ~sorted_lat ~peak_heap_words)
  with
  | ok, None -> (ok, None, [])
  | ok, Some (attempted, failed, values, first_hosts) ->
      (* Host figures come from the re-runs: the first pass grows the
         process's heap, and its first simulations run up to twice as
         slow. No re-runs happen after a simulation raised. *)
      let hosts = ref [] in
      let same =
        ok
        && repeat workload ~t0 ~seconds ~full:true (fun i ->
               let s = run_sim workload ~seed ~window ~traced:false ~calibrate:true i in
               Option.iter (fun s -> hosts := host_of s :: !hosts) s;
               same_sim (List.nth ds i) s)
      in
      let hosts = match !hosts with [] -> first_hosts | l -> l in
      Printf.printf "host figures from %d simulations; slowdown median %.3f; raw host ops/s median %.0f\n"
        (List.length hosts)
        (Samples.median_float (List.map (fun h -> h.slow) hosts))
        (Samples.median_float (List.map raw_rate hosts));
      let same = ok && check "repetitions_identical" same in
      let rows =
        Report.ordered Report.end_to_end
          (values
          @ [
              ("host_sim_ops_per_s", Samples.median_float (List.map rate hosts));
              ("setup_s", Samples.median_float (List.map setup hosts));
            ])
      in
      Report.print_table rows;
      (ok && same, Some (attempted, failed), rows)

let spans_dir = ".perfbench"

let write_spans workload (t : Outcome.t) =
  match t.spans with
  | Some sp ->
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat spans_dir (Printf.sprintf "spans-%s.json" workload) in
      Probe.Spans.write sp path;
      Printf.printf "spans %d (simulation 0) written to %s\n" (Probe.Spans.length sp) path
  | None -> ()

let traced workload ~seed ~window ~seconds =
  let t0 = Clock.now_ns () in
  (* Each simulation runs untraced and then traced right after, so the
     two windows see the same host speed: traced runs need no
     calibration. *)
  let pair i =
    let u = run_sim workload ~seed ~window ~traced:false ~calibrate:false i in
    let t = run_sim workload ~seed ~window ~traced:true ~calibrate:false i in
    (u, t)
  in
  let first_u, first_t = List.split (List.init (instances workload) pair) in
  let ds = digests first_u in
  let traced_same = List.for_all2 same_sim ds first_t in
  let ratio u t = t.window /. u.window in
  let first_ratios =
    List.filter_map
      (function Some u, Some t -> Some (ratio (host_of u) (host_of t)) | _ -> None)
      (List.combine first_u first_t)
  in
  let result =
    first_pass workload ~seed ~window first_u (fun u _ ->
        match completed first_t with
        | [] -> []
        | ts ->
            let t = Outcome.merge (List.map (fun s -> s.outcome) ts) in
            (* [traced_same] holds only if these checks hold too. *)
            ignore (report_checks t);
            write_spans workload t;
            Report.per_layer_values ~u ~t)
  in
  match result with
  | ok, None -> (ok, None, [])
  | _, Some (_, _, [], _) -> (check "simulations_completed" false, None, [])
  | ok, Some (attempted, failed, values, first_u_hosts) ->
      let untraced_hosts = ref first_u_hosts in
      let ratios = ref first_ratios in
      let same =
        ok && traced_same
        && repeat workload ~t0 ~seconds ~full:false (fun i ->
               let u, t = pair i in
               (match (u, t) with
               | Some u, Some t ->
                   let u = host_of u in
                   untraced_hosts := u :: !untraced_hosts;
                   ratios := ratio u (host_of t) :: !ratios
               | _ -> ());
               let d = List.nth ds i in
               same_sim d u && same_sim d t)
      in
      Printf.printf "traced pairs %d\n" (List.length !ratios);
      let same = ok && check "traced_equals_untraced" same in
      let rows =
        Report.ordered Report.per_layer
          (values
          @ [
              ("host.raw_sim_ops_per_s", Samples.median_float (List.map raw_rate !untraced_hosts));
              ("host.trace_overhead_ratio", Samples.median_float !ratios);
            ])
      in
      Report.print_table rows;
      (ok && same, Some (attempted, failed), rows)

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload serve|churn|prefork --seed N --seconds S --trace 0|1";
  if !workload = "" then begin
    prerr_endline "bench.exe: --workload is required";
    exit 2
  end;
  let window = default_window !workload in
  let ok, counts, rows =
    if !trace = 0 then untraced !workload ~seed:!seed ~window ~seconds:!seconds
    else traced !workload ~seed:!seed ~window ~seconds:!seconds
  in
  (match counts with
  | Some (attempted, failed) -> Report.result_line ~correct:ok ~attempted ~failed rows
  | None ->
      (* No simulation completed: nothing was measured. *)
      Report.result_line ~correct:false ~attempted:1 ~failed:1 rows);
  if not ok then exit 1
