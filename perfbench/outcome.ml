(* What one simulation of a workload produced (or several, pooled by
   [merge]): the simulated results of its measured window, its output
   checks, and the host cost of its set-up and window. *)

open Ccsim

type gc = { minor : float; promoted : float; major : float; collections : int }

type t = {
  workload : string;
  ncores : int;
  window_cycles : int;
  clock_hz : float;
  attempted : int;  (* ops issued in the window *)
  failed : int;
  lat : Samples.t;  (* simulated cycles of each op *)
  stats : (string * int) list;  (* Stats deltas over the window *)
  probes : Probe.t list;
  layer : (string * float) list;  (* other simulated per-layer figures *)
  detail : string;  (* workload-specific results, part of the digest *)
  checks : (string * bool) list;
  gc : gc;  (* allocation over the window *)
  host : (int * int * int) list;  (* per simulation: ops, window ns, set-up ns *)
  sink : Sink.t option;
  spans : Probe.Spans.t option;
}

let stats_fields (s : Stats.t) =
  [
    ("l1_hits", s.l1_hits);
    ("transfers_local", s.transfers_local);
    ("transfers_remote", s.transfers_remote);
    ("dram_fills", s.dram_fills);
    ("line_stall_cycles", s.line_stall_cycles);
    ("lock_acquires", s.lock_acquires);
    ("lock_contended", s.lock_contended);
    ("lock_wait_cycles", s.lock_wait_cycles);
    ("ipis", s.ipis);
    ("shootdown_events", s.shootdown_events);
    ("shootdown_targets", s.shootdown_targets);
    ("shootdown_retries", s.shootdown_retries);
    ("shootdown_wait_cycles", s.shootdown_wait_cycles);
    ("tlb_hits", s.tlb_hits);
    ("tlb_misses", s.tlb_misses);
    ("hw_walks", s.hw_walks);
    ("pagefaults", s.pagefaults);
    ("fill_faults", s.fill_faults);
    ("alloc_faults", s.alloc_faults);
    ("frames_allocated", s.frames_allocated);
    ("frames_freed", s.frames_freed);
    ("mmaps", s.mmaps);
    ("munmaps", s.munmaps);
  ]

let gc_now () =
  let minor, promoted, major = Gc.counters () in
  { minor; promoted; major; collections = (Gc.quick_stat ()).Gc.major_collections }

(* Window boundaries of one simulation. [start] is taken when the
   simulation begins, so set-up time is [window_start - start]. *)
type meter = {
  m_traced : bool;
  m_start : int;
  mutable m_w0 : int;
  mutable m_w1 : int;
  mutable m_gc0 : gc;
  mutable m_gc : gc;
  mutable m_stats0 : (string * int) list;
  mutable m_stats : (string * int) list;
  mutable m_probes : Probe.t list;
  m_sink : Sink.t option;
  m_spans : Probe.Spans.t option;
}

let meter ~traced =
  let zero = { minor = 0.; promoted = 0.; major = 0.; collections = 0 } in
  {
    m_traced = traced;
    m_start = Clock.now_ns ();
    m_w0 = 0;
    m_w1 = 0;
    m_gc0 = zero;
    m_gc = zero;
    m_stats0 = [];
    m_stats = [];
    m_probes = [];
    m_sink = (if traced then Some (Sink.create ()) else None);
    m_spans = (if traced then Some (Probe.Spans.create ()) else None);
  }

let begin_window m machine probes =
  m.m_probes <- probes;
  List.iter
    (fun p ->
      p.Probe.recording <- true;
      p.Probe.spans <- m.m_spans)
    probes;
  m.m_stats0 <- stats_fields (Machine.stats machine);
  Option.iter (fun s -> Sink.install s machine) m.m_sink;
  m.m_gc0 <- gc_now ();
  m.m_w0 <- Clock.now_ns ()

let end_window m machine =
  m.m_w1 <- Clock.now_ns ();
  let g = gc_now () in
  m.m_gc <-
    {
      minor = g.minor -. m.m_gc0.minor;
      promoted = g.promoted -. m.m_gc0.promoted;
      major = g.major -. m.m_gc0.major;
      collections = g.collections - m.m_gc0.collections;
    };
  if m.m_traced then Sink.uninstall machine;
  List.iter
    (fun p ->
      p.Probe.recording <- false;
      p.Probe.spans <- None)
    m.m_probes;
  m.m_stats <-
    List.map2
      (fun (k, v1) (_, v0) -> (k, v1 - v0))
      (stats_fields (Machine.stats machine))
      m.m_stats0

let finish m ~workload ~machine ~window_cycles ~attempted ~failed ~lat ~layer
    ~detail ~checks =
  {
    workload;
    ncores = Machine.ncores machine;
    window_cycles;
    clock_hz = (Machine.params machine).Params.clock_hz;
    attempted;
    failed;
    lat;
    stats = m.m_stats;
    probes = m.m_probes;
    layer;
    detail;
    checks;
    gc = m.m_gc;
    host = [ (attempted, m.m_w1 - m.m_w0, m.m_w0 - m.m_start) ];
    sink = m.m_sink;
    spans = m.m_spans;
  }

let stat (t : t) name = List.assoc name t.stats

(* Pool several instances (independent seeds) into one outcome: ops,
   samples, counters and host times add up; per-instance figures (sizes,
   epochs) are averaged; a check holds only if it held everywhere. Host
   spans are the first instance's: the benchmark keeps no others. *)
let merge = function
  | [] -> invalid_arg "Outcome.merge"
  | [ o ] -> o
  | first :: _ as all ->
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 all in
      let fsum f = List.fold_left (fun acc o -> acc +. f o) 0. all in
      let n = float_of_int (List.length all) in
      let lat = Samples.create () in
      List.iter (fun o -> Samples.append ~into:lat o.lat) all;
      {
        first with
        window_cycles = sum (fun o -> o.window_cycles);
        attempted = sum (fun o -> o.attempted);
        failed = sum (fun o -> o.failed);
        lat;
        stats = List.map (fun (k, _) -> (k, sum (fun o -> List.assoc k o.stats))) first.stats;
        probes =
          List.mapi
            (fun i _ -> Probe.merge (List.map (fun o -> List.nth o.probes i) all))
            first.probes;
        layer = List.map (fun (k, _) -> (k, fsum (fun o -> List.assoc k o.layer) /. n)) first.layer;
        detail = String.concat "\n" (List.map (fun o -> o.detail) all);
        checks =
          List.map (fun (k, _) -> (k, List.for_all (fun o -> List.assoc k o.checks) all)) first.checks;
        gc =
          {
            minor = fsum (fun o -> o.gc.minor);
            promoted = fsum (fun o -> o.gc.promoted);
            major = fsum (fun o -> o.gc.major);
            collections = sum (fun o -> o.gc.collections);
          };
        host = List.concat_map (fun o -> o.host) all;
        sink =
          (match first.sink with
          | Some _ -> Some (Sink.merge (List.filter_map (fun o -> o.sink) all))
          | None -> None);
      }

let window_ns (t : t) = List.fold_left (fun acc (_, w, _) -> acc + w) 0 t.host
