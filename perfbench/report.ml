(* Metrics, the simulation digest, and the result line. *)

(* A metric's name, unit and direction; BENCHMARK.json lists the same
   metrics and holds the end-to-end bounds. *)
type spec = { name : string; unit : string; better : string }

let spec name unit better = { name; unit; better }

let end_to_end =
  [
    spec "sim_ops_per_s" "1/s" "higher";
    spec "sim_op_mean_cycles" "cycles" "lower";
    spec "sim_op_tail_mean_cycles" "cycles" "lower";
    spec "ok_op_ratio" "ratio" "higher";
    spec "host_sim_ops_per_s" "1/s" "higher";
    spec "host_alloc_words_per_op" "words" "lower";
    spec "host_peak_heap_mb" "MB" "lower";
    spec "setup_s" "s" "lower";
  ]

let call_kinds = Timed.kinds
let sys_kinds = Prefork.kinds

let per_layer =
  let ccsim =
    [
      spec "ccsim.tlb_hit_ratio" "ratio" "higher";
      spec "ccsim.hw_walks_per_op" "count" "lower";
      spec "ccsim.lock_contended_ratio" "ratio" "lower";
      spec "ccsim.lock_wait_cycles_per_op" "cycles" "lower";
      spec "ccsim.ipis_per_op" "count" "lower";
      spec "ccsim.shootdown_targets_per_round" "count" "lower";
      spec "ccsim.shootdown_wait_cycles_per_op" "cycles" "lower";
      spec "ccsim.line_transfers_per_op" "count" "lower";
      spec "ccsim.line_stall_cycles_per_op" "cycles" "lower";
      spec "ccsim.dram_fills_per_op" "count" "lower";
      spec "ccsim.frames_allocated_per_op" "count" "lower";
    ]
  in
  let calls prefix kinds =
    List.concat_map
      (fun k ->
        [
          spec (Printf.sprintf "%s.%s.calls" prefix k) "count" "higher";
          spec (Printf.sprintf "%s.%s.sim_cycles_p50" prefix k) "cycles" "lower";
          spec (Printf.sprintf "%s.%s.sim_cycles_p99" prefix k) "cycles" "lower";
        ])
      kinds
  in
  ccsim @ calls "core" call_kinds
  @ [
      spec "core.pagefaults_per_op" "count" "lower";
      spec "core.fill_fault_share" "ratio" "lower";
      spec "core.refaults_per_eviction" "count" "lower";
      spec "core.pt_bytes" "bytes" "lower";
      spec "core.index_bytes" "bytes" "lower";
      spec "radix.nodes" "count" "lower";
      spec "radix.slot.acquires_per_op" "count" "lower";
      spec "radix.slot.hold_cycles_p99" "cycles" "lower";
      spec "radix.node.accesses_per_op" "count" "lower";
      spec "refcache.epochs" "count" "higher";
      spec "refcache.pending_review_end" "count" "lower";
      spec "refcache.inc_per_op" "count" "lower";
      spec "refcache.dec_per_op" "count" "lower";
      spec "refcache.free_per_op" "count" "lower";
    ]
  @ calls "os" sys_kinds
  @ [
      spec "os.errno_ratio" "ratio" "lower";
      spec "os.cached_file_pages" "count" "higher";
      spec "pagecache.lock.acquires_per_op" "count" "lower";
      spec "physmem.freelist.accesses_per_op" "count" "lower";
      spec "pt.percore.accesses_per_op" "count" "lower";
    ]
  @ List.map (fun k -> spec (Printf.sprintf "host.%s.ns_mean" k) "ns" "lower")
      (call_kinds @ [ "syscall" ])
  @ [
      spec "host.raw_sim_ops_per_s" "1/s" "higher";
      spec "host.outside_call_share" "ratio" "lower";
      spec "host.minor_words_per_op" "words" "lower";
      spec "host.promoted_words_per_op" "words" "lower";
      spec "host.major_collections" "count" "lower";
      spec "obs.events_per_op" "count" "lower";
      spec "host.trace_overhead_ratio" "ratio" "lower";
    ]

let div a b = if b = 0. then 0. else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)
let window_s (o : Outcome.t) = float_of_int o.window_cycles /. o.clock_hz

(* ---- simulated results ---- *)

(* Everything the simulation computed, in a fixed order: the digest
   input. Host measurements are excluded. *)
let sim_text (o : Outcome.t) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "workload %s cores %d window %d hz %h" o.workload o.ncores o.window_cycles o.clock_hz;
  line "attempted %d failed %d" o.attempted o.failed;
  let samples name s =
    line "%s n=%d sorted=%s" name (Samples.length s)
      (Digest.to_hex (Digest.string (Marshal.to_string (Samples.sorted s) [])));
    Array.iteri (fun i c -> if c > 0 then Printf.bprintf b "h%d=%d " i c) (Samples.histogram s);
    Buffer.add_char b '\n'
  in
  samples "op_cycles" o.lat;
  List.iter (fun (k, v) -> line "stats.%s %d" k v) o.stats;
  List.iter
    (fun (p : Probe.t) ->
      Array.iter
        (fun (k : Probe.kind) ->
          line "%s.%s calls=%d errors=%d" p.layer k.name k.calls k.errors;
          samples (p.layer ^ "." ^ k.name) k.samples)
        p.kinds)
    o.probes;
  List.iter (fun (k, v) -> line "%s %h" k v) o.layer;
  line "detail %s" (Digest.to_hex (Digest.string o.detail));
  List.iter (fun (k, v) -> line "check %s %b" k v) o.checks;
  Buffer.contents b

let digest o = Digest.to_hex (Digest.string (sim_text o))

(* A pass's digest: its simulations' digests, in order. The pass's
   pooled figures are functions of them. *)
let pass_digest digests = Digest.to_hex (Digest.string (String.concat "\n" digests))

(* ---- end-to-end ---- *)

let alloc_words (g : Outcome.gc) = g.minor +. g.major -. g.promoted

(* All but host_sim_ops_per_s and setup_s, which come from the re-runs. *)
let end_to_end_values ~(first : Outcome.t) ~sorted_lat ~peak_heap_words =
  let ops = float_of_int first.attempted in
  [
    ("sim_ops_per_s", div ops (window_s first));
    ("sim_op_mean_cycles", Samples.mean first.lat);
    ("sim_op_tail_mean_cycles", Samples.tail_mean_of_sorted sorted_lat 0.01);
    ("ok_op_ratio", fdiv (first.attempted - first.failed) first.attempted);
    ("host_alloc_words_per_op", div (alloc_words first.gc) ops);
    ("host_peak_heap_mb", float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* ---- per-layer ---- *)

(* All but host.raw_sim_ops_per_s and host.trace_overhead_ratio, which
   come from every pair of runs. *)
let per_layer_values ~(u : Outcome.t) ~(t : Outcome.t) =
  let ops = u.attempted in
  let per_op v = fdiv v ops in
  let st = Outcome.stat u in
  let probe layer = List.find_opt (fun (p : Probe.t) -> p.layer = layer) in
  let kind_metrics prefix layer names =
    List.concat_map
      (fun name ->
        let calls, p50, p99 =
          match probe layer u.probes with
          | Some p ->
              let k = p.kinds.(Probe.kind p name) in
              let s = Samples.sorted k.samples in
              ( k.calls,
                Samples.percentile_of_sorted s 0.5,
                Samples.percentile_of_sorted s 0.99 )
          | None -> (0, 0, 0)
        in
        [
          (Printf.sprintf "%s.%s.calls" prefix name, float_of_int calls);
          (Printf.sprintf "%s.%s.sim_cycles_p50" prefix name, float_of_int p50);
          (Printf.sprintf "%s.%s.sim_cycles_p99" prefix name, float_of_int p99);
        ])
      names
  in
  let sink = Option.get t.sink in
  let layer name = List.assoc name u.layer in
  let host_mean (p : Probe.t option) name =
    match p with
    | None -> 0.
    | Some p ->
        if name = "syscall" then
          fdiv (Probe.host_ns p) (Array.fold_left (fun a (k : Probe.kind) -> a + k.traced) 0 p.kinds)
        else
          let k = p.kinds.(Probe.kind p name) in
          fdiv k.host_ns k.traced
  in
  let traced_core = probe "core" t.probes and traced_os = probe "os" t.probes in
  let inside = List.fold_left (fun a p -> a + Probe.host_ns p) 0 t.probes in
  let os_calls, os_errors =
    match probe "os" u.probes with Some p -> (Probe.calls p, Probe.errors p) | None -> (0, 0)
  in
  [
    ("ccsim.tlb_hit_ratio", fdiv (st "tlb_hits") (st "tlb_hits" + st "tlb_misses"));
    ("ccsim.hw_walks_per_op", per_op (st "hw_walks"));
    ("ccsim.lock_contended_ratio", fdiv (st "lock_contended") (st "lock_acquires"));
    ("ccsim.lock_wait_cycles_per_op", per_op (st "lock_wait_cycles"));
    ("ccsim.ipis_per_op", per_op (st "ipis"));
    ("ccsim.shootdown_targets_per_round", fdiv (st "shootdown_targets") (st "shootdown_events"));
    ("ccsim.shootdown_wait_cycles_per_op", per_op (st "shootdown_wait_cycles"));
    ("ccsim.line_transfers_per_op", per_op (st "transfers_local" + st "transfers_remote"));
    ("ccsim.line_stall_cycles_per_op", per_op (st "line_stall_cycles"));
    ("ccsim.dram_fills_per_op", per_op (st "dram_fills"));
    ("ccsim.frames_allocated_per_op", per_op (st "frames_allocated"));
  ]
  @ kind_metrics "core" "core" call_kinds
  @ [
      ("core.pagefaults_per_op", per_op (st "pagefaults"));
      ("core.fill_fault_share", fdiv (st "fill_faults") (st "pagefaults"));
      ("core.refaults_per_eviction", layer "core.refaults_per_eviction");
      ("core.pt_bytes", layer "core.pt_bytes");
      ("core.index_bytes", layer "core.index_bytes");
      ("radix.nodes", layer "radix.nodes");
      ("radix.slot.acquires_per_op", per_op (Sink.acquires sink "radix:slot"));
      ("radix.slot.hold_cycles_p99", float_of_int (Sink.hold_p99 sink "radix:slot"));
      ("radix.node.accesses_per_op", per_op (Sink.accesses sink "radix:node"));
      ("refcache.epochs", layer "refcache.epochs");
      ("refcache.pending_review_end", layer "refcache.pending_review_end");
      ("refcache.inc_per_op", per_op sink.rc_inc);
      ("refcache.dec_per_op", per_op sink.rc_dec);
      ("refcache.free_per_op", per_op sink.rc_free);
    ]
  @ kind_metrics "os" "os" sys_kinds
  @ [
      ("os.errno_ratio", fdiv os_errors os_calls);
      ("os.cached_file_pages", layer "os.cached_file_pages");
      ("pagecache.lock.acquires_per_op", per_op (Sink.acquires sink "pagecache:lock"));
      ("physmem.freelist.accesses_per_op", per_op (Sink.accesses sink "physmem:freelist"));
      ("pt.percore.accesses_per_op", per_op (Sink.accesses sink "pt:percore"));
    ]
  @ List.map (fun k -> (Printf.sprintf "host.%s.ns_mean" k, host_mean traced_core k)) call_kinds
  @ [
      ("host.syscall.ns_mean", host_mean traced_os "syscall");
      ("host.outside_call_share", 1. -. fdiv inside (Outcome.window_ns t));
      ("host.minor_words_per_op", div u.gc.minor (float_of_int ops));
      ("host.promoted_words_per_op", div u.gc.promoted (float_of_int ops));
      ("host.major_collections", float_of_int u.gc.collections);
      ("obs.events_per_op", per_op sink.events);
    ]

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* Values in spec order; a spec without a value is a bug in this file. *)
let ordered specs values =
  List.map
    (fun s ->
      match List.assoc_opt s.name values with
      | Some v -> (s, v)
      | None -> failwith ("report: no value for metric " ^ s.name))
    specs

let print_table rows =
  List.iter (fun (s, v) -> Printf.printf "  %-40s %20s %s\n" s.name (json_number v) s.unit) rows

let result_line ~correct ~attempted ~failed rows =
  let metrics =
    String.concat ", "
      (List.map
         (fun (s, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (json_number v) s.unit)
         rows)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed metrics
