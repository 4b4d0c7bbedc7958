(* Per-call records at one layer boundary, as seen from the caller.

   A probe times calls in simulated cycles from the calling core's
   [clock + pending_intr]. It never calls [Core.now], which folds pending
   interrupts into the clock and so would change the simulation being
   measured. When tracing, it also reads the host clock around each call
   and keeps one span per call. *)

module Spans = struct
  type span = {
    layer : string;
    name : string;
    op : int;
    parent : int;
    core : int;
    t0 : int;
    mutable t1 : int;
  }

  type t = { mutable items : span array; mutable n : int }

  let dummy = { layer = ""; name = ""; op = 0; parent = -1; core = 0; t0 = 0; t1 = 0 }
  let create () = { items = Array.make 4096 dummy; n = 0 }
  let length t = t.n

  let add t s =
    if t.n = Array.length t.items then begin
      let bigger = Array.make (2 * t.n) dummy in
      Array.blit t.items 0 bigger 0 t.n;
      t.items <- bigger
    end;
    t.items.(t.n) <- s;
    t.n <- t.n + 1;
    t.n - 1

  let close t id t1 = t.items.(id).t1 <- t1

  (* Chrome trace-event JSON (loads in Perfetto or about:tracing): one
     complete event per span, one track per simulated core. *)
  let write t path =
    let oc = open_out path in
    let base = if t.n = 0 then 0 else t.items.(0).t0 in
    output_string oc "{\"traceEvents\":[\n";
    for i = 0 to t.n - 1 do
      let s = t.items.(i) in
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"op\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name s.layer s.core
        (float_of_int (s.t0 - base) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        i s.op s.parent
    done;
    output_string oc "]}\n";
    close_out oc
end

type kind = {
  name : string;
  samples : Samples.t;  (* simulated cycles of each recorded call *)
  mutable calls : int;
  mutable errors : int;
  mutable host_ns : int;  (* host time inside traced calls *)
  mutable traced : int;  (* calls that [host_ns] covers *)
}

type t = {
  layer : string;
  kinds : kind array;
  mutable recording : bool;  (* inside the measured window *)
  mutable spans : Spans.t option;  (* tracing: host spans per call *)
  mutable last : int;  (* cycles of the latest call, recorded or not *)
  mutable host_start : int;
  mutable op : int;  (* request the next calls belong to *)
  mutable parent : int;  (* span of that request, or -1 *)
}

let create ~layer names =
  {
    layer;
    kinds =
      Array.of_list
        (List.map
           (fun name ->
             { name; samples = Samples.create (); calls = 0; errors = 0; host_ns = 0; traced = 0 })
           names);
    recording = false;
    spans = None;
    last = 0;
    host_start = 0;
    op = 0;
    parent = -1;
  }

let kind t name =
  let rec find i =
    if i = Array.length t.kinds then invalid_arg ("Probe.kind " ^ name)
    else if t.kinds.(i).name = name then i
    else find (i + 1)
  in
  find 0

let sim_now (core : Ccsim.Core.t) = core.Ccsim.Core.clock + core.Ccsim.Core.pending_intr

let start t core =
  if t.spans <> None then t.host_start <- Clock.now_ns ();
  sim_now core

let stop ?(error = false) t k (core : Ccsim.Core.t) s0 =
  let d = sim_now core - s0 in
  t.last <- d;
  if t.recording then begin
    let kd = t.kinds.(k) in
    kd.calls <- kd.calls + 1;
    if error then kd.errors <- kd.errors + 1;
    Samples.add kd.samples d;
    match t.spans with
    | None -> ()
    | Some sp ->
        let t1 = Clock.now_ns () in
        kd.host_ns <- kd.host_ns + (t1 - t.host_start);
        kd.traced <- kd.traced + 1;
        ignore
          (Spans.add sp
             {
               Spans.layer = t.layer;
               name = kd.name;
               op = t.op;
               parent = t.parent;
               core = core.Ccsim.Core.id;
               t0 = t.host_start;
               t1;
             })
  end

(* A request-level span that later calls name as their parent (closed
   with [close_op]); -1 when not tracing. *)
let open_op t ~name ~op ~core =
  match t.spans with
  | Some sp when t.recording ->
      Spans.add sp
        { Spans.layer = "op"; name; op; parent = -1; core; t0 = Clock.now_ns (); t1 = 0 }
  | _ -> -1

let close_op t id =
  match t.spans with
  | Some sp when id >= 0 -> Spans.close sp id (Clock.now_ns ())
  | _ -> ()

let calls t = Array.fold_left (fun acc k -> acc + k.calls) 0 t.kinds
let errors t = Array.fold_left (fun acc k -> acc + k.errors) 0 t.kinds
let host_ns t = Array.fold_left (fun acc k -> acc + k.host_ns) 0 t.kinds

(* One probe holding the calls of several probes of the same layer. *)
let merge = function
  | [] -> invalid_arg "Probe.merge"
  | first :: _ as all ->
      let t = create ~layer:first.layer (Array.to_list (Array.map (fun k -> k.name) first.kinds)) in
      List.iter
        (fun p ->
          Array.iteri
            (fun i k ->
              let into = t.kinds.(i) in
              into.calls <- into.calls + k.calls;
              into.errors <- into.errors + k.errors;
              into.host_ns <- into.host_ns + k.host_ns;
              into.traced <- into.traced + k.traced;
              Samples.append ~into:into.samples k.samples)
            p.kinds)
        all;
      t
