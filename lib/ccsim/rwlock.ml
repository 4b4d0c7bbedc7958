type t = {
  id : int;
  label : string;
  line : Line.t;
  mutable writer_free : int;  (* time the last writer released *)
  mutable readers_free : int;  (* latest reader release time *)
}

let create ?(label = "rwlock") (core : Core.t) =
  let line =
    Line.create ~label core.Core.params core.Core.stats
      ~home_socket:core.Core.socket
  in
  { id = Obs.fresh_lock_id (); label; line; writer_free = 0; readers_free = 0 }

let id t = t.id
let label t = t.label

(* As in {!Lock}: build the event only when a sink will see it. *)
let note (core : Core.t) t ~acquire ~rd =
  let obs = core.Core.obs in
  if Obs.active obs then
    let core = core.Core.id and lock = t.id and line = Line.id t.line in
    Obs.emit obs
      (if acquire then Obs.Acquire { core; lock; line; label = t.label; rd }
       else Obs.Release { core; lock; line; label = t.label; rd })

let charge_acquire (core : Core.t) t wait_until =
  let stats = core.Core.stats in
  stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1;
  Line.write_untraced core t.line;
  let now = Core.now core in
  if wait_until > now then begin
    stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
    stats.Stats.lock_wait_cycles <-
      stats.Stats.lock_wait_cycles + (wait_until - now);
    core.Core.clock <- wait_until
  end

let read_acquire (core : Core.t) t =
  charge_acquire core t t.writer_free;
  note core t ~acquire:true ~rd:true

let read_release (core : Core.t) t =
  Line.write_untraced core t.line;
  t.readers_free <- max t.readers_free (Core.now core);
  note core t ~acquire:false ~rd:true

let write_acquire (core : Core.t) t =
  charge_acquire core t (max t.writer_free t.readers_free);
  note core t ~acquire:true ~rd:false

let write_release (core : Core.t) t =
  Line.write_untraced core t.line;
  t.writer_free <- Core.now core;
  note core t ~acquire:false ~rd:false
