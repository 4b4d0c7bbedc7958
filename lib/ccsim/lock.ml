type t = {
  id : int;
  label : string;
  line : Line.t;
  mutable free_time : int;
}

let create ?(label = "lock") (core : Core.t) =
  let line =
    Line.create ~label core.Core.params core.Core.stats
      ~home_socket:core.Core.socket
  in
  { id = Obs.fresh_lock_id (); label; line; free_time = 0 }

let create_on ?label line =
  let label = match label with Some l -> l | None -> Line.label line in
  { id = Obs.fresh_lock_id (); label; line; free_time = 0 }

let id t = t.id
let label t = t.label

(* Events are built only under [Obs.active]: without flambda, [ocamlopt]
   allocates a constructor argument even when the callee drops it. *)
let note (core : Core.t) t ~acquire =
  let obs = core.Core.obs in
  if Obs.active obs then
    let core = core.Core.id and lock = t.id and line = Line.id t.line in
    Obs.emit obs
      (if acquire then
         Obs.Acquire { core; lock; line; label = t.label; rd = false }
       else Obs.Release { core; lock; line; label = t.label; rd = false })

let acquire (core : Core.t) t =
  let stats = core.Core.stats in
  stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1;
  Line.write_untraced core t.line;
  let now = Core.now core in
  if t.free_time > now then begin
    stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
    stats.Stats.lock_wait_cycles <-
      stats.Stats.lock_wait_cycles + (t.free_time - now);
    core.Core.clock <- t.free_time
  end;
  note core t ~acquire:true

let release (core : Core.t) t =
  Line.write_untraced core t.line;
  t.free_time <- Core.now core;
  note core t ~acquire:false

let try_acquire ?(timeout = 0) (core : Core.t) t =
  if timeout < 0 then invalid_arg "Lock.try_acquire: timeout";
  let stats = core.Core.stats in
  stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1;
  Line.write_untraced core t.line;
  let now = Core.now core in
  (* A failed timed attempt spins its whole budget before giving up;
     the legacy [timeout = 0] attempt is an instantaneous test-and-set. *)
  let fail ~spin =
    stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
    Core.tick core spin;
    let obs = core.Core.obs in
    if Obs.active obs then
      Obs.emit obs
        (Obs.Write
           {
             core = core.Core.id;
             line = Line.id t.line;
             label = t.label;
             kind = Obs.Sync;
           });
    false
  in
  let forced =
    match core.Core.fault with
    | Some f -> Fault.forced_lock_timeout f ~label:t.label
    | None -> false
  in
  if forced then fail ~spin:timeout
  else if t.free_time > now + timeout then fail ~spin:timeout
  else begin
    if t.free_time > now then begin
      stats.Stats.lock_contended <- stats.Stats.lock_contended + 1;
      stats.Stats.lock_wait_cycles <-
        stats.Stats.lock_wait_cycles + (t.free_time - now);
      core.Core.clock <- t.free_time
    end;
    note core t ~acquire:true;
    true
  end

let free_time t = t.free_time
