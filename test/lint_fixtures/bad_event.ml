(* hot-eager-event: Obs events built where no [Obs.active] test guards
   them, so they are allocated even when no sink is installed. The
   guarded shapes below are the ones Line, Tlb and Lock use and must NOT
   be flagged. *)

open Ccsim

let emit (core : Core.t) ev =
  let obs = core.Core.obs in
  if Obs.active obs then Obs.emit obs ev

(* hot-eager-event: the event is built before [emit] tests the sink. *)
let eager_acquire (core : Core.t) ~lock ~line =
  emit core
    (Obs.Acquire { core = core.Core.id; lock; line; label = "l"; rd = false })

(* hot-eager-event: hoisted out of the guarded branch. *)
let hoisted (core : Core.t) ~line =
  let ev = Obs.Read { core = core.Core.id; line; label = "l"; kind = Obs.Plain } in
  if Obs.active core.Core.obs then Obs.emit core.Core.obs ev

(* hot-eager-event: the [else] branch runs when no sink is active. *)
let wrong_branch (core : Core.t) ~line =
  if Obs.active core.Core.obs then ()
  else
    Obs.emit core.Core.obs
      (Obs.Write { core = core.Core.id; line; label = "l"; kind = Obs.Plain })

(* NOT flagged: built inside the [then] branch (Line's shape). *)
let guarded_if (core : Core.t) ~line =
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Read { core = core.Core.id; line; label = "l"; kind = Obs.Plain })

(* NOT flagged: a match case guarded by [when Obs.active] (Tlb's shape). *)
let guarded_case (obs : Obs.t option) ~vpn =
  match obs with
  | Some obs when Obs.active obs ->
      Obs.emit obs (Obs.Tlb_fill { core = 0; asid = 0; vpn })
  | _ -> ()
