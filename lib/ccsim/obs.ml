type kind = Plain | Atomic | Sync

type event =
  | Read of { core : int; line : int; label : string; kind : kind }
  | Write of { core : int; line : int; label : string; kind : kind }
  | Acquire of { core : int; lock : int; line : int; label : string; rd : bool }
  | Release of { core : int; lock : int; line : int; label : string; rd : bool }
  | Tlb_fill of { core : int; asid : int; vpn : int }
  | Tlb_drop of { core : int; asid : int; vpn : int }
  | Unmap_done of { core : int; asid : int; lo : int; hi : int }
  | Rc_make of { core : int; oid : int; init : int; label : string }
  | Rc_inc of { core : int; oid : int; label : string }
  | Rc_dec of { core : int; oid : int; label : string }
  | Rc_free of { core : int; oid : int; label : string }

(* [hot] caches [sink <> None]: it is read before every potential event
   allocation — several times per simulated memory access, the single
   most executed branch in the simulator — so it must be one
   immediate-field load, not an option comparison. [set_sink] keeps it in
   sync. *)
type t = { mutable sink : (event -> unit) option; mutable hot : bool }

let create () = { sink = None; hot = false }

let set_sink t sink =
  t.sink <- sink;
  t.hot <- Option.is_some sink

let active t = t.hot
let emit t ev = match t.sink with Some f -> f ev | None -> ()

(* Identity spaces for lines and locks. Ids are only used to correlate
   events and name findings in reports; they never feed back into the cost
   model, so a process-wide counter keeps creation sites untouched by
   plumbing. The counters are atomic because the benchmark harness runs
   independent simulations on concurrent domains: ids from simultaneous
   jobs interleave (no longer dense per machine), but uniqueness — the
   only property the checkers' ledgers rely on — always holds. *)
let line_ids = Atomic.make 0
let fresh_line_id () = Atomic.fetch_and_add line_ids 1
let lock_ids = Atomic.make 0
let fresh_lock_id () = Atomic.fetch_and_add lock_ids 1

(* Address-space ids distinguish the TLB events of different MMUs: every
   address space has its own per-core TLB instances, so "core 1 caches
   vpn 101" is only meaningful relative to an address space. *)
let asids = Atomic.make 0
let fresh_asid () = Atomic.fetch_and_add asids 1

let pp_kind ppf = function
  | Plain -> Format.pp_print_string ppf "plain"
  | Atomic -> Format.pp_print_string ppf "atomic"
  | Sync -> Format.pp_print_string ppf "sync"

let pp_event ppf = function
  | Read { core; line; label; kind } ->
      Format.fprintf ppf "read  core%d line%d(%s) %a" core line label pp_kind
        kind
  | Write { core; line; label; kind } ->
      Format.fprintf ppf "write core%d line%d(%s) %a" core line label pp_kind
        kind
  | Acquire { core; lock; line; label; rd } ->
      Format.fprintf ppf "%s core%d lock%d(%s) line%d"
        (if rd then "racq " else "acq  ")
        core lock label line
  | Release { core; lock; line; label; rd } ->
      Format.fprintf ppf "%s core%d lock%d(%s) line%d"
        (if rd then "rrel " else "rel  ")
        core lock label line
  | Tlb_fill { core; asid; vpn } ->
      Format.fprintf ppf "tlb+  core%d as%d vpn%d" core asid vpn
  | Tlb_drop { core; asid; vpn } ->
      Format.fprintf ppf "tlb-  core%d as%d vpn%d" core asid vpn
  | Unmap_done { core; asid; lo; hi } ->
      Format.fprintf ppf "unmap core%d as%d [%d,%d)" core asid lo hi
  | Rc_make { core; oid; init; label } ->
      Format.fprintf ppf "rcnew core%d obj%d(%s)=%d" core oid label init
  | Rc_inc { core; oid; label } ->
      Format.fprintf ppf "rcinc core%d obj%d(%s)" core oid label
  | Rc_dec { core; oid; label } ->
      Format.fprintf ppf "rcdec core%d obj%d(%s)" core oid label
  | Rc_free { core; oid; label } ->
      Format.fprintf ppf "rcfree core%d obj%d(%s)" core oid label
