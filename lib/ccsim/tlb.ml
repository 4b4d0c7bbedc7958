type entry = { pfn : int; writable : bool }

(* Open-addressed linear-probe table over ints: [keys.(s)] holds the vpn,
   [-1] for an empty slot, [-2] for a tombstone left by invalidation;
   [vals.(s)] packs the translation as [pfn lsl 1 lor writable]. A TLB
   lookup happens on every simulated memory access, so both the lookup and
   the fill path must run without allocating — the stdlib [Hashtbl] boxes
   an entry record per insert and an option per probe.

   The table is sized at four times the capacity (live entries never
   exceed [capacity]), and rebuilt in place once tombstones plus live
   entries fill half of it, which keeps probe chains short: each rebuild
   clears at least [size/4] tombstones, paid for by the removals that
   created them. Vpns are nonnegative (they share the key space with the
   two sentinels). *)

type t = {
  capacity : int;
  mutable keys : int array;
  mutable vals : int array;
  mutable live : int;  (* slots holding a current translation *)
  mutable occupied : int;  (* live + tombstones *)
  (* FIFO insertion order as a growable int ring; may contain stale vpns. *)
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  obs : Obs.t option;
  core : int;  (* owning core id for instrumentation; -1 if unknown *)
  asid : int;  (* owning address space's id; -1 if unknown *)
}

let next_pow2 n =
  let k = ref 1 in
  while !k < n do
    k := !k * 2
  done;
  !k

let create ?obs ?(core = -1) ?(asid = -1) ~capacity () =
  if capacity <= 0 then invalid_arg "Tlb.create";
  let size = next_pow2 (4 * capacity) in
  {
    capacity;
    keys = Array.make size (-1);
    vals = Array.make size 0;
    live = 0;
    occupied = 0;
    ring = Array.make (next_pow2 ((2 * capacity) + 2)) (-1);
    head = 0;
    len = 0;
    obs;
    core;
    asid;
  }

(* Slot holding [vpn], or [-1]. Callers guard against negative vpns (they
   would collide with the sentinels). Probing skips tombstones; an empty
   slot always exists because occupancy is capped at half the table. *)
let find_slot t vpn =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let s = ref (vpn * 0x9E3779B1 land mask) in
  let k = ref (Array.unsafe_get keys !s) in
  while !k <> vpn && !k <> -1 do
    s := (!s + 1) land mask;
    k := Array.unsafe_get keys !s
  done;
  if !k = vpn then !s else -1

(* Insert into a table known not to contain [vpn] or any tombstone. *)
let raw_add keys vals vpn packed =
  let mask = Array.length keys - 1 in
  let s = ref (vpn * 0x9E3779B1 land mask) in
  while Array.unsafe_get keys !s <> -1 do
    s := (!s + 1) land mask
  done;
  Array.unsafe_set keys !s vpn;
  Array.unsafe_set vals !s packed

(* Rebuild at the same size, shedding tombstones. *)
let rebuild t =
  let size = Array.length t.keys in
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make size (-1);
  t.vals <- Array.make size 0;
  for s = 0 to size - 1 do
    let k = Array.unsafe_get old_keys s in
    if k >= 0 then raw_add t.keys t.vals k (Array.unsafe_get old_vals s)
  done;
  t.occupied <- t.live

(* Insert [vpn] (known absent), reusing a tombstone when the probe chain
   ends on one. *)
let add_slot t vpn packed =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let s = ref (vpn * 0x9E3779B1 land mask) in
  let k = ref (Array.unsafe_get keys !s) in
  while !k <> -1 && !k <> -2 do
    s := (!s + 1) land mask;
    k := Array.unsafe_get keys !s
  done;
  if !k = -1 then t.occupied <- t.occupied + 1;
  keys.(!s) <- vpn;
  t.vals.(!s) <- packed;
  t.live <- t.live + 1;
  if t.occupied * 2 > Array.length keys then rebuild t

let remove_slot t s =
  t.keys.(s) <- -2;
  t.live <- t.live - 1

let ring_push t vpn =
  (if t.len = Array.length t.ring then begin
     (* Grow, unrolling so the queue starts at index 0. *)
     let cap = Array.length t.ring in
     let bigger = Array.make (2 * cap) (-1) in
     for k = 0 to t.len - 1 do
       bigger.(k) <- t.ring.((t.head + k) land (cap - 1))
     done;
     t.ring <- bigger;
     t.head <- 0
   end);
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- vpn;
  t.len <- t.len + 1

(* Precondition: [t.len > 0]. *)
let ring_take t =
  let v = t.ring.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  v

let lookup t vpn =
  if vpn < 0 then None
  else
    let s = find_slot t vpn in
    if s < 0 then None
    else
      let packed = t.vals.(s) in
      Some { pfn = packed lsr 1; writable = packed land 1 = 1 }

let lookup_packed t vpn =
  if vpn < 0 then -1
  else
    let s = find_slot t vpn in
    if s < 0 then -1 else Array.unsafe_get t.vals s

let mem t vpn = vpn >= 0 && find_slot t vpn >= 0
let size t = t.live

(* Every membership change is reported, including silent FIFO evictions, so
   a checker's mirror of the TLB contents is exact. *)
let note_fill t vpn =
  match t.obs with
  | Some obs when Obs.active obs ->
      Obs.emit obs (Obs.Tlb_fill { core = t.core; asid = t.asid; vpn })
  | _ -> ()

let note_drop t vpn =
  match t.obs with
  | Some obs when Obs.active obs ->
      Obs.emit obs (Obs.Tlb_drop { core = t.core; asid = t.asid; vpn })
  | _ -> ()

(* Pop stale queue entries until a live one is evicted. *)
let rec evict_one t =
  if t.len > 0 then begin
    let vpn = ring_take t in
    let s = find_slot t vpn in
    if s >= 0 then begin
      remove_slot t s;
      note_drop t vpn
    end
    else evict_one t
  end

(* Invalidation removes vpns from the table but leaves them queued; without
   a bound, munmap-heavy runs grow the queue forever (stale entries only
   drained on insert-at-capacity). When stale entries dominate — the live
   count is at most [capacity] — rebuild the queue keeping only the first
   (oldest) occurrence of each live vpn, which is exactly the entry
   [evict_one] would act on. Rebuilding costs one pass over the queue and
   is triggered only after at least [capacity] invalidations, so eviction
   stays O(1) amortized. *)
let compact t =
  if t.len > 2 * t.capacity then begin
    let seen = Int_table.create ~size_hint:(2 * t.live) false in
    let keep = Array.make t.len (-1) in
    let kept = ref 0 in
    let cap = Array.length t.ring in
    for k = 0 to t.len - 1 do
      let vpn = t.ring.((t.head + k) land (cap - 1)) in
      if find_slot t vpn >= 0 && not (Int_table.mem seen vpn) then begin
        Int_table.set seen vpn true;
        keep.(!kept) <- vpn;
        incr kept
      end
    done;
    Array.blit keep 0 t.ring 0 !kept;
    t.head <- 0;
    t.len <- !kept
  end

let insert t ~vpn ~pfn ~writable =
  if vpn < 0 then invalid_arg "Tlb.insert: negative vpn";
  let packed = (pfn lsl 1) lor if writable then 1 else 0 in
  let s = find_slot t vpn in
  if s >= 0 then t.vals.(s) <- packed
  else begin
    if t.live >= t.capacity then evict_one t;
    add_slot t vpn packed;
    ring_push t vpn;
    note_fill t vpn
  end

let invalidate t vpn =
  if vpn >= 0 then begin
    let s = find_slot t vpn in
    if s >= 0 then begin
      remove_slot t s;
      note_drop t vpn;
      compact t
    end
  end

let invalidate_range t ~lo ~hi =
  (* Probe per vpn while the range is narrower than the capacity (each
     probe is a word or two); scan the slots — bounded by [4 * capacity] —
     only for wide ranges. Both branches leave the table and the queue as
     removing the range's vpns in ascending order does. Only the first
     removal can compact the queue: compaction leaves at most [capacity]
     entries and removals never lengthen it. So the wide branch removes
     the smallest vpn first, through [invalidate], and the rest in slot
     order, which then cannot matter. *)
  if hi - lo <= t.capacity then
    for vpn = lo to hi - 1 do
      invalidate t vpn
    done
  else begin
    let in_range k = k >= 0 && k >= lo && k < hi in
    let first = ref max_int in
    Array.iter (fun k -> if in_range k && k < !first then first := k) t.keys;
    if !first < max_int then begin
      invalidate t !first;
      let keys = t.keys in
      for s = 0 to Array.length keys - 1 do
        let k = Array.unsafe_get keys s in
        if in_range k then begin
          remove_slot t s;
          note_drop t k
        end
      done
    end
  end

let queue_length t = t.len

let flush t =
  (match t.obs with
  | Some obs when Obs.active obs ->
      let keys = t.keys in
      for s = 0 to Array.length keys - 1 do
        let k = Array.unsafe_get keys s in
        if k >= 0 then
          Obs.emit obs (Obs.Tlb_drop { core = t.core; asid = t.asid; vpn = k })
      done
  | _ -> ());
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.live <- 0;
  t.occupied <- 0;
  t.head <- 0;
  t.len <- 0
